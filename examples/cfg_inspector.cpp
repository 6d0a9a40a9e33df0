// CFG inspector: assemble a program, print its disassembly, CFG
// structure, analyses, and Graphviz DOT.
//
//   $ ./cfg_inspector            # inspects the adpcm-like workload
//   $ ./cfg_inspector --random 7 # inspects a generated program (seed 7)
//
// Demonstrates the substrate layers on their own: isa (assembler +
// disassembler), cfg (builder + dominators/loops/frontier), and the
// profile gathered from a real interpreter run.
#include <iostream>
#include <string>

#include "cfg/analysis.hpp"
#include "cfg/dot.hpp"
#include "cfg/profile.hpp"
#include "isa/disasm.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace apcc;

  workloads::Workload workload;
  if (argc > 2 && std::string(argv[1]) == "--random") {
    workloads::RandomProgramOptions opts;
    opts.seed = static_cast<std::uint64_t>(std::stoull(argv[2]));
    workload = workloads::make_random_workload(opts);
  } else {
    workload = workloads::make_workload(workloads::WorkloadKind::kAdpcmLike);
  }

  std::cout << "=== program: " << workload.name << " ("
            << workload.program.word_count() << " words) ===\n";
  std::cout << isa::disassemble(workload.program) << '\n';

  std::cout << "=== basic blocks ===\n";
  const auto depths = cfg::loop_depths(workload.cfg);
  for (const auto& block : workload.cfg.blocks()) {
    std::cout << "B" << block.id << " [" << block.first_word << ", "
              << block.first_word + block.word_count << ")";
    if (const auto note = workload.cfg.note(block.id); !note.empty()) {
      std::cout << " " << note;
    }
    if (depths[block.id] > 0) {
      std::cout << " loop-depth=" << depths[block.id];
    }
    if (block.is_exit) std::cout << " EXIT";
    std::cout << " ->";
    for (const auto e : workload.cfg.out_edges(block.id)) {
      std::cout << " B" << workload.cfg.edge(e).to;
    }
    std::cout << '\n';
  }

  std::cout << "\n=== loops ===\n";
  for (const auto& loop : cfg::natural_loops(workload.cfg)) {
    std::cout << "header B" << loop.header << ", body {";
    for (const auto b : loop.body) std::cout << " B" << b;
    std::cout << " }\n";
  }

  std::cout << "\n=== k-edge frontier of the entry block ===\n";
  for (const unsigned k : {1u, 2u, 3u}) {
    std::cout << "k=" << k << ":";
    for (const auto b :
         cfg::frontier_within(workload.cfg, workload.cfg.entry(), k)) {
      std::cout << " B" << b;
    }
    std::cout << '\n';
  }

  cfg::EdgeProfile profile(workload.cfg);
  profile.add_trace(workload.trace);
  std::cout << "\n=== profile ===\n"
            << "block entries: " << profile.total_entries()
            << ", hottest 5 blocks cover "
            << profile.hot_block_coverage(5) * 100.0 << "% of execution\n";

  std::cout << "\n=== DOT (pipe into `dot -Tsvg`) ===\n"
            << cfg::to_dot(workload.cfg);
  return 0;
}
