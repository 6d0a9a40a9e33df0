// Figure 5 walkthrough: replay the paper's nine-step example and narrate
// every runtime event.
//
//   $ ./figure_walkthrough
//
// Uses the exact CFG fragment and access pattern (B0, B1, B0, B1, B3) of
// paper §5 / Figure 5, with the 2-edge compression algorithm and
// on-demand decompression, and prints the engine's event stream with the
// matching paper step numbers.
#include <iostream>

#include "cfg/paper_graphs.hpp"
#include "core/system.hpp"
#include "support/strings.hpp"
#include "workloads/synth_bytes.hpp"

int main() {
  using namespace apcc;

  cfg::Cfg graph = cfg::figure5_cfg();
  std::cout << "Figure 5 CFG: B0 -> {B1|B2} -> B3, back edge B1 -> B0\n"
            << "access pattern: B0, B1, B0, B1, B3   (k = 2)\n\n";

  core::SystemConfig config;
  config.codec = compress::CodecKind::kSharedHuffman;
  config.policy.strategy = runtime::DecompressionStrategy::kOnDemand;
  config.policy.compress_k = 2;

  const auto system = core::CodeCompressionSystem::from_cfg(
      std::move(graph),
      [](const cfg::BasicBlock& b) {
        return workloads::synthesize_block_bytes(b);
      },
      config);

  auto block_name = [&](cfg::BlockId id) {
    return id == cfg::kInvalidBlock ? std::string("-")
                                    : std::string(system.cfg().note(id));
  };

  const sim::RunResult result = system.run_with_events(
      cfg::figure5_trace(), [&](const sim::Event& e) {
        std::cout << "  t=" << e.time << "  "
                  << sim::event_kind_name(e.kind) << ' '
                  << block_name(e.block);
        if (e.aux != cfg::kInvalidBlock) {
          std::cout << " (from " << block_name(e.aux) << ')';
        }
        switch (e.kind) {
          case sim::EventKind::kException:
            std::cout << "   <- paper: fetch from compressed area faults";
            break;
          case sim::EventKind::kDemandDecompress:
            std::cout << "   <- paper: handler decompresses "
                      << block_name(e.block) << " into "
                      << block_name(e.block) << "'";
            break;
          case sim::EventKind::kPatch:
            std::cout << "   <- paper: branch in " << block_name(e.aux)
                      << " retargeted to the decompressed copy";
            break;
          case sim::EventKind::kDelete:
            std::cout << "   <- paper step (9): k=2 reached, delete "
                      << block_name(e.block) << "'";
            break;
          default:
            break;
        }
        std::cout << '\n';
      });

  std::cout << '\n' << result.summary();
  std::cout << "\nNote how the second entry to B1 (after step 7) raises no"
               "\nexception: the branch in B0' was already patched.\n";
  return 0;
}
