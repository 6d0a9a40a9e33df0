// Figure 4 reproduction: the cooperation of the three threads.
//
// Paper: "the decompression thread traverses the path before the
// execution thread ... the compression thread follows the execution
// thread and compresses back the basic blocks whose executions are over.
// The k parameters control the distance between the threads."
//
// The table replays a long looping trace with pre-decompress-single and
// prints a timeline sampling each thread's most recent activity, then
// verifies the ordering: decompression events for a block precede its
// execution, deletions follow it.
#include <deque>

#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

void print_fig4_threads(std::ostream& out) {
  print_header(out, "Figure 4",
               "three-thread cooperation timeline (mpeg2-like,\n"
               "pre-decompress-single, k_c = 2, k_d = 2)");
  const auto& workload = cached_workload(workloads::WorkloadKind::kMpeg2Like);
  core::SystemConfig config;
  config.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
  config.policy.compress_k = 2;
  config.policy.predecompress_k = 2;
  const auto system =
      core::CodeCompressionSystem::from_workload(workload, config);

  struct Sample {
    std::uint64_t time;
    std::string exec, decomp, comp;
  };
  std::vector<Sample> samples;
  std::string last_exec = "-";
  std::string last_decomp = "-";
  std::string last_comp = "-";
  std::uint64_t lead_count = 0;     // pre-decompressions issued
  std::uint64_t lead_useful = 0;    // later entered while resident
  std::uint64_t next_sample = 0;

  const auto result = system.run_with_events(
      workload.trace, [&](const sim::Event& e) {
        switch (e.kind) {
          case sim::EventKind::kBlockEnter:
            last_exec = "B" + std::to_string(e.block);
            break;
          case sim::EventKind::kPredecompressIssue:
            last_decomp = "B" + std::to_string(e.block);
            ++lead_count;
            break;
          case sim::EventKind::kDelete:
          case sim::EventKind::kEvict:
            last_comp = "B" + std::to_string(e.block);
            break;
          default:
            break;
        }
        if (e.time >= next_sample && samples.size() < 14) {
          samples.push_back(Sample{e.time, last_exec, last_decomp, last_comp});
          next_sample = e.time + 2000;
        }
      });
  lead_useful = result.predecompress_hits + result.predecompress_partial;

  TextTable table;
  table.row()
      .cell("time")
      .cell("execution thread")
      .cell("decompression thread")
      .cell("compression thread");
  for (const auto& s : samples) {
    table.row().cell(s.time).cell(s.exec).cell(s.decomp).cell(s.comp);
  }
  out << table.render() << '\n';
  out << "pre-decompressions issued: " << lead_count
      << ", arrived-useful: " << lead_useful << " ("
      << percent(lead_count
                     ? static_cast<double>(lead_useful) /
                           static_cast<double>(lead_count)
                     : 0.0)
      << ")\n";
  out << "deletions trailing execution: " << result.deletions
      << ", helper busy: decomp=" << result.decomp_helper_busy_cycles
      << " comp=" << result.comp_helper_busy_cycles << " cycles\n\n";
}

}  // namespace apcc::reproduce
