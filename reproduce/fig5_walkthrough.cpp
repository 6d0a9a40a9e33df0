// Figure 5 reproduction: the nine-step memory-image walkthrough.
//
// Replays the access pattern B0, B1, B0, B1, B3 with k = 2 on the exact
// Figure 5 CFG and prints the event sequence annotated with the paper's
// step numbers, plus the decompressed-copy population after each step
// (matching the figure's memory-image snapshots).
#include "reproduce/common.hpp"
#include "cfg/paper_graphs.hpp"
#include "support/table.hpp"
#include "workloads/synth_bytes.hpp"

namespace apcc::reproduce {

void print_fig5_walkthrough(std::ostream& out) {
  print_header(out, "Figure 5",
               "memory image evolution for the access pattern\n"
               "B0, B1, B0, B1, B3 with the 2-edge algorithm");

  cfg::Cfg graph = cfg::figure5_cfg();
  core::SystemConfig config;
  config.policy.strategy = runtime::DecompressionStrategy::kOnDemand;
  config.policy.compress_k = 2;
  const auto system = core::CodeCompressionSystem::from_cfg(
      std::move(graph),
      [](const cfg::BasicBlock& b) {
        return workloads::synthesize_block_bytes(b);
      },
      config);

  std::vector<bool> resident(4, false);
  auto population = [&] {
    std::string s;
    for (std::size_t b = 0; b < resident.size(); ++b) {
      if (resident[b]) s += "B" + std::to_string(b) + "' ";
    }
    return s.empty() ? std::string("-") : s;
  };

  TextTable table;
  table.row()
      .cell("t")
      .cell("event")
      .cell("decompressed copies")
      .cell("paper step");
  const auto result = system.run_with_events(
      cfg::figure5_trace(), [&](const sim::Event& e) {
        std::string step;
        switch (e.kind) {
          case sim::EventKind::kException:
            step = e.block == 0 ? "(1)/(5)" : e.block == 1 ? "(3)" : "(8)";
            break;
          case sim::EventKind::kDemandDecompress:
            resident[e.block] = true;
            step = e.block == 0 ? "(2)" : e.block == 1 ? "(4)" : "(9)";
            break;
          case sim::EventKind::kPatch:
            step = e.block == 1 && e.aux == 0   ? "(4)"
                   : e.block == 0 && e.aux == 1 ? "(6)"
                                                : "(9)";
            break;
          case sim::EventKind::kDelete:
            resident[e.block] = false;
            step = "(9)";
            break;
          case sim::EventKind::kBlockEnter:
            step = "";
            break;
          default:
            break;
        }
        table.row()
            .cell(e.time)
            .cell(std::string(sim::event_kind_name(e.kind)) + " B" +
                  std::to_string(e.block))
            .cell(population())
            .cell(step);
      });
  out << table.render() << '\n';
  out << "final: exceptions=" << result.exceptions
      << " (paper: steps 1, 3, 5, 8), decompressions="
      << result.demand_decompressions
      << " (B0, B1, B3), deletions=" << result.deletions
      << " (B0' at step 9), step 7 exception-free: "
      << (result.exceptions == 4 ? "yes" : "NO") << "\n\n";
}

}  // namespace apcc::reproduce
