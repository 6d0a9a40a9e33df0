// E5: the §2 memory-budget mode with LRU victim selection.
//
// Paper: "check before each basic block decompression whether this
// decompression could result in exceeding the maximum allowable memory
// space consumption, and if so, compress one of the decompressed basic
// blocks ... One could use LRU or a similar strategy."
//
// The table sweeps the budget from the unbounded working set down to
// barely-one-block and prints cycles/evictions per cap.
#include <algorithm>

#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

void print_e5_budget_lru(std::ostream& out) {
  print_header(out, "E5 (S2 budget mode)",
               "cycles vs decompressed-area budget, LRU eviction\n"
               "(jpeg-like, pre-single, k_c = 8)");
  const auto& workload = cached_workload(workloads::WorkloadKind::kJpegLike);

  core::SystemConfig base;
  base.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
  base.policy.compress_k = 8;
  const auto unbounded = run_config(workload, base);
  const std::uint64_t ws =
      unbounded.peak_occupancy_bytes - unbounded.compressed_area_bytes;
  std::uint64_t largest_executed = 0;
  for (const auto b : workload.trace) {
    largest_executed =
        std::max(largest_executed, workload.cfg.block(b).size_bytes());
  }
  out << "unbounded working set: " << human_bytes(ws)
      << ", largest executed block: " << human_bytes(largest_executed)
      << "\n\n";

  TextTable table;
  table.row()
      .cell("budget")
      .cell("budget/WS")
      .cell("cycles")
      .cell("slowdown")
      .cell("evictions")
      .cell("dropped-req")
      .cell("peak-mem");
  for (const double fraction : {1.0, 0.8, 0.6, 0.4, 0.3, 0.2}) {
    const std::uint64_t budget = std::max(
        static_cast<std::uint64_t>(static_cast<double>(ws) * fraction),
        largest_executed + 8);
    core::SystemConfig config = base;
    config.policy.memory_budget = budget;
    const auto r = run_config(workload, config);
    table.row()
        .cell(human_bytes(budget))
        .cell(percent(static_cast<double>(budget) / static_cast<double>(ws)))
        .cell(r.total_cycles)
        .cell(r.slowdown(), 3)
        .cell(r.evictions)
        .cell(r.dropped_requests)
        .cell(human_bytes(r.peak_occupancy_bytes));
  }
  out << table.render() << '\n';
  out << "Shape check: tightening the budget raises evictions and\n"
         "cycles monotonically while the cap is respected.\n\n";
}

}  // namespace apcc::reproduce
