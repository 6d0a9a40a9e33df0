// E9 (extension): victim-selection policies for the §2 budget mode.
//
// The paper suggests "LRU or a similar strategy"; this experiment fills
// in the comparison: LRU vs MRU (strawman) vs largest-first (fewest
// evictions per freed byte), under a tight budget.
#include <algorithm>

#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

void print_e9_eviction(std::ostream& out) {
  print_header(out, "E9 (extension)",
               "budget-mode victim policies (jpeg-like, pre-single,\n"
               "k_c = 8, budget = 50% of the unbounded working set)");
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
  const std::uint64_t budget = std::max(ws / 2, largest_executed + 8);
  out << "unbounded working set " << human_bytes(ws) << ", budget "
      << human_bytes(budget) << "\n\n";

  TextTable table;
  table.row()
      .cell("victim policy")
      .cell("cycles")
      .cell("slowdown")
      .cell("evictions")
      .cell("re-decompressions")
      .cell("peak-mem");
  for (const auto policy :
       {runtime::VictimPolicy::kLru, runtime::VictimPolicy::kMru,
        runtime::VictimPolicy::kLargest}) {
    core::SystemConfig config = base;
    config.policy.memory_budget = budget;
    config.policy.victim_policy = policy;
    const auto r = run_config(workload, config);
    table.row()
        .cell(runtime::victim_policy_name(policy))
        .cell(r.total_cycles)
        .cell(r.slowdown(), 3)
        .cell(r.evictions)
        .cell(r.demand_decompressions + r.predecompressions)
        .cell(human_bytes(r.peak_occupancy_bytes));
  }
  out << table.render() << '\n';
  out << "Shape check: LRU beats MRU on loop-structured code (the\n"
         "classic result); largest-first needs the fewest evictions\n"
         "but sacrifices big hot blocks.\n\n";
}

}  // namespace apcc::reproduce
