// E1: memory saving vs the compression-side k, across the suite.
//
// The paper (§3): "if we use a very small k value, we aggressively
// compress basic blocks ... beneficial from a memory space viewpoint";
// "a very large k value ... increases the memory space consumption."
// This table quantifies that curve per workload: peak and time-averaged
// occupancy relative to the uncompressed image.
#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

void print_e1_k_sweep_memory(std::ostream& out) {
  print_header(out, "E1 (implied by S3)",
               "memory saving vs k, on-demand decompression,\n"
               "shared-huffman codec; saving is vs the uncompressed"
               " image");
  TextTable table;
  table.row()
      .cell("workload")
      .cell("k=1 avg")
      .cell("k=2 avg")
      .cell("k=8 avg")
      .cell("k=32 avg")
      .cell("k=128 avg")
      .cell("k=128 peak");
  for (const auto kind : workloads::all_workload_kinds()) {
    const auto& workload = cached_workload(kind);
    auto& row = table.row().cell(workload.name);
    sim::RunResult last;
    for (const std::uint32_t k : {1u, 2u, 8u, 32u, 128u}) {
      core::SystemConfig config;
      config.policy.compress_k = k;
      last = run_config(workload, config);
      row.cell(percent(last.avg_saving()));
    }
    row.cell(percent(last.peak_saving()));
  }
  out << table.render() << '\n';
  out << "Shape check: average saving decreases monotonically with k\n"
         "(aggressive compression keeps fewer copies resident).\n\n";
}

}  // namespace apcc::reproduce
