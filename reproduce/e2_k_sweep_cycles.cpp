// E2: performance overhead vs the compression-side k, across the suite.
//
// The dual of E1 (paper §3): small k causes "frequent compressions and
// decompressions ... a large performance penalty for blocks with high
// temporal reuse"; large k "is preferable from the performance angle".
#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

void print_e2_k_sweep_cycles(std::ostream& out) {
  print_header(out, "E2 (implied by S3)",
               "execution slowdown vs k (on-demand decompression);\n"
               "1.000 = the uncompressed-image baseline");
  TextTable table;
  table.row()
      .cell("workload")
      .cell("k=1")
      .cell("k=2")
      .cell("k=8")
      .cell("k=32")
      .cell("k=128")
      .cell("k=128 re-decomp");
  for (const auto kind : workloads::all_workload_kinds()) {
    const auto& workload = cached_workload(kind);
    auto& row = table.row().cell(workload.name);
    sim::RunResult last;
    for (const std::uint32_t k : {1u, 2u, 8u, 32u, 128u}) {
      core::SystemConfig config;
      config.policy.compress_k = k;
      last = run_config(workload, config);
      row.cell(last.slowdown(), 3);
    }
    row.cell(last.demand_decompressions);
  }
  out << table.render() << '\n';
  out << "Shape check: slowdown decreases monotonically with k; the\n"
         "k=1 column pays a decompression on nearly every revisit.\n\n";
}

}  // namespace apcc::reproduce
