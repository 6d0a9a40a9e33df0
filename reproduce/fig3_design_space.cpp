// Figure 3 reproduction: the decompression design space.
//
// The paper's Figure 3 is the taxonomy {on-demand} vs {k-edge pre-
// decompress-all, k-edge pre-decompress-single}; this table instantiates
// every point of that space (x a k sweep) on one workload and prints the
// memory/performance grid, which is the quantitative content the taxonomy
// implies. Compression always uses the k-edge algorithm, as in the paper.
#include "reproduce/common.hpp"

namespace apcc::reproduce {

std::vector<Cell> fig3_cells() {
  std::vector<Cell> cells;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
      Cell cell;
      cell.label = std::string(runtime::strategy_name(strategy)) +
                   "/k=" + std::to_string(k);
      cell.config.policy.strategy = strategy;
      cell.config.policy.compress_k = k;
      cell.config.policy.predecompress_k = k;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

void print_fig3_design_space(std::ostream& out) {
  print_header(out, "Figure 3",
               "the decompression design space, instantiated on the\n"
               "gsm-like workload (codec: shared huffman)");
  const auto& workload = cached_workload(kFig3Workload);
  std::vector<core::ReportRow> rows;
  for (const Cell& cell : fig3_cells()) {
    rows.push_back({cell.label, run_config(workload, cell.config)});
  }
  out << core::render_comparison(rows) << '\n';
  out << "Shape check (paper S4): on-demand pays the most\n"
         "critical-path decompression. Not reproduced (see\n"
         "docs/REPRODUCTION.md): the paper has pre-all favour\n"
         "performance and pre-single favour memory; under this\n"
         "cost regime pre-single is faster than pre-all at every k.\n\n";
}

}  // namespace apcc::reproduce
