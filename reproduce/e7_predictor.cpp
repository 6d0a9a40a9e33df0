// E7: predictor quality for pre-decompress-single.
//
// The paper predicts "the block most likely to be reached" but does not
// fix the predictor. This experiment compares the three implementations
// (profile / static-heuristic / oracle) by useful-arrival rate and by the
// end-to-end cycle cost, per workload.
#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

void print_e7_predictor(std::ostream& out) {
  print_header(out, "E7",
               "pre-decompress-single predictor comparison\n"
               "(k_c = 4, k_d = 3; useful = hit or partial-hide)");
  TextTable table;
  table.row()
      .cell("workload")
      .cell("predictor")
      .cell("issued")
      .cell("useful")
      .cell("wasted")
      .cell("useful-rate")
      .cell("slowdown");
  for (const auto kind : workloads::all_workload_kinds()) {
    const auto& workload = cached_workload(kind);
    for (const auto predictor :
         {runtime::PredictorKind::kStatic, runtime::PredictorKind::kProfile,
          runtime::PredictorKind::kOracle}) {
      core::SystemConfig config;
      config.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
      config.policy.compress_k = 4;
      config.policy.predecompress_k = 3;
      config.policy.predictor = predictor;
      const auto r = run_config(workload, config);
      const std::uint64_t useful =
          r.predecompress_hits + r.predecompress_partial;
      table.row()
          .cell(workload.name)
          .cell(runtime::predictor_name(predictor))
          .cell(r.predecompressions)
          .cell(useful)
          .cell(r.wasted_predecompressions)
          .cell(percent(r.predecompressions
                            ? static_cast<double>(useful) /
                                  static_cast<double>(r.predecompressions)
                            : 0.0))
          .cell(r.slowdown(), 3);
    }
  }
  out << table.render() << '\n';
  out << "Shape check: oracle >= profile >= static on useful-rate\n"
         "(the oracle is the upper bound; the profile predictor is\n"
         "what the paper's profile-driven approach achieves).\n\n";
}

}  // namespace apcc::reproduce
