// E6: ablations of the paper's design decisions (DESIGN.md §5).
//
//  1. Remember sets + branch patching (S5)  vs  fault on every entry.
//  2. Background compression/decompression threads (S3/S4)  vs  all work
//     in the execution critical path.
//  3. Deletion-as-compression (S5: compressed originals never move)  vs
//     actually re-running the compressor on every "compress back".
#include "reproduce/common.hpp"

namespace apcc::reproduce {

void print_e6_ablation(std::ostream& out) {
  print_header(out, "E6",
               "design-decision ablations on mpeg2-like\n"
               "(pre-single, codepack, k_c = 16, k_d = 2)");
  const auto& workload = cached_workload(workloads::WorkloadKind::kMpeg2Like);

  core::SystemConfig paper;
  paper.codec = compress::CodecKind::kCodePack;
  paper.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
  paper.policy.compress_k = 16;
  paper.policy.predecompress_k = 2;

  std::vector<core::ReportRow> rows;
  rows.push_back({"paper design", run_config(workload, paper)});

  {
    core::SystemConfig ablated = paper;
    ablated.policy.use_remember_sets = false;
    rows.push_back({"- remember sets", run_config(workload, ablated)});
  }
  {
    core::SystemConfig ablated = paper;
    ablated.policy.background_compression = false;
    rows.push_back({"- background compression", run_config(workload, ablated)});
  }
  {
    core::SystemConfig ablated = paper;
    ablated.policy.background_decompression = false;
    rows.push_back(
        {"- background decompression", run_config(workload, ablated)});
  }
  {
    core::SystemConfig ablated = paper;
    ablated.policy.background_compression = false;
    ablated.policy.background_decompression = false;
    ablated.policy.use_remember_sets = false;
    rows.push_back({"- all three", run_config(workload, ablated)});
  }
  sim::RunResult recompress_bg;
  {
    core::SystemConfig ablated = paper;
    ablated.policy.recompress_for_real = true;
    recompress_bg = run_config(workload, ablated);
    rows.push_back({"real recompression (bg)", recompress_bg});
  }
  {
    // Inline + real recompression: what a single-threaded system without
    // the S5 delete-only trick would pay.
    core::SystemConfig ablated = paper;
    ablated.policy.recompress_for_real = true;
    ablated.policy.background_compression = false;
    rows.push_back(
        {"real recompression inline", run_config(workload, ablated)});
  }
  out << core::render_comparison(rows) << '\n';
  const auto paper_result = rows.front().result;
  out << "compression-helper busy cycles: paper design (delete-only) = "
      << paper_result.comp_helper_busy_cycles
      << ", real recompression = "
      << recompress_bg.comp_helper_busy_cycles << " ("
      << (paper_result.comp_helper_busy_cycles
              ? static_cast<double>(
                    recompress_bg.comp_helper_busy_cycles) /
                    static_cast<double>(
                        paper_result.comp_helper_busy_cycles)
              : 0.0)
      << "x)\n\n";
  out << "Shape checks: every ablation costs cycles vs the paper design;\n"
         "background recompression hides the codec cost from execution\n"
         "but multiplies helper busy time (the S5 delete-only design\n"
         "avoids that work entirely); inline recompression puts the full\n"
         "cost into the critical path.\n\n";
}

}  // namespace apcc::reproduce
