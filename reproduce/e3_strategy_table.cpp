// E3: the main results table -- every workload x every scheme.
//
// Rows: the two whole-image baselines, the two function-granularity
// baselines from the paper's related work (Debray-Evans cold code,
// Kirovski procedure cache), and APCC under its three decompression
// strategies. This is the table a DATE'05 evaluation section would
// print; the shapes to check are listed below it.
#include "reproduce/common.hpp"
#include "baselines/baselines.hpp"
#include "baselines/function_compression.hpp"

namespace apcc::reproduce {

namespace {

void print_workload_table(std::ostream& out,
                          const workloads::Workload& workload) {
  out << "--- " << workload.name << " ("
      << human_bytes(workload.image_bytes()) << ", "
      << workload.trace.size() << " entries) ---\n";
  std::vector<core::ReportRow> rows;

  rows.push_back({"no-compression",
                  baselines::run_no_compression(workload.cfg, workload.trace,
                                                runtime::CostModel{})});
  {
    core::SystemConfig config;
    const auto system =
        core::CodeCompressionSystem::from_workload(workload, config);
    rows.push_back({"load-time-decomp",
                    baselines::run_load_time_decompression(
                        workload.cfg, system.image(), workload.trace,
                        runtime::CostModel{})});
  }
  {
    baselines::FunctionCompressionConfig config;
    config.mode = baselines::FunctionCompressionConfig::Mode::kColdOnly;
    rows.push_back({"cold-functions (DE)",
                    baselines::run_function_compression(workload, config)});
  }
  {
    baselines::FunctionCompressionConfig config;
    config.mode =
        baselines::FunctionCompressionConfig::Mode::kProcedureCache;
    config.cache_bytes = 8 * 1024;
    rows.push_back({"proc-cache (K)",
                    baselines::run_function_compression(workload, config)});
  }
  for (const Cell& cell : e3_apcc_cells()) {
    rows.push_back({cell.label, run_config(workload, cell.config)});
  }
  out << core::render_comparison(rows) << '\n';
}

}  // namespace

std::vector<Cell> e3_apcc_cells() {
  std::vector<Cell> cells;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    Cell cell;
    cell.label = std::string("apcc/") + runtime::strategy_name(strategy);
    // CodePack-style hardware-assisted decoding: the configuration the
    // pre-decompression thread model presumes. k_c must cover the hot
    // loops' circumference or every iteration re-decompresses its body;
    // E1/E2 sweep k itself.
    cell.config.codec = compress::CodecKind::kCodePack;
    cell.config.policy.strategy = strategy;
    cell.config.policy.compress_k = 16;
    cell.config.policy.predecompress_k = 4;
    cells.push_back(std::move(cell));
  }
  return cells;
}

void print_e3_strategy_table(std::ostream& out) {
  print_header(out, "E3",
               "per-benchmark comparison: baselines vs APCC\n"
               "(k_c = 16, k_d = 4, codepack codec)");
  for (const auto kind : workloads::all_workload_kinds()) {
    print_workload_table(out, cached_workload(kind));
  }
  out << "Shape checks:\n"
         "  * apcc on-demand peak/avg memory < no-compression and <\n"
         "    load-time (those two hold the full uncompressed image).\n"
         "    Not reproduced for pre-decompression (see\n"
         "    docs/REPRODUCTION.md): pre-all's peak exceeds the image\n"
         "    on every kernel (-47% to -53% peak saving), and\n"
         "    pre-single's on six of the eight;\n"
         "  * where cold code concentrates inside hot functions (adpcm,\n"
         "    mpeg2, g721), apcc's avg memory beats the cold-functions\n"
         "    baseline -- the paper's granularity argument (S6); where\n"
         "    whole cold *functions* dominate (gsm, jpeg), both schemes\n"
         "    compress the same bytes and land close;\n"
         "  * apcc pre-single cycles < apcc on-demand cycles on every\n"
         "    kernel: the decompression thread hides latency (paper\n"
         "    S4). Not reproduced for pre-all on crc-like, which takes\n"
         "    15,551 cycles against on-demand's 15,363.\n\n";
}

}  // namespace apcc::reproduce
