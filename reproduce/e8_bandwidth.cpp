// E8 (extension): decompression bandwidth vs pre-decompression payoff.
//
// A finding from building the simulator: the paper's pre-decompression
// thread only wins when decompression bandwidth keeps up with the request
// stream; with one slow software decoder the helper queue saturates, the
// execution thread's demand path wins the race, and pre-all degenerates
// to on-demand-with-overhead. This table quantifies that by sweeping the
// number of helper units for both a slow (shared-huffman) and a fast
// (codepack) decoder.
#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

void print_e8_bandwidth(std::ostream& out) {
  print_header(out, "E8 (extension)",
               "pre-decompress-all payoff vs decompression\n"
               "bandwidth (mpeg2-like, k_c = 16, k_d = 4)");
  const auto& workload = cached_workload(workloads::WorkloadKind::kMpeg2Like);

  TextTable table;
  table.row()
      .cell("codec")
      .cell("units")
      .cell("cycles")
      .cell("slowdown")
      .cell("stall-cyc")
      .cell("demand-races")
      .cell("useful-rate");
  for (const auto codec :
       {compress::CodecKind::kSharedHuffman, compress::CodecKind::kCodePack}) {
    for (const unsigned units : {1u, 2u, 4u}) {
      core::SystemConfig config;
      config.codec = codec;
      config.policy.strategy = runtime::DecompressionStrategy::kPreAll;
      config.policy.compress_k = 16;
      config.policy.predecompress_k = 4;
      config.policy.decompress_units = units;
      const auto r = run_config(workload, config);
      const std::uint64_t useful =
          r.predecompress_hits + r.predecompress_partial;
      table.row()
          .cell(compress::codec_kind_name(codec))
          .cell(std::uint64_t{units})
          .cell(r.total_cycles)
          .cell(r.slowdown(), 3)
          .cell(r.stall_cycles)
          .cell(r.demand_decompressions)
          .cell(percent(r.predecompressions
                            ? static_cast<double>(useful) /
                                  static_cast<double>(r.predecompressions)
                            : 0.0));
    }
  }
  out << table.render() << '\n';
  out << "Shape check: more units -> fewer demand races and stalls;\n"
         "the fast decoder needs fewer units to make pre-all pay.\n\n";
}

}  // namespace apcc::reproduce
