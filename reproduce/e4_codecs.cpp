// E4: codec comparison on real instruction bytes.
//
// The paper is codec-agnostic; this experiment grounds the choice: for
// each codec, the whole-suite compression ratio, the modelled per-byte
// compression and decompression costs, and the end-to-end memory saving
// and slowdown it buys on one kernel. bench_e4_codecs measures the same
// codecs' host throughput (BENCH_codecs.json).
#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

std::vector<E4Row> e4_rows() {
  compress::BlockBytes blocks;
  for (const auto kind : workloads::all_workload_kinds()) {
    for (const compress::ByteView block : cached_workload(kind).block_bytes) {
      blocks.push_back(block);
    }
  }
  std::vector<E4Row> rows;
  for (const auto kind : compress::all_codec_kinds()) {
    const auto codec = compress::make_codec(kind, blocks);
    core::SystemConfig config;
    config.codec = kind;
    config.policy.compress_k = 2;
    rows.push_back(
        {kind, compress::compression_ratio(*codec, blocks), codec->costs(),
         run_config(cached_workload(workloads::WorkloadKind::kGsmLike),
                    config)});
  }
  return rows;
}

void print_e4_codecs(std::ostream& out) {
  print_header(out, "E4",
               "codec comparison over all suite basic blocks\n"
               "(ratio = compressed/original; cost model feeds the\n"
               "simulator; end-to-end column = gsm-like avg saving)");
  TextTable table;
  table.row()
      .cell("codec")
      .cell("ratio")
      .cell("decomp cyc/B")
      .cell("comp cyc/B")
      .cell("gsm avg-saving")
      .cell("gsm slowdown");
  for (const E4Row& row : e4_rows()) {
    table.row()
        .cell(compress::codec_kind_name(row.codec))
        .cell(row.ratio, 3)
        .cell(row.costs.decompress_cycles_per_byte, 1)
        .cell(row.costs.compress_cycles_per_byte, 1)
        .cell(percent(row.gsm.avg_saving()))
        .cell(row.gsm.slowdown(), 3);
  }
  out << table.render() << '\n';
  out << "Baselines: null, mtf-rle and huffman are the seed-era\n"
         "baselines; none of them shrinks the suite's code.\n\n"
         "Shape checks: per-stream huffman loses to the shared model\n"
         "on basic blocks (header cost); better ratio -> more memory\n"
         "saving at the same k, in strict order over every codec.\n\n";
}

}  // namespace apcc::reproduce
