// E4: codec comparison on real instruction bytes.
//
// The paper is codec-agnostic; this experiment grounds the choice: for
// each codec, the whole-suite compression ratio, the modelled per-byte
// decompression cost, and -- via google-benchmark -- the *actual* host
// throughput of compress/decompress on basic-block-sized inputs.
#include "bench/bench_common.hpp"
#include "compress/huffman.hpp"
#include "support/table.hpp"

namespace {

using namespace apcc;

const std::vector<compress::Bytes>& all_suite_blocks() {
  static const std::vector<compress::Bytes> blocks = [] {
    std::vector<compress::Bytes> out;
    for (const auto kind : workloads::all_workload_kinds()) {
      const auto& w = bench::cached_workload(kind);
      out.insert(out.end(), w.block_bytes.begin(), w.block_bytes.end());
    }
    return out;
  }();
  return blocks;
}

void print_tables() {
  bench::print_header("E4",
                      "codec comparison over all suite basic blocks\n"
                      "(ratio = compressed/original; cost model feeds the\n"
                      "simulator; end-to-end column = gsm-like avg saving)");
  const auto& blocks = all_suite_blocks();
  TextTable table;
  table.row()
      .cell("codec")
      .cell("ratio")
      .cell("decomp cyc/B")
      .cell("comp cyc/B")
      .cell("gsm avg-saving")
      .cell("gsm slowdown");
  for (const auto kind : compress::all_codec_kinds()) {
    const auto codec = compress::make_codec(kind, blocks);
    const double ratio = compress::compression_ratio(*codec, blocks);

    core::SystemConfig config;
    config.codec = kind;
    config.policy.compress_k = 2;
    const auto result = bench::run_config(
        bench::cached_workload(workloads::WorkloadKind::kGsmLike), config);

    table.row()
        .cell(codec->name().data())
        .cell(ratio, 3)
        .cell(codec->costs().decompress_cycles_per_byte, 1)
        .cell(codec->costs().compress_cycles_per_byte, 1)
        .cell(percent(result.avg_saving()))
        .cell(result.slowdown(), 3);
  }
  std::cout << table.render() << '\n';
  std::cout << "Baselines: null, mtf-rle and huffman are the seed-era\n"
               "baselines; none of them shrinks the suite's code.\n\n"
               "Shape checks: per-stream huffman loses to the shared model\n"
               "on basic blocks (header cost); better ratio -> more memory\n"
               "saving at the same k, in strict order over every codec.\n\n";
}

/// The codec a bm_compress / bm_decompress argument names: an index
/// into all_codec_kinds(), never an enum value.
compress::CodecKind codec_arg(const benchmark::State& state) {
  return compress::all_codec_kinds()[static_cast<std::size_t>(
      state.range(0))];
}

void bm_compress(benchmark::State& state) {
  const auto kind = codec_arg(state);
  const auto& blocks = all_suite_blocks();
  const auto codec = compress::make_codec(kind, blocks);
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto& block = blocks[i++ % blocks.size()];
    benchmark::DoNotOptimize(codec->compress(block));
    bytes += block.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetLabel(codec->name().data());
}

void bm_decompress(benchmark::State& state) {
  const auto kind = codec_arg(state);
  const auto& blocks = all_suite_blocks();
  const auto codec = compress::make_codec(kind, blocks);
  std::vector<compress::Bytes> compressed;
  compressed.reserve(blocks.size());
  for (const auto& b : blocks) compressed.push_back(codec->compress(b));
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const std::size_t j = i++ % blocks.size();
    benchmark::DoNotOptimize(
        codec->decompress(compressed[j], blocks[j].size()));
    bytes += blocks[j].size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetLabel(codec->name().data());
}

const int kLastCodec =
    static_cast<int>(compress::all_codec_kinds().size()) - 1;
BENCHMARK(bm_compress)->DenseRange(0, kLastCodec);
BENCHMARK(bm_decompress)->DenseRange(0, kLastCodec);

// Decoder-level A/B on identical bitstreams: the two-level lookup table
// against the bit-at-a-time first-code/offset reference decoder. This
// isolates the symbol-decode loop from header parsing and allocation.
void bm_huffman_decode(benchmark::State& state) {
  const bool use_table = state.range(0) != 0;
  const auto& blocks = all_suite_blocks();
  const compress::SharedHuffmanCodec codec(blocks);
  std::vector<compress::Bytes> compressed;
  compressed.reserve(blocks.size());
  for (const auto& b : blocks) compressed.push_back(codec.compress(b));
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  compress::Bytes out;
  for (auto _ : state) {
    const std::size_t j = i++ % blocks.size();
    out.clear();
    apcc::BitReader reader(compressed[j]);
    for (std::size_t n = 0; n < blocks[j].size(); ++n) {
      out.push_back(use_table ? codec.code().decode(reader)
                              : codec.code().decode_reference(reader));
    }
    benchmark::DoNotOptimize(out.data());
    bytes += blocks[j].size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetLabel(use_table ? "table" : "reference");
}
BENCHMARK(bm_huffman_decode)->Arg(0)->Arg(1);

// Encoder-level A/B on identical inputs: batched (code,len)-pair
// concatenation through the 64-bit accumulator (encode_all, what
// compress() ships) against the per-symbol write_bits reference. Both
// emit bit-identical streams (tests/compress/huffman_test.cpp pins
// that); this isolates the symbol-encode loop from training and
// allocation, the compress cost a warm Service artifact cache pays
// exactly once per (workload, codec).
void bm_huffman_encode(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const auto& blocks = all_suite_blocks();
  const compress::SharedHuffmanCodec codec(blocks);
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto& block = blocks[i++ % blocks.size()];
    apcc::BitWriter writer;
    if (batched) {
      codec.code().encode_all(writer, block);
    } else {
      for (const std::uint8_t b : block) codec.code().encode(writer, b);
    }
    benchmark::DoNotOptimize(writer.take());
    bytes += block.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetLabel(batched ? "batched" : "per-symbol");
}
BENCHMARK(bm_huffman_encode)->Arg(0)->Arg(1);

}  // namespace

APCC_BENCH_MAIN(print_tables)
