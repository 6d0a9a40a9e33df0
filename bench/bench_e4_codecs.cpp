// E4: codec host throughput on real instruction bytes.
//
// For each codec, the actual compress and decompress throughput on
// basic-block-sized inputs (every basic block of the suite), plus the
// shared-Huffman decoder A/B. tools/run_benches.sh collects every row
// into BENCH_codecs.json; E4's ratio and cost-model table is
// `apcc_reproduce e4_codecs` (reproduce/e4_codecs.cpp).
#include <benchmark/benchmark.h>

#include "compress/huffman.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace apcc;

const compress::BlockBytes& all_suite_blocks() {
  static const compress::BlockBytes blocks = [] {
    compress::BlockBytes out;
    for (const auto kind : workloads::all_workload_kinds()) {
      const auto w = workloads::make_workload(kind);
      for (const compress::ByteView block : w.block_bytes) {
        out.push_back(block);
      }
    }
    return out;
  }();
  return blocks;
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

}  // namespace

BENCHMARK_MAIN();
