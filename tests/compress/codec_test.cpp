// Parameterised codec tests: the round-trip property must hold for every
// codec on every input class, and trained codecs must actually compress
// instruction-like data.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "compress/codec.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace apcc::compress {
namespace {

std::vector<Bytes> instruction_training_data() {
  // Real assembled code from the suite gives realistic byte statistics.
  static const std::vector<Bytes> data = [] {
    const auto w = workloads::make_workload(
        workloads::WorkloadKind::kAdpcmLike);
    return w.block_bytes;
  }();
  return data;
}

class CodecRoundTrip : public ::testing::TestWithParam<CodecKind> {
 protected:
  std::unique_ptr<Codec> codec() const {
    const auto training = instruction_training_data();
    return make_codec(GetParam(), training);
  }

  static void expect_roundtrip(const Codec& c, const Bytes& input) {
    const Bytes compressed = c.compress(input);
    const Bytes output = c.decompress(compressed, input.size());
    ASSERT_EQ(output, input) << c.name() << " failed on " << input.size()
                             << " bytes";
  }
};

TEST_P(CodecRoundTrip, EmptyInput) {
  const auto c = codec();
  expect_roundtrip(*c, {});
}

TEST_P(CodecRoundTrip, SingleByte) {
  const auto c = codec();
  expect_roundtrip(*c, {0x42});
}

TEST_P(CodecRoundTrip, AllZeros) {
  const auto c = codec();
  expect_roundtrip(*c, Bytes(1000, 0));
}

TEST_P(CodecRoundTrip, AllDistinctBytes) {
  Bytes input(256);
  for (int i = 0; i < 256; ++i) input[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  const auto c = codec();
  expect_roundtrip(*c, input);
}

TEST_P(CodecRoundTrip, RepeatingPattern) {
  Bytes input;
  for (int i = 0; i < 500; ++i) {
    input.push_back(static_cast<std::uint8_t>(i % 7));
  }
  const auto c = codec();
  expect_roundtrip(*c, input);
}

TEST_P(CodecRoundTrip, AlternatingBytes) {
  Bytes input;
  for (int i = 0; i < 300; ++i) {
    input.push_back(i % 2 == 0 ? 0xaa : 0x55);
  }
  const auto c = codec();
  expect_roundtrip(*c, input);
}

TEST_P(CodecRoundTrip, RandomBytesManySizes) {
  apcc::Rng rng(99);
  const auto c = codec();
  for (const std::size_t size : {1u, 2u, 3u, 5u, 17u, 64u, 255u, 1024u}) {
    Bytes input(size);
    for (auto& b : input) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    expect_roundtrip(*c, input);
  }
}

TEST_P(CodecRoundTrip, RealInstructionBlocks) {
  const auto c = codec();
  for (const auto& block : instruction_training_data()) {
    expect_roundtrip(*c, block);
  }
}

TEST_P(CodecRoundTrip, OddLengthInput) {
  // Exercises the halfword codec's trailing-byte path in particular.
  Bytes input = {1, 2, 3, 4, 5, 6, 7};
  const auto c = codec();
  expect_roundtrip(*c, input);
}

TEST_P(CodecRoundTrip, CostsArePositive) {
  const auto c = codec();
  const auto& costs = c->costs();
  EXPECT_GT(costs.decompress_cycles(100), 0u);
  EXPECT_GT(costs.compress_cycles(100), 0u);
  EXPECT_GT(costs.decompress_cycles(1000), costs.decompress_cycles(10));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRoundTrip, ::testing::ValuesIn(all_codec_kinds()),
    [](const ::testing::TestParamInfo<CodecKind>& info) {
      std::string name = codec_kind_name(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ------------------------------------------------- non-parameterised

TEST(CodecFactory, NamesMatchKinds) {
  EXPECT_STREQ(codec_kind_name(CodecKind::kNull), "null");
  EXPECT_STREQ(codec_kind_name(CodecKind::kLzss), "lzss");
  EXPECT_STREQ(codec_kind_name(CodecKind::kFieldSplit), "field-split");
  // all_codec_kinds() is every kind once, in enum order, and each
  // factory codec reports the kind's own name (the CLI and the wire
  // look codecs up by it).
  std::set<std::string> names;
  std::size_t index = 0;
  for (const CodecKind kind : all_codec_kinds()) {
    EXPECT_EQ(static_cast<std::size_t>(kind), index++);
    const auto c = make_codec(kind, instruction_training_data());
    EXPECT_EQ(c->name(), codec_kind_name(kind));
    EXPECT_TRUE(names.insert(codec_kind_name(kind)).second)
        << codec_kind_name(kind);
  }
  EXPECT_EQ(names.size(), 7u);
}

TEST(CodecRatios, TrainedCodecsCompressInstructionData) {
  const auto training = instruction_training_data();
  for (const CodecKind kind :
       {CodecKind::kSharedHuffman, CodecKind::kLzss, CodecKind::kCodePack,
        CodecKind::kFieldSplit}) {
    const auto c = make_codec(kind, training);
    const double ratio = compression_ratio(*c, training);
    EXPECT_LT(ratio, 0.95) << c->name()
                           << " should compress instruction bytes";
    EXPECT_GT(ratio, 0.1) << c->name() << " ratio implausibly small";
  }
}

TEST(CodecRatios, NullCodecRatioIsOne) {
  const auto c = make_codec(CodecKind::kNull);
  const auto training = instruction_training_data();
  EXPECT_DOUBLE_EQ(compression_ratio(*c, training), 1.0);
}

TEST(CodecRatios, SharedHuffmanBeatsPerStreamOnSmallBlocks) {
  const auto training = instruction_training_data();
  const auto shared = make_codec(CodecKind::kSharedHuffman, training);
  const auto per_stream = make_codec(CodecKind::kHuffman, training);
  // Per-stream Huffman pays a 128-byte table per block; on basic blocks
  // the shared model must win.
  EXPECT_LT(compression_ratio(*shared, training),
            compression_ratio(*per_stream, training));
}

TEST(CodecCosts, ScalesWithOriginalSize) {
  CodecCosts costs;
  costs.decompress_cycles_per_byte = 2.0;
  costs.decompress_fixed_cycles = 10;
  EXPECT_EQ(costs.decompress_cycles(0), 10u);
  EXPECT_EQ(costs.decompress_cycles(100), 210u);
}

TEST(CorruptStreams, TruncatedStreamsThrowNotCrash) {
  const auto training = instruction_training_data();
  for (const CodecKind kind : all_codec_kinds()) {
    const auto c = make_codec(kind, training);
    const Bytes input(64, 0x3c);
    Bytes compressed = c->compress(input);
    ASSERT_FALSE(compressed.empty());
    compressed.resize(compressed.size() / 2);  // truncate
    EXPECT_THROW((void)c->decompress(compressed, input.size()),
                 apcc::CheckError)
        << c->name();
  }
}

}  // namespace
}  // namespace apcc::compress
