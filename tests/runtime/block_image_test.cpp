// BlockImage tests: construction, per-block round trips through the
// flat arena, exact resident bytes, ratios and the footprint.
#include <gtest/gtest.h>

#include <algorithm>

#include "cfg/paper_graphs.hpp"
#include "isa/isa.hpp"
#include "runtime/block_image.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"
#include "workloads/synth_bytes.hpp"

namespace apcc::runtime {
namespace {

BlockImage make_image(compress::CodecKind kind) {
  cfg::Cfg g = cfg::figure2_cfg();
  return make_block_image(
      g,
      [](const cfg::BasicBlock& b) {
        return workloads::synthesize_block_bytes(b);
      },
      kind);
}

TEST(BlockImage, BlockCountMatchesCfg) {
  const BlockImage image = make_image(compress::CodecKind::kSharedHuffman);
  EXPECT_EQ(image.block_count(), 10u);
}

TEST(BlockImage, EveryBlockRoundTrips) {
  const cfg::Cfg g = cfg::figure2_cfg();
  for (const auto kind : compress::all_codec_kinds()) {
    const BlockImage image = make_image(kind);
    for (cfg::BlockId b = 0; b < image.block_count(); ++b) {
      // The compressed view reads the arena in place and decodes to the
      // block's own bytes; verify_block checks the same against them,
      // and refuses any other bytes.
      const compress::Bytes want =
          workloads::synthesize_block_bytes(g.block(b));
      EXPECT_NO_THROW(image.verify_block(b, want)) << codec_kind_name(kind);
      EXPECT_EQ(image.codec().decompress(image.compressed(b), want.size()),
                want)
          << codec_kind_name(kind) << " block " << b;
      compress::Bytes wrong = want;
      wrong.push_back(0);
      EXPECT_THROW(image.verify_block(b, wrong), apcc::CheckError)
          << codec_kind_name(kind) << " block " << b;
    }
  }
}

TEST(BlockImage, ResidentBytesAreTheFlatArrays) {
  // One arena of every compressed byte and two (B+1)-entry offset
  // tables, with no slack: exactly what an artifact budget is charged.
  // The original bytes are not kept.
  for (const auto kind : compress::all_codec_kinds()) {
    const BlockImage image = make_image(kind);
    std::uint64_t compressed = 0;
    for (cfg::BlockId b = 0; b < image.block_count(); ++b) {
      compressed += image.compressed_size(b);
    }
    const std::uint64_t offsets =
        2 * (image.block_count() + 1) * sizeof(std::uint32_t);
    EXPECT_EQ(image.resident_bytes(), compressed + offsets)
        << codec_kind_name(kind);
  }
}

TEST(BlockImage, FootprintSumsEveryBlockOnce) {
  // The footprint is summed when the image is built; it must equal the
  // sum of one ImageFootprint::add_block per block.
  for (const auto kind : compress::all_codec_kinds()) {
    const BlockImage image = make_image(kind);
    memory::ImageFootprint want;
    for (cfg::BlockId b = 0; b < image.block_count(); ++b) {
      want.add_block(image.compressed_size(b), image.original_size(b));
    }
    const memory::ImageFootprint& got = image.footprint();
    EXPECT_EQ(got.compressed_area_bytes, want.compressed_area_bytes)
        << codec_kind_name(kind);
    EXPECT_EQ(got.original_bytes, want.original_bytes) << codec_kind_name(kind);
    EXPECT_EQ(got.all_decompressed_bytes, want.all_decompressed_bytes)
        << codec_kind_name(kind);
  }
}

TEST(BlockImage, OriginalSizesMatchCfgBlocks) {
  const cfg::Cfg g = cfg::figure2_cfg();
  const BlockImage image = make_image(compress::CodecKind::kSharedHuffman);
  for (cfg::BlockId b = 0; b < image.block_count(); ++b) {
    EXPECT_EQ(image.original_size(b), g.block(b).size_bytes());
  }
}

TEST(BlockImage, TrainedCodecCompressesSynthBytes) {
  const BlockImage image = make_image(compress::CodecKind::kSharedHuffman);
  EXPECT_LT(image.ratio(), 0.95);
  EXPECT_GT(image.ratio(), 0.2);
}

TEST(BlockImage, NullCodecRatioOne) {
  const BlockImage image = make_image(compress::CodecKind::kNull);
  EXPECT_DOUBLE_EQ(image.ratio(), 1.0);
}

TEST(BlockImage, MismatchedByteCountRejected) {
  const cfg::Cfg g = cfg::figure5_cfg();
  std::vector<compress::Bytes> bytes(2);  // CFG has 4 blocks
  EXPECT_THROW(
      BlockImage(g, std::move(bytes),
                 compress::make_codec(compress::CodecKind::kNull)),
      apcc::CheckError);
}

TEST(BlockImage, NullCodecPointerRejected) {
  const cfg::Cfg g = cfg::figure5_cfg();
  std::vector<compress::Bytes> bytes(g.block_count());
  EXPECT_THROW(BlockImage(g, std::move(bytes), nullptr), apcc::CheckError);
}

TEST(BlockImage, OutOfRangeBlockThrows) {
  const BlockImage image = make_image(compress::CodecKind::kNull);
  EXPECT_THROW((void)image.compressed(10), apcc::CheckError);
  EXPECT_THROW((void)image.original_size(10), apcc::CheckError);
  EXPECT_THROW((void)image.compressed_size(10), apcc::CheckError);
  EXPECT_NO_THROW((void)image.original_size(9));
}

/// An image's compressed arena and both (B+1)-entry offset tables, read
/// back through its accessors.
struct ImageTables {
  compress::Bytes arena;
  std::vector<std::uint64_t> compressed_offsets{0};
  std::vector<std::uint64_t> original_offsets{0};

  bool operator==(const ImageTables&) const = default;

  void add_block(compress::ByteView packed, std::uint64_t original_size) {
    arena.insert(arena.end(), packed.begin(), packed.end());
    compressed_offsets.push_back(arena.size());
    original_offsets.push_back(original_offsets.back() + original_size);
  }
};

ImageTables tables_of(const BlockImage& image) {
  ImageTables t;
  const std::uint8_t* base = image.compressed(0).data();
  for (cfg::BlockId b = 0; b < image.block_count(); ++b) {
    const compress::ByteView packed = image.compressed(b);
    // The views sit back to back in one arena.
    EXPECT_EQ(packed.data(), base + t.compressed_offsets.back()) << b;
    t.add_block(packed, image.original_size(b));
  }
  return t;
}

TEST(BlockImage, ArenaAndPerBlockVectorsBuildTheSameImage) {
  // The workload's arena against one vector per block, cut the way the
  // workload used to cut them: for every codec, the codec trained on
  // each and the image compressed from each hold the same arena and
  // offset tables as a reference loop that compresses the vectors one
  // by one.
  std::vector<workloads::Workload> programs;
  for (const auto kind : workloads::all_workload_kinds()) {
    programs.push_back(workloads::make_workload(kind));
  }
  workloads::RandomProgramOptions churn;  // artifact-churn's shape
  churn.seed = 9001;
  churn.max_depth = 3;
  churn.statements_per_body = 40;
  churn.leaf_functions = 16;
  churn.loop_iters_max = 6;
  programs.push_back(workloads::make_random_workload(churn));
  ASSERT_EQ(programs.back().cfg.block_count(), 2444u);

  for (const workloads::Workload& w : programs) {
    std::vector<compress::Bytes> per_block;
    for (const cfg::BasicBlock& b : w.cfg.blocks()) {
      per_block.push_back(w.program.bytes(b.first_word, b.word_count));
    }
    for (const auto kind : compress::all_codec_kinds()) {
      SCOPED_TRACE(w.name + " / " + codec_kind_name(kind));
      const BlockImage from_arena(w.cfg, w.block_bytes,
                                  compress::make_codec(kind, w.block_bytes));
      const BlockImage from_vectors(w.cfg, per_block,
                                    compress::make_codec(kind, per_block));
      const auto codec = compress::make_codec(kind, per_block);
      ImageTables reference;
      for (const compress::Bytes& bytes : per_block) {
        reference.add_block(codec->compress(bytes), bytes.size());
      }
      const ImageTables got = tables_of(from_arena);
      EXPECT_TRUE(got == reference);
      EXPECT_TRUE(tables_of(from_vectors) == reference);
      EXPECT_EQ(from_arena.resident_bytes(), from_vectors.resident_bytes());
      EXPECT_EQ(from_arena.footprint().compressed_area_bytes,
                from_vectors.footprint().compressed_area_bytes);
      EXPECT_EQ(from_arena.ratio(), from_vectors.ratio());
    }
  }
}

TEST(SynthBytes, DeterministicPerBlockAndSeed) {
  const cfg::Cfg g = cfg::figure5_cfg();
  const auto a = workloads::synthesize_block_bytes(g.block(0), 1);
  const auto b = workloads::synthesize_block_bytes(g.block(0), 1);
  const auto c = workloads::synthesize_block_bytes(g.block(0), 2);
  const auto d = workloads::synthesize_block_bytes(g.block(1), 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(a.size(), g.block(0).size_bytes());
}

TEST(SynthBytes, ProducesDecodableInstructions) {
  const cfg::Cfg g = cfg::figure2_cfg();
  const auto bytes = workloads::synthesize_block_bytes(g.block(3));
  ASSERT_EQ(bytes.size() % 4, 0u);
  for (std::size_t i = 0; i < bytes.size(); i += 4) {
    const std::uint32_t word =
        static_cast<std::uint32_t>(bytes[i]) |
        (static_cast<std::uint32_t>(bytes[i + 1]) << 8) |
        (static_cast<std::uint32_t>(bytes[i + 2]) << 16) |
        (static_cast<std::uint32_t>(bytes[i + 3]) << 24);
    EXPECT_NO_THROW((void)isa::decode(word));
  }
}

}  // namespace
}  // namespace apcc::runtime
