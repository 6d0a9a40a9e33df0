// BlockBytes tests: the arena and its offset table, the views, empty
// blocks, both per-block-vector conversions, and the workload's cut of
// its program image.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "compress/block_bytes.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::compress {
namespace {

/// Where block `b`'s view starts in the arena.
std::size_t offset_of(const BlockBytes& blocks, std::size_t b) {
  return static_cast<std::size_t>(blocks[b].data() - blocks.arena().data());
}

TEST(BlockBytes, DefaultHoldsNoBlocks) {
  const BlockBytes blocks;
  EXPECT_EQ(blocks.size(), 0u);
  EXPECT_TRUE(blocks.empty());
  EXPECT_EQ(blocks.total_bytes(), 0u);
  EXPECT_TRUE(blocks.begin() == blocks.end());
  EXPECT_TRUE(static_cast<std::vector<Bytes>>(blocks).empty());
  EXPECT_TRUE(BlockBytes(std::vector<Bytes>{}).empty());
}

TEST(BlockBytes, BlocksSitBackToBackAtTheirOffsets) {
  BlockBytes blocks;
  blocks.push_back(Bytes{1, 2, 3});
  blocks.push_back(Bytes{});
  blocks.push_back(Bytes{4});
  blocks.push_back(Bytes{5, 6});
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_FALSE(blocks.empty());
  EXPECT_EQ(blocks.total_bytes(), 6u);
  EXPECT_EQ(Bytes(blocks.arena().begin(), blocks.arena().end()),
            (Bytes{1, 2, 3, 4, 5, 6}));
  const std::vector<std::size_t> offsets = {0, 3, 3, 4};
  const std::vector<Bytes> want = {{1, 2, 3}, {}, {4}, {5, 6}};
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(offset_of(blocks, b), offsets[b]) << "block " << b;
    EXPECT_EQ(Bytes(blocks[b].begin(), blocks[b].end()), want[b])
        << "block " << b;
  }
}

TEST(BlockBytes, EmptyBlocksKeepTheirPlace) {
  BlockBytes blocks;
  for (int i = 0; i < 3; ++i) blocks.push_back(ByteView{});
  EXPECT_EQ(blocks.size(), 3u);
  EXPECT_FALSE(blocks.empty());
  EXPECT_EQ(blocks.total_bytes(), 0u);
  std::size_t seen = 0;
  for (const ByteView block : blocks) {
    EXPECT_TRUE(block.empty());
    ++seen;
  }
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(static_cast<std::vector<Bytes>>(blocks),
            std::vector<Bytes>(3));
}

TEST(BlockBytes, ConvertsFromAndToPerBlockVectors) {
  const std::vector<Bytes> per_block = {{9, 8}, {}, {7, 6, 5, 4}, {3}};
  const BlockBytes blocks = per_block;  // implicit, copies
  ASSERT_EQ(blocks.size(), per_block.size());
  EXPECT_EQ(blocks.total_bytes(), 7u);
  std::size_t b = 0;
  for (const ByteView block : blocks) {
    EXPECT_EQ(Bytes(block.begin(), block.end()), per_block[b]) << b;
    ++b;
  }
  EXPECT_EQ(std::distance(blocks.begin(), blocks.end()), 4);
  const std::vector<Bytes> back = blocks;  // implicit, copies
  EXPECT_EQ(back, per_block);
}

TEST(BlockBytes, WorkloadBlocksAreTheProgramBytesOfEachBlock) {
  workloads::RandomProgramOptions churn;  // artifact-churn's shape
  churn.seed = 9001;
  churn.max_depth = 3;
  churn.statements_per_body = 40;
  churn.leaf_functions = 16;
  churn.loop_iters_max = 6;
  for (const workloads::Workload& w :
       {workloads::make_workload(workloads::WorkloadKind::kGsmLike),
        workloads::make_random_workload(churn)}) {
    SCOPED_TRACE(w.name);
    ASSERT_EQ(w.block_bytes.size(), w.cfg.block_count());
    EXPECT_EQ(w.block_bytes.total_bytes(), w.cfg.total_code_bytes());
    std::size_t offset = 0;
    for (const cfg::BasicBlock& block : w.cfg.blocks()) {
      const ByteView got = w.block_bytes[block.id];
      EXPECT_EQ(Bytes(got.begin(), got.end()),
                w.program.bytes(block.first_word, block.word_count))
          << "block " << block.id;
      EXPECT_EQ(offset_of(w.block_bytes, block.id), offset);
      offset += got.size();
    }
  }
}

}  // namespace
}  // namespace apcc::compress
