// k-edge compression manager tests, pinned to the paper's semantics:
// Figure 1 (compress B1 just before entering B4 with k=2) and the counter
// discipline the Figure 5 walkthrough implies.
#include <gtest/gtest.h>

#include "common/victim_scan.hpp"
#include "runtime/kedge.hpp"
#include "support/rng.hpp"

namespace apcc::runtime {
namespace {

using testref::size_of;

/// Sizes for the LRU / MRU queries, which never read them.
const std::vector<std::uint64_t> kNoSizes(8, 0);

StateTable make_states(std::size_t n,
                       std::initializer_list<cfg::BlockId> decompressed) {
  StateTable t(n);
  for (const auto b : decompressed) {
    t.set_form(b, BlockForm::kDecompressed);
  }
  return t;
}

TEST(KEdge, RequiresPositiveK) {
  StateTable t(2);
  EXPECT_THROW(KEdgeCompressionManager(t, 0), apcc::CheckError);
}

TEST(KEdge, Figure1ScenarioWithKEqualsTwo) {
  // Blocks B0..B5; B1 was just visited (decompressed). After edges
  // a (into B3) and b (into B4), B1's copy must be scheduled for deletion
  // "just before the execution enters basic block B4".
  StateTable t = make_states(6, {1});
  KEdgeCompressionManager kedge(t, 2);
  kedge.on_block_executed(1);
  EXPECT_TRUE(kedge.on_edge_traversed(3).empty()) << "after edge a";
  const auto deleted = kedge.on_edge_traversed(4);
  ASSERT_EQ(deleted.size(), 1u) << "after edge b";
  EXPECT_EQ(deleted[0], 1u);
}

TEST(KEdge, TargetBlockIsNotIncremented) {
  // Figure 5 step (5): re-entering B0 via B1->B0 must NOT increment B0's
  // counter -- otherwise B0' would be deleted at that moment.
  StateTable t = make_states(4, {0, 1});
  KEdgeCompressionManager kedge(t, 2);
  kedge.on_block_executed(0);
  EXPECT_TRUE(kedge.on_edge_traversed(1).empty());  // B0: 1
  EXPECT_EQ(t[0].kedge_counter, 1u);
  const auto deleted = kedge.on_edge_traversed(0);  // into B0: not bumped
  EXPECT_TRUE(deleted.empty());
  EXPECT_EQ(t[0].kedge_counter, 1u) << "target must be exempt";
  EXPECT_EQ(t[1].kedge_counter, 1u) << "source is incremented";
}

TEST(KEdge, ExecutionResetsCounter) {
  StateTable t = make_states(3, {0});
  KEdgeCompressionManager kedge(t, 3);
  (void)kedge.on_edge_traversed(1);
  (void)kedge.on_edge_traversed(2);
  EXPECT_EQ(t[0].kedge_counter, 2u);
  kedge.on_block_executed(0);
  EXPECT_EQ(t[0].kedge_counter, 0u);
}

TEST(KEdge, CompressedBlocksAreIgnored) {
  StateTable t = make_states(3, {});
  t.set_form(0, BlockForm::kCompressed);
  KEdgeCompressionManager kedge(t, 1);
  EXPECT_TRUE(kedge.on_edge_traversed(1).empty());
  EXPECT_EQ(t[0].kedge_counter, 0u);
}

TEST(KEdge, DecompressingBlocksAreIgnored) {
  StateTable t = make_states(3, {});
  t.set_form(0, BlockForm::kDecompressing);
  KEdgeCompressionManager kedge(t, 1);
  EXPECT_TRUE(kedge.on_edge_traversed(1).empty());
}

TEST(KEdge, ExecutingBlockNeverReturned) {
  StateTable t = make_states(3, {0});
  t.set_executing(0, true);
  KEdgeCompressionManager kedge(t, 1);
  const auto deleted = kedge.on_edge_traversed(1);
  EXPECT_TRUE(deleted.empty()) << "pinned block must survive";
  EXPECT_EQ(t[0].kedge_counter, 1u);
}

TEST(KEdge, KOneCompressesImmediately) {
  // 1-edge: a block's copy dies on the first edge after its execution.
  StateTable t = make_states(2, {0});
  KEdgeCompressionManager kedge(t, 1);
  kedge.on_block_executed(0);
  const auto deleted = kedge.on_edge_traversed(1);
  ASSERT_EQ(deleted.size(), 1u);
  EXPECT_EQ(deleted[0], 0u);
}

TEST(KEdge, LargeKDelaysDeletion) {
  StateTable t = make_states(2, {0});
  KEdgeCompressionManager kedge(t, 10);
  kedge.on_block_executed(0);
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(kedge.on_edge_traversed(1).empty()) << "edge " << i;
  }
  EXPECT_EQ(kedge.on_edge_traversed(1).size(), 1u);
}

TEST(KEdge, MultipleBlocksDeletedTogether) {
  StateTable t = make_states(4, {0, 1, 2});
  KEdgeCompressionManager kedge(t, 1);
  const auto deleted = kedge.on_edge_traversed(3);
  EXPECT_EQ(deleted.size(), 3u);
}

TEST(KEdge, CountersAdvanceIndependently) {
  StateTable t = make_states(3, {0, 1});
  KEdgeCompressionManager kedge(t, 3);
  (void)kedge.on_edge_traversed(2);   // 0:1, 1:1
  kedge.on_block_executed(1);         // 1 reset
  (void)kedge.on_edge_traversed(2);   // 0:2, 1:1
  EXPECT_EQ(t[0].kedge_counter, 2u);
  EXPECT_EQ(t[1].kedge_counter, 1u);
}

// -------------------------------------------------- StateTable helpers

TEST(StateTable, DecompressedBlocksListing) {
  StateTable t = make_states(5, {1, 3});
  EXPECT_EQ(t.decompressed_blocks(), (std::vector<cfg::BlockId>{1, 3}));
  EXPECT_EQ(t.count(BlockForm::kDecompressed), 2u);
  EXPECT_EQ(t.count(BlockForm::kCompressed), 3u);
}

TEST(StateTable, LruVictimOldestFirst) {
  StateTable t = make_states(4, {0, 1, 2});
  t.touch(0, 30);
  t.touch(1, 10);
  t.touch(2, 20);
  EXPECT_EQ(t.victim(VictimPolicy::kLru, cfg::kInvalidBlock, size_of(kNoSizes)),
            1u);
}

TEST(StateTable, LruVictimSkipsProtectedAndExecuting) {
  StateTable t = make_states(3, {0, 1, 2});
  t.touch(0, 1);
  t.touch(1, 2);
  t.touch(2, 3);
  t.set_executing(0, true);
  EXPECT_EQ(t.victim(VictimPolicy::kLru, 1, size_of(kNoSizes)), 2u)
      << "0 executing, 1 protected -> 2";
}

TEST(StateTable, LruVictimNoneAvailable) {
  StateTable t = make_states(2, {});
  EXPECT_EQ(t.victim(VictimPolicy::kLru, cfg::kInvalidBlock, size_of(kNoSizes)),
            cfg::kInvalidBlock);
}

TEST(StateTable, MruVictimNewestFirstLowestIdOnTies) {
  StateTable t = make_states(5, {0, 1, 2, 3});
  t.touch(0, 10);
  t.touch(1, 30);
  t.touch(2, 30);
  t.touch(3, 20);
  EXPECT_EQ(t.victim(VictimPolicy::kMru, cfg::kInvalidBlock, size_of(kNoSizes)),
            1u)
      << "ties on last_use_time resolve to the lowest id";
  EXPECT_EQ(t.victim(VictimPolicy::kMru, 1, size_of(kNoSizes)), 2u);
}

TEST(StateTable, LargestVictimBySizeLowestIdOnTies) {
  StateTable t = make_states(4, {0, 1, 2});
  const std::vector<std::uint64_t> sizes{64, 128, 128, 256};
  EXPECT_EQ(t.victim(VictimPolicy::kLargest, cfg::kInvalidBlock, size_of(sizes)),
            1u);
  EXPECT_EQ(t.victim(VictimPolicy::kLargest, 1, size_of(sizes)), 2u);
  t.set_executing(1, true);
  t.set_executing(2, true);
  EXPECT_EQ(t.victim(VictimPolicy::kLargest, cfg::kInvalidBlock, size_of(sizes)),
            0u);
}

TEST(StateTable, LargestVictimRequiresPositiveSize) {
  StateTable t = make_states(3, {0, 1});
  EXPECT_EQ(
      t.victim(VictimPolicy::kLargest, cfg::kInvalidBlock, size_of(kNoSizes)),
      cfg::kInvalidBlock)
      << "all sizes zero -> no largest victim (strict > 0)";
}

TEST(StateTable, VictimQueriesMatchReferenceScans) {
  apcc::Rng rng(7);
  StateTable t(32);
  std::vector<std::uint64_t> sizes;
  for (int b = 0; b < 32; ++b) sizes.push_back(rng.next_below(8) * 16);
  for (int step = 0; step < 2000; ++step) {
    const auto b = static_cast<cfg::BlockId>(rng.next_below(32));
    switch (rng.next_below(4)) {
      case 0:
        t.set_form(b, static_cast<BlockForm>(rng.next_below(3)));
        break;
      case 1: t.touch(b, rng.next_below(64)); break;
      case 2: t.set_executing(b, rng.next_bool(0.2)); break;
      default: break;
    }
    const auto protect = rng.next_bool(0.5)
                             ? static_cast<cfg::BlockId>(rng.next_below(32))
                             : cfg::kInvalidBlock;
    for (const VictimPolicy policy :
         {VictimPolicy::kLru, VictimPolicy::kMru, VictimPolicy::kLargest}) {
      ASSERT_EQ(t.victim(policy, protect, size_of(sizes)),
                testref::scan_victim(t, policy, protect, sizes))
          << victim_policy_name(policy);
    }
  }
}

TEST(StateTable, DecompressedUnorderedTracksMembership) {
  StateTable t = make_states(6, {1, 4});
  EXPECT_EQ(t.decompressed_unordered().size(), 2u);
  t.set_form(1, BlockForm::kCompressed);
  t.set_form(2, BlockForm::kDecompressed);
  t.set_form(4, BlockForm::kDecompressing);
  EXPECT_EQ(t.decompressed_blocks(), (std::vector<cfg::BlockId>{2}));
  EXPECT_EQ(t.count(BlockForm::kDecompressing), 1u);
}

std::vector<cfg::BlockId> members(const RememberSet& set) {
  return {set.begin(), set.end()};
}

TEST(StateTable, RememberSetDeduplicates) {
  StateTable t(3);
  t.add_patch(0, 3);
  t.add_patch(0, 3);
  t.add_patch(0, 5);
  EXPECT_EQ(t.remember_set(0).size(), 2u);
  EXPECT_EQ(members(t.remember_set(0)), (std::vector<cfg::BlockId>{3, 5}));
  EXPECT_TRUE(t.is_patched_for(0, 3));
  EXPECT_FALSE(t.is_patched_for(0, 7));
  t.clear_patches(0);
  EXPECT_TRUE(t.remember_set(0).empty());
  EXPECT_FALSE(t.is_patched_for(0, 3));

  // Sets yield patch order after cleared nodes are reused, however the
  // reuse scatters a set over the table's pool.
  t.add_patch(1, 9);
  t.add_patch(2, 4);
  t.add_patch(1, 2);
  t.add_patch(2, 2);
  EXPECT_EQ(members(t.remember_set(1)), (std::vector<cfg::BlockId>{9, 2}));
  EXPECT_EQ(members(t.remember_set(2)), (std::vector<cfg::BlockId>{4, 2}));
  t.clear_patches(1);
  for (const cfg::BlockId pred : {6u, 1u, 8u, 0u, 7u}) t.add_patch(0, pred);
  t.add_patch(0, 1);
  EXPECT_EQ(members(t.remember_set(0)),
            (std::vector<cfg::BlockId>{6, 1, 8, 0, 7}));
  EXPECT_EQ(members(t.remember_set(2)), (std::vector<cfg::BlockId>{4, 2}));
  EXPECT_TRUE(t.remember_set(1).empty());
  t.clear_patches(2);
  t.add_patch(1, 5);
  t.add_patch(1, 4);
  EXPECT_EQ(members(t.remember_set(1)), (std::vector<cfg::BlockId>{5, 4}));
  EXPECT_EQ(members(t.remember_set(0)),
            (std::vector<cfg::BlockId>{6, 1, 8, 0, 7}));
}

}  // namespace
}  // namespace apcc::runtime
