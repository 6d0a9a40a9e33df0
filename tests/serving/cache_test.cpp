// Unit tests for the pure eviction policy (serving/cache.hpp): victim
// selection is a deterministic function of (entries, budget, clock),
// pinned entries are never chosen, and the cost-aware score prefers
// big, stale, cheap-to-rebuild artifacts over small, recent, expensive
// ones. The Service-level behaviour (pin lifetimes, rebuild
// byte-identity, counters) lives in eviction_test.cpp; this file pins
// the policy math in isolation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serving/cache.hpp"

namespace apcc::serving {
namespace {

CacheEntry entry(std::uint64_t bytes, std::uint64_t cost,
                 std::uint64_t last_use, bool pinned = false) {
  return CacheEntry{bytes, cost, last_use, pinned};
}

TEST(CachePolicy, UnderBudgetEvictsNothing) {
  const std::vector<CacheEntry> entries = {entry(100, 10, 1),
                                           entry(200, 10, 2)};
  EXPECT_TRUE(plan_evictions(entries, 300, 10).empty());
  EXPECT_TRUE(plan_evictions(entries, 1000, 10).empty());
  EXPECT_TRUE(plan_evictions({}, 0, 10).empty());
}

TEST(CachePolicy, EvictsJustEnoughToFit) {
  // 300 resident, budget 250: one eviction suffices, and the policy
  // stops as soon as the set fits -- it does not flush to zero.
  const std::vector<CacheEntry> entries = {entry(100, 10, 1),
                                           entry(200, 10, 2)};
  const auto plan = plan_evictions(entries, 250, 10);
  ASSERT_EQ(plan.size(), 1u);
}

TEST(CachePolicy, BudgetZeroEvictsEveryUnpinnedEntry) {
  // Budget 0 is the fault plan's forced flush: everything unpinned
  // goes, in score order.
  const std::vector<CacheEntry> entries = {
      entry(100, 10, 1), entry(200, 10, 2, /*pinned=*/true),
      entry(300, 10, 3)};
  const auto plan = plan_evictions(entries, 0, 10);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_TRUE((plan[0] == 0 && plan[1] == 2) ||
              (plan[0] == 2 && plan[1] == 0));
}

TEST(CachePolicy, PinnedEntriesAreNeverVictims) {
  // Even when sparing them leaves the set over budget: budgets are
  // pressure, not guarantees.
  const std::vector<CacheEntry> entries = {
      entry(1000, 1, 1, /*pinned=*/true), entry(2000, 1, 2, true)};
  EXPECT_TRUE(plan_evictions(entries, 1, 10).empty());
}

TEST(CachePolicy, ZeroByteEntriesAreSkipped) {
  // bytes == 0 means "not resident" (evicted already, or never
  // published) -- evicting it would free nothing.
  const std::vector<CacheEntry> entries = {entry(0, 10, 1),
                                           entry(100, 10, 2)};
  const auto plan = plan_evictions(entries, 0, 10);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], 1u);
}

TEST(CachePolicy, ScorePrefersStaleCheapBigOverRecentExpensiveSmall) {
  // Entry 0: big, stale, cheap to rebuild -- the ideal victim.
  // Entry 1: small, recent, expensive to rebuild -- worth keeping.
  const std::vector<CacheEntry> entries = {
      entry(/*bytes=*/1000, /*cost=*/10, /*last_use=*/1),
      entry(/*bytes=*/100, /*cost=*/100000, /*last_use=*/99)};
  const auto plan = plan_evictions(entries, 500, 100);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], 0u);
}

TEST(CachePolicy, EqualCostReducesToLru) {
  // With rebuild_cost == bytes everywhere the score is pure staleness:
  // the least-recently-used entry goes first.
  const std::vector<CacheEntry> entries = {
      entry(100, 100, /*last_use=*/5), entry(100, 100, /*last_use=*/2),
      entry(100, 100, /*last_use=*/8)};
  const auto plan = plan_evictions(entries, 200, 10);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], 1u);
}

TEST(CachePolicy, TiesBreakOnOlderLastUseThenLowerIndex) {
  // Entries 0 and 2 tie exactly (same bytes/cost/last_use); entry 1 is
  // equally scored but older. Order: 1 (older), then 0 (lower index).
  const std::vector<CacheEntry> entries = {
      entry(100, 100, 4), entry(50, 50, 4), entry(100, 100, 4)};
  // age=6: scores 6.0 each (bytes/cost == 1). last_use equal -> all tie
  // on score and last_use; index breaks it. Force full eviction.
  const auto plan = plan_evictions(entries, 0, 10);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], 0u);
  EXPECT_EQ(plan[1], 1u);
  EXPECT_EQ(plan[2], 2u);
}

TEST(CachePolicy, PlanIsDeterministic) {
  const std::vector<CacheEntry> entries = {
      entry(700, 3, 2), entry(100, 9, 9, true), entry(400, 4, 1),
      entry(250, 1, 7), entry(50, 2, 3)};
  const auto first = plan_evictions(entries, 300, 12);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(plan_evictions(entries, 300, 12), first);
  }
}

TEST(CacheCostEstimates, AreDeterministicAndNonZero) {
  EXPECT_EQ(estimate_image_cost(0), 1u);
  EXPECT_EQ(estimate_image_cost(4096), 4096u);
  EXPECT_EQ(estimate_frontier_cost(0, 4), 1u);
  EXPECT_EQ(estimate_frontier_cost(100, 0), 100u);  // k=0 still costs
  EXPECT_EQ(estimate_frontier_cost(100, 4), 500u);
}

TEST(CacheStatsFormat, RendersBothKindsWithEvictionCounters) {
  CacheStats stats;
  stats.images = ArtifactStats{3, 40, 40, 3, 0, 2, 8192, 4096, 1};
  stats.frontiers = ArtifactStats{5, 70, 70, 5, 1, 4, 1024, 512, 2};
  const std::string text = format_cache_stats(stats);
  EXPECT_NE(text.find("cache images:"), std::string::npos);
  EXPECT_NE(text.find("cache frontiers:"), std::string::npos);
  EXPECT_NE(text.find("2 eviction(s)"), std::string::npos);
  EXPECT_NE(text.find("4 eviction(s)"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(CacheStats, HoldsOneArtifactStatsPerKind) {
  // The PR 8 flat-accessor shim (stats.image_hits() et al.) is gone;
  // the per-kind structs are the only spelling.
  CacheStats stats;
  stats.images = ArtifactStats{1, 2, 3, 4, 5, 6, 7, 8, 9};
  stats.frontiers = ArtifactStats{11, 12, 13, 14, 15, 16, 17, 18, 19};
  EXPECT_EQ(stats.images.built, 1u);
  EXPECT_EQ(stats.images.bytes, 8u);
  EXPECT_EQ(stats.images.entries, 9u);
  EXPECT_EQ(stats.frontiers.built, 11u);
  EXPECT_EQ(stats.frontiers.bytes, 18u);
  EXPECT_EQ(stats.frontiers.entries, 19u);
}

}  // namespace
}  // namespace apcc::serving
