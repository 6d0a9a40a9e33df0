// Decompression planner tests, pinned to the paper's §4 examples on the
// Figure 2 graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>

#include "cfg/paper_graphs.hpp"
#include "runtime/planner.hpp"

namespace apcc::runtime {
namespace {

StateTable all_compressed(const cfg::Cfg& g) {
  return StateTable(g.block_count());
}

Policy pre_all(std::uint32_t k) {
  Policy p;
  p.strategy = DecompressionStrategy::kPreAll;
  p.predecompress_k = k;
  return p;
}

Policy pre_single(std::uint32_t k) {
  Policy p;
  p.strategy = DecompressionStrategy::kPreSingle;
  p.predecompress_k = k;
  return p;
}

/// A materialized cache for `g` at `k`, as a planner's owner lends it.
FrontierCache geometry(const cfg::Cfg& g, std::uint32_t k) {
  FrontierCache cache(g, k);
  cache.materialize();
  return cache;
}

/// The pre-all plan computed the slow way: one frontier BFS, then one
/// edge-distance BFS per compressed candidate, sorted by (distance, id).
std::vector<cfg::BlockId> bfs_plan(const cfg::Cfg& g, const StateTable& states,
                                   cfg::BlockId block, std::uint32_t k) {
  std::vector<std::pair<unsigned, cfg::BlockId>> near;
  for (const cfg::BlockId b : cfg::frontier_within(g, block, k)) {
    if (states[b].form() != BlockForm::kCompressed) continue;
    near.emplace_back(cfg::edge_distance(g, block, b).value_or(UINT_MAX), b);
  }
  std::sort(near.begin(), near.end());
  std::vector<cfg::BlockId> plan;
  for (const auto& [distance, b] : near) plan.push_back(b);
  return plan;
}

TEST(Planner, OnDemandPlansNothing) {
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  Policy policy;  // default on-demand
  const DecompressionPlanner planner(g, states, policy, nullptr, nullptr);
  EXPECT_TRUE(planner.plan_on_exit(0, 0).empty());
}

TEST(Planner, PreSingleRequiresPredictor) {
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  const FrontierCache frontiers = geometry(g, 2);
  EXPECT_THROW(
      DecompressionPlanner(g, states, pre_single(2), nullptr, &frontiers),
      apcc::CheckError);
}

TEST(Planner, PaperExamplePreAllFromB0) {
  // §4: B4, B5, B8, B9 compressed, everything else uncompressed, k=2,
  // execution just left B0 -> pre-decompress-all requests exactly
  // B4, B5, B8 and B9.
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  for (const cfg::BlockId b : {0u, 1u, 2u, 3u, 6u, 7u}) {
    states.set_form(b, BlockForm::kDecompressed);
  }
  const FrontierCache frontiers = geometry(g, 2);
  const DecompressionPlanner planner(g, states, pre_all(2), nullptr,
                                     &frontiers);
  const auto plan = planner.plan_on_exit(0, 0);
  EXPECT_EQ(plan, (std::vector<cfg::BlockId>{4, 5, 8, 9}));
}

TEST(Planner, PaperExamplePreSingleFromB0PicksExactlyOne) {
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  for (const cfg::BlockId b : {0u, 1u, 2u, 3u, 6u, 7u}) {
    states.set_form(b, BlockForm::kDecompressed);
  }
  const ProfilePredictor predictor(g, 2);
  const FrontierCache frontiers = geometry(g, 2);
  const DecompressionPlanner planner(g, states, pre_single(2), &predictor,
                                     &frontiers);
  const auto plan = planner.plan_on_exit(0, 0);
  ASSERT_EQ(plan.size(), 1u) << "pre-decompress-single picks one block";
  const std::vector<cfg::BlockId> candidates = {4, 5, 8, 9};
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), plan[0]),
            candidates.end());
}

TEST(Planner, Figure2B7PlannedAtExitOfB1WithK3) {
  // §4 / Figure 2: with k=3, B7 is decompressed at the end of B1.
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  const FrontierCache frontiers = geometry(g, 3);
  const DecompressionPlanner planner(g, states, pre_all(3), nullptr,
                                     &frontiers);
  const auto plan = planner.plan_on_exit(1, 0);
  EXPECT_NE(std::find(plan.begin(), plan.end(), 7u), plan.end());
}

TEST(Planner, Figure2B7NotPlannedWithK2) {
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  const FrontierCache frontiers = geometry(g, 2);
  const DecompressionPlanner planner(g, states, pre_all(2), nullptr,
                                     &frontiers);
  const auto plan = planner.plan_on_exit(1, 0);
  EXPECT_EQ(std::find(plan.begin(), plan.end(), 7u), plan.end())
      << "B7 is 3 edges away; k=2 must not reach it";
}

TEST(Planner, AlreadyDecompressedBlocksSkipped) {
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  states.set_form(1, BlockForm::kDecompressed);
  states.set_form(2, BlockForm::kDecompressing);
  const FrontierCache frontiers = geometry(g, 1);
  const DecompressionPlanner planner(g, states, pre_all(1), nullptr,
                                     &frontiers);
  const auto plan = planner.plan_on_exit(0, 0);
  EXPECT_TRUE(plan.empty())
      << "both distance-1 blocks are resident or in flight";
}

TEST(Planner, RequestsOrderedNearestFirst) {
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  const FrontierCache frontiers = geometry(g, 3);
  const DecompressionPlanner planner(g, states, pre_all(3), nullptr,
                                     &frontiers);
  const auto plan = planner.plan_on_exit(0, 0);
  // Distances from B0: B1/B2 = 1; B3/B4/B5/B8/B9 = 2; B6 = 3 (B7 = 3).
  ASSERT_GE(plan.size(), 3u);
  EXPECT_EQ(plan[0], 1u);
  EXPECT_EQ(plan[1], 2u);
  // All distance-2 blocks precede distance-3 blocks.
  const auto pos = [&](cfg::BlockId b) {
    return std::find(plan.begin(), plan.end(), b) - plan.begin();
  };
  EXPECT_LT(pos(4), pos(6));
  EXPECT_LT(pos(9), pos(7));
}

TEST(Planner, ExitBlockPlansNothing) {
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  const FrontierCache frontiers = geometry(g, 4);
  const DecompressionPlanner planner(g, states, pre_all(4), nullptr,
                                     &frontiers);
  EXPECT_TRUE(planner.plan_on_exit(9, 0).empty());
}

TEST(Planner, PreSingleEmptyWhenFrontierClear) {
  const cfg::Cfg g = cfg::figure5_cfg();
  StateTable states(g.block_count());
  for (cfg::BlockId b = 0; b < g.block_count(); ++b) {
    states.set_form(b, BlockForm::kDecompressed);
  }
  const ProfilePredictor predictor(g, 2);
  const FrontierCache frontiers = geometry(g, 2);
  const DecompressionPlanner planner(g, states, pre_single(2), &predictor,
                                     &frontiers);
  EXPECT_TRUE(planner.plan_on_exit(0, 0).empty());
}

TEST(Planner, SelfCycleSortsAtCycleLengthNotZero) {
  // Regression: edge_distance(b, b) used to return 0, so a compressed
  // block re-reached through a cycle sorted ahead of genuinely nearer
  // successors. Graph: 0 -> {1, 2}, 1 -> 0; exiting 0 with k=2 the
  // frontier is {1@1, 2@1, 0@2} and 0 must come LAST.
  cfg::Cfg g;
  for (int i = 0; i < 3; ++i) {
    g.add_block(static_cast<std::uint32_t>(i * 4), 4);
  }
  g.add_edge(0, 1, cfg::EdgeKind::kFallThrough);
  g.add_edge(0, 2, cfg::EdgeKind::kBranchTaken);
  g.add_edge(1, 0, cfg::EdgeKind::kJump);
  g.normalize_probabilities();
  StateTable states = all_compressed(g);
  const FrontierCache frontiers = geometry(g, 2);
  const DecompressionPlanner planner(g, states, pre_all(2), nullptr,
                                     &frontiers);
  const std::vector<cfg::BlockId> expected{1, 2, 0};
  EXPECT_EQ(planner.plan_on_exit(0, 0), expected);
  EXPECT_EQ(bfs_plan(g, states, 0, 2), expected);
}

TEST(Planner, SelfLoopSortsAtDistanceOne) {
  // A literal self-loop is a cycle of length 1: it ties with the direct
  // successors and the id tie-break applies, instead of jumping the queue
  // at the old distance 0.
  cfg::Cfg g;
  for (int i = 0; i < 3; ++i) {
    g.add_block(static_cast<std::uint32_t>(i * 4), 4);
  }
  g.add_edge(1, 1, cfg::EdgeKind::kBranchTaken);
  g.add_edge(1, 0, cfg::EdgeKind::kFallThrough);
  g.add_edge(1, 2, cfg::EdgeKind::kJump);
  g.normalize_probabilities();
  StateTable states = all_compressed(g);
  const FrontierCache frontiers = geometry(g, 1);
  const DecompressionPlanner planner(g, states, pre_all(1), nullptr,
                                     &frontiers);
  const std::vector<cfg::BlockId> expected{0, 1, 2};
  EXPECT_EQ(planner.plan_on_exit(1, 0), expected);
  EXPECT_EQ(bfs_plan(g, states, 1, 1), expected);
}

TEST(Planner, MemoizedMatchesReferenceAcrossFormsAndK) {
  // Differential: the FrontierCache path must emit exactly the per-exit
  // BFS's request list for every exit block, k, and a spread of dynamic
  // BlockForm assignments.
  for (const cfg::Cfg& g : {cfg::figure2_cfg(), cfg::figure5_cfg(),
                            cfg::figure1_cfg()}) {
    for (const std::uint32_t k : {1u, 2u, 3u, 4u, 8u}) {
      for (const unsigned pattern : {0u, 1u, 2u, 3u}) {
        StateTable states(g.block_count());
        for (cfg::BlockId b = 0; b < g.block_count(); ++b) {
          // Deterministic mixed forms: compressed / decompressed /
          // decompressing, shifted per pattern.
          switch ((b + pattern) % 4) {
            case 1: states.set_form(b, BlockForm::kDecompressed); break;
            case 3: states.set_form(b, BlockForm::kDecompressing); break;
            default: break;  // compressed
          }
        }
        const FrontierCache frontiers = geometry(g, k);
        const DecompressionPlanner memoized(g, states, pre_all(k), nullptr,
                                            &frontiers);
        for (cfg::BlockId b = 0; b < g.block_count(); ++b) {
          EXPECT_EQ(memoized.plan_on_exit(b, 0), bfs_plan(g, states, b, k))
              << "exit block " << b << " k " << k << " pattern " << pattern;
        }
      }
    }
  }
}

TEST(Planner, BorrowedGeometryMustMatchKeyAndBeMaterialized) {
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  FrontierCache wrong_k(g, 3);
  wrong_k.materialize();
  EXPECT_THROW(DecompressionPlanner(g, states, pre_all(2), nullptr, &wrong_k),
               apcc::CheckError)
      << "borrowing k=3 geometry for a k=2 policy must be rejected";
  const FrontierCache unbuilt(g, 2);
  EXPECT_THROW(DecompressionPlanner(g, states, pre_all(2), nullptr, &unbuilt),
               apcc::CheckError)
      << "a cache that was never materialized holds no lists";
  EXPECT_THROW(DecompressionPlanner(g, states, pre_all(2), nullptr, nullptr),
               apcc::CheckError)
      << "a planning strategy needs geometry";
  const cfg::Cfg other = cfg::figure5_cfg();
  FrontierCache other_cfg(other, 2);
  other_cfg.materialize();
  EXPECT_THROW(DecompressionPlanner(g, states, pre_all(2), nullptr, &other_cfg),
               apcc::CheckError)
      << "geometry computed on a different CFG must be rejected";
}

TEST(Planner, MemoizedSeesFormChangesBetweenExits) {
  // The cache memoizes geometry only; the dynamic form filter must see
  // state changes made after construction.
  const cfg::Cfg g = cfg::figure2_cfg();
  StateTable states = all_compressed(g);
  const FrontierCache frontiers = geometry(g, 2);
  const DecompressionPlanner planner(g, states, pre_all(2), nullptr,
                                     &frontiers);
  const auto before = planner.plan_on_exit(0, 0);
  ASSERT_FALSE(before.empty());
  for (const cfg::BlockId b : before) {
    states.set_form(b, BlockForm::kDecompressed);
  }
  EXPECT_TRUE(planner.plan_on_exit(0, 0).empty());
  states.set_form(before.front(), BlockForm::kCompressed);
  EXPECT_EQ(planner.plan_on_exit(0, 0),
            (std::vector<cfg::BlockId>{before.front()}));
}

}  // namespace
}  // namespace apcc::runtime
