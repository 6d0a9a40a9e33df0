// CFG analysis tests: RPO, dominators, natural loops, the k-edge frontier
// (the paper's core primitive), edge distances and reach scores.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>

#include "cfg/analysis.hpp"
#include "cfg/paper_graphs.hpp"
#include "workloads/random_program.hpp"

namespace apcc::cfg {
namespace {

/// 0 -> 1 -> 2 -> 3 with back edge 2 -> 1 and side exit 1 -> 4.
Cfg loop_graph() {
  Cfg g;
  for (int i = 0; i < 5; ++i) {
    g.add_block(static_cast<std::uint32_t>(i * 4), 4);
  }
  g.add_edge(0, 1, EdgeKind::kFallThrough);
  g.add_edge(1, 2, EdgeKind::kFallThrough);
  g.add_edge(2, 1, EdgeKind::kBranchTaken);  // back edge
  g.add_edge(2, 3, EdgeKind::kFallThrough);
  g.add_edge(1, 4, EdgeKind::kBranchTaken);
  g.normalize_probabilities();
  return g;
}

TEST(Rpo, EntryFirstEveryBlockOnce) {
  const Cfg g = loop_graph();
  const auto order = reverse_post_order(g);
  ASSERT_EQ(order.size(), g.block_count());
  EXPECT_EQ(order.front(), g.entry());
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (BlockId b = 0; b < g.block_count(); ++b) {
    EXPECT_EQ(sorted[b], b);
  }
}

TEST(Rpo, PredecessorBeforeSuccessorInAcyclicGraph) {
  Cfg g;
  for (int i = 0; i < 4; ++i) g.add_block(static_cast<std::uint32_t>(i), 1);
  g.add_edge(0, 1, EdgeKind::kFallThrough);
  g.add_edge(0, 2, EdgeKind::kBranchTaken);
  g.add_edge(1, 3, EdgeKind::kJump);
  g.add_edge(2, 3, EdgeKind::kJump);
  const auto order = reverse_post_order(g);
  const auto pos = [&](BlockId b) {
    return std::find(order.begin(), order.end(), b) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
}

TEST(Rpo, UnreachableBlocksAppended) {
  Cfg g;
  g.add_block(0, 1);
  g.add_block(1, 1);  // unreachable
  const auto order = reverse_post_order(g);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(Dominators, ChainAndDiamond) {
  Cfg g;
  for (int i = 0; i < 4; ++i) g.add_block(static_cast<std::uint32_t>(i), 1);
  g.add_edge(0, 1, EdgeKind::kFallThrough);
  g.add_edge(0, 2, EdgeKind::kBranchTaken);
  g.add_edge(1, 3, EdgeKind::kJump);
  g.add_edge(2, 3, EdgeKind::kJump);
  const auto idom = immediate_dominators(g);
  EXPECT_EQ(idom[0], 0u);
  EXPECT_EQ(idom[1], 0u);
  EXPECT_EQ(idom[2], 0u);
  EXPECT_EQ(idom[3], 0u) << "join dominated by the fork, not an arm";
  EXPECT_TRUE(dominates(idom, 0, 3));
  EXPECT_FALSE(dominates(idom, 1, 3));
  EXPECT_TRUE(dominates(idom, 3, 3));
}

TEST(Dominators, LoopHeaderDominatesBody) {
  const Cfg g = loop_graph();
  const auto idom = immediate_dominators(g);
  EXPECT_TRUE(dominates(idom, 1, 2));
  EXPECT_TRUE(dominates(idom, 0, 3));
  EXPECT_FALSE(dominates(idom, 2, 1));
}

TEST(Dominators, UnreachableBlockHasNoIdom) {
  Cfg g;
  g.add_block(0, 1);
  g.add_block(1, 1);
  const auto idom = immediate_dominators(g);
  EXPECT_EQ(idom[1], kInvalidBlock);
  EXPECT_FALSE(dominates(idom, 0, 1));
}

TEST(NaturalLoops, FindsSingleLoop) {
  const Cfg g = loop_graph();
  const auto loops = natural_loops(g);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, 1u);
  EXPECT_TRUE(loops[0].contains(1));
  EXPECT_TRUE(loops[0].contains(2));
  EXPECT_FALSE(loops[0].contains(0));
  EXPECT_FALSE(loops[0].contains(3));
}

TEST(NaturalLoops, Figure1HasTwoLoops) {
  const Cfg g = figure1_cfg();
  const auto loops = natural_loops(g);
  EXPECT_EQ(loops.size(), 2u) << "the paper says Figure 1 contains two loops";
}

TEST(LoopDepths, NestedLoops) {
  // 0 -> 1 -> 2 -> 1 (inner), 2 -> 0 (outer) ... build explicit nest:
  Cfg g;
  for (int i = 0; i < 4; ++i) g.add_block(static_cast<std::uint32_t>(i), 1);
  g.add_edge(0, 1, EdgeKind::kFallThrough);   // outer header 0
  g.add_edge(1, 2, EdgeKind::kFallThrough);   // inner header 1
  g.add_edge(2, 1, EdgeKind::kBranchTaken);   // inner back edge
  g.add_edge(2, 0, EdgeKind::kBranchTaken);   // outer back edge
  g.add_edge(2, 3, EdgeKind::kFallThrough);   // exit
  g.normalize_probabilities();
  const auto depth = loop_depths(g);
  EXPECT_EQ(depth[0], 1u);
  EXPECT_EQ(depth[1], 2u);
  EXPECT_EQ(depth[2], 2u);
  EXPECT_EQ(depth[3], 0u);
}

TEST(Frontier, DistanceOneIsSuccessors) {
  const Cfg g = loop_graph();
  EXPECT_EQ(frontier_within(g, 0, 1), (std::vector<BlockId>{1}));
  EXPECT_EQ(frontier_within(g, 1, 1), (std::vector<BlockId>{2, 4}));
}

TEST(Frontier, GrowsWithK) {
  const Cfg g = loop_graph();
  const auto f1 = frontier_within(g, 0, 1);
  const auto f2 = frontier_within(g, 0, 2);
  const auto f3 = frontier_within(g, 0, 3);
  EXPECT_TRUE(std::includes(f2.begin(), f2.end(), f1.begin(), f1.end()));
  EXPECT_TRUE(std::includes(f3.begin(), f3.end(), f2.begin(), f2.end()));
  EXPECT_EQ(f2, (std::vector<BlockId>{1, 2, 4}));
}

TEST(Frontier, KZeroIsEmpty) {
  const Cfg g = loop_graph();
  EXPECT_TRUE(frontier_within(g, 0, 0).empty());
}

TEST(Frontier, SelfReachableViaCycle) {
  const Cfg g = loop_graph();
  // 1 -> 2 -> 1: block 1 re-reaches itself within 2 edges.
  const auto f = frontier_within(g, 1, 2);
  EXPECT_TRUE(std::binary_search(f.begin(), f.end(), 1u));
}

TEST(Frontier, ExitBlockHasEmptyFrontier) {
  const Cfg g = loop_graph();
  EXPECT_TRUE(frontier_within(g, 4, 5).empty());
}

/// 0 -> 0 (self-loop), 0 -> 1 -> 2.
Cfg self_loop_graph() {
  Cfg g;
  for (int i = 0; i < 3; ++i) {
    g.add_block(static_cast<std::uint32_t>(i * 4), 4);
  }
  g.add_edge(0, 0, EdgeKind::kBranchTaken);
  g.add_edge(0, 1, EdgeKind::kFallThrough);
  g.add_edge(1, 2, EdgeKind::kFallThrough);
  g.normalize_probabilities();
  return g;
}

/// 0 -> {1, 2} -> 3 with an unreachable block 4.
Cfg diamond_graph() {
  Cfg g;
  for (int i = 0; i < 5; ++i) {
    g.add_block(static_cast<std::uint32_t>(i * 4), 4);
  }
  g.add_edge(0, 1, EdgeKind::kFallThrough);
  g.add_edge(0, 2, EdgeKind::kBranchTaken);
  g.add_edge(1, 3, EdgeKind::kJump);
  g.add_edge(2, 3, EdgeKind::kJump);
  g.normalize_probabilities();
  return g;
}

TEST(Frontier, SelfLoopGraphPinned) {
  const Cfg g = self_loop_graph();
  EXPECT_EQ(frontier_within(g, 0, 1), (std::vector<BlockId>{0, 1}));
  EXPECT_EQ(frontier_within(g, 0, 2), (std::vector<BlockId>{0, 1, 2}));
  EXPECT_EQ(frontier_within(g, 1, 2), (std::vector<BlockId>{2}));
}

TEST(Frontier, DiamondGraphPinned) {
  const Cfg g = diamond_graph();
  EXPECT_EQ(frontier_within(g, 0, 1), (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(frontier_within(g, 0, 2), (std::vector<BlockId>{1, 2, 3}));
  EXPECT_EQ(frontier_within(g, 0, 8), (std::vector<BlockId>{1, 2, 3}))
      << "unreachable block 4 never enters the frontier";
  EXPECT_TRUE(frontier_within(g, 4, 8).empty());
}

TEST(FrontierDistances, MatchFrontierAndEdgeDistance) {
  // Seeded random programs add what the hand-built graphs lack: call and
  // return edges, nested loops, and cycles through several functions.
  std::vector<Cfg> graphs = {loop_graph(), self_loop_graph(),
                             diamond_graph(), figure2_cfg()};
  for (const std::uint64_t seed : {3u, 11u}) {
    workloads::RandomProgramOptions options;
    options.seed = seed;
    graphs.push_back(workloads::make_random_workload(options).cfg);
  }
  for (const Cfg& g : graphs) {
    // One scratch for the whole graph, as FrontierCache uses it: every
    // call must leave it all-UINT_MAX for the next.
    std::vector<unsigned> dist(g.block_count(), UINT_MAX);
    std::vector<FrontierEntry> entries;
    for (BlockId from = 0; from < g.block_count(); ++from) {
      for (const unsigned k : {0u, 1u, 2u, 3u, 8u}) {
        frontier_distances(g, from, k, dist, entries);
        std::vector<BlockId> blocks;
        for (const auto& e : entries) blocks.push_back(e.block);
        std::sort(blocks.begin(), blocks.end());
        EXPECT_EQ(blocks, frontier_within(g, from, k));
        for (const auto& e : entries) {
          EXPECT_EQ(e.distance, edge_distance(g, from, e.block).value());
          EXPECT_GE(e.distance, 1u);
          EXPECT_LE(e.distance, k);
        }
        // Sorted by (distance, id): the planner's request order.
        for (std::size_t i = 1; i < entries.size(); ++i) {
          const auto& a = entries[i - 1];
          const auto& b = entries[i];
          EXPECT_TRUE(a.distance < b.distance ||
                      (a.distance == b.distance && a.block < b.block));
        }
      }
    }
    EXPECT_TRUE(std::all_of(dist.begin(), dist.end(),
                            [](unsigned d) { return d == UINT_MAX; }))
        << "the distance scratch was not restored";
  }
}

TEST(EdgeDistance, BasicDistances) {
  const Cfg g = loop_graph();
  EXPECT_EQ(edge_distance(g, 0, 1).value(), 1u);
  EXPECT_EQ(edge_distance(g, 0, 3).value(), 3u);
  EXPECT_EQ(edge_distance(g, 3, 0), std::nullopt);
}

TEST(EdgeDistance, SelfDistanceIsShortestCycle) {
  const Cfg g = loop_graph();
  // 1 -> 2 -> 1 is the shortest cycle through 1 and 2.
  EXPECT_EQ(edge_distance(g, 1, 1).value(), 2u);
  EXPECT_EQ(edge_distance(g, 2, 2).value(), 2u);
  // No cycle returns to 0, 3 or 4.
  EXPECT_EQ(edge_distance(g, 0, 0), std::nullopt);
  EXPECT_EQ(edge_distance(g, 3, 3), std::nullopt);
  EXPECT_EQ(edge_distance(g, 4, 4), std::nullopt);
}

TEST(EdgeDistance, SelfLoopDistanceIsOne) {
  const Cfg g = self_loop_graph();
  EXPECT_EQ(edge_distance(g, 0, 0).value(), 1u);
  EXPECT_EQ(edge_distance(g, 1, 1), std::nullopt);
}

TEST(EdgeDistance, Figure2B1ToB7IsExactlyThree) {
  const Cfg g = figure2_cfg();
  // The paper: "from the end of B1 to the beginning of B7, there are at
  // most 3 edges that need to be traversed" -- and no shorter path.
  EXPECT_EQ(edge_distance(g, 1, 7).value(), 3u);
}

/// reach_scores into a fresh scratch.
std::vector<ReachScore> scores_of(const Cfg& g, BlockId from, unsigned k) {
  ReachScratch scratch;
  std::vector<ReachScore> scores;
  reach_scores(g, from, k, scratch, scores);
  return scores;
}

TEST(ReachScores, SortedAndPositive) {
  const Cfg g = loop_graph();
  const auto scores = scores_of(g, 0, 3);
  ASSERT_FALSE(scores.empty());
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_GE(scores[i - 1].score, scores[i].score);
  }
  for (const auto& s : scores) {
    EXPECT_GT(s.score, 0.0);
    EXPECT_GE(s.min_distance, 1u);
    EXPECT_LE(s.min_distance, 3u);
  }
}

TEST(ReachScores, FollowsProbabilityMass) {
  // 0 -> 1 (p=0.9), 0 -> 2 (p=0.1).
  Cfg g;
  for (int i = 0; i < 3; ++i) g.add_block(static_cast<std::uint32_t>(i), 1);
  g.add_edge(0, 1, EdgeKind::kBranchTaken, 0.9);
  g.add_edge(0, 2, EdgeKind::kFallThrough, 0.1);
  g.normalize_probabilities();
  const auto scores = scores_of(g, 0, 1);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0].block, 1u);
  EXPECT_NEAR(scores[0].score, 0.9, 1e-9);
  EXPECT_EQ(scores[1].block, 2u);
}

TEST(ReachScores, KZeroEmpty) {
  const Cfg g = loop_graph();
  EXPECT_TRUE(scores_of(g, 0, 0).empty());
}

}  // namespace
}  // namespace apcc::cfg
