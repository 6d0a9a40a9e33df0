// Structural checks that the reconstructed paper figures satisfy every
// property the DATE'05 text asserts about them.
#include <gtest/gtest.h>

#include <algorithm>

#include "cfg/analysis.hpp"
#include "cfg/paper_graphs.hpp"

namespace apcc::cfg {
namespace {

TEST(Figure1, ShapeAndEntry) {
  const Cfg g = figure1_cfg();
  EXPECT_EQ(g.block_count(), 6u);
  EXPECT_EQ(g.entry(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Figure1, BranchArmsAndJoin) {
  const Cfg g = figure1_cfg();
  EXPECT_NE(g.find_edge(0, 1), Cfg::kNoEdge);
  EXPECT_NE(g.find_edge(0, 2), Cfg::kNoEdge);
  EXPECT_NE(g.find_edge(1, 3), Cfg::kNoEdge) << "edge a";
  EXPECT_NE(g.find_edge(3, 4), Cfg::kNoEdge) << "edge b";
}

TEST(Figure1, ContainsTwoLoops) {
  const auto loops = natural_loops(figure1_cfg());
  EXPECT_EQ(loops.size(), 2u);
}

TEST(Figure1, TraceFollowsLeftBranch) {
  const auto trace = figure1_trace();
  EXPECT_EQ(trace, (BlockTrace{0, 1, 3, 4}));
  EXPECT_NO_THROW(validate_trace(figure1_cfg(), trace));
}

TEST(Figure2, ShapeAndExit) {
  const Cfg g = figure2_cfg();
  EXPECT_EQ(g.block_count(), 10u);
  EXPECT_TRUE(g.block(9).is_exit);
  EXPECT_NO_THROW(g.validate());
}

TEST(Figure2, B7IsExactlyThreeEdgesFromB1) {
  const Cfg g = figure2_cfg();
  // k=3 pre-decompression triggers at the end of B1 for B7, so B7 must be
  // within 3 edges but NOT within 2.
  EXPECT_EQ(edge_distance(g, 1, 7).value(), 3u);
  const auto f2 = frontier_within(g, 1, 2);
  EXPECT_FALSE(std::binary_search(f2.begin(), f2.end(), BlockId{7}));
  const auto f3 = frontier_within(g, 1, 3);
  EXPECT_TRUE(std::binary_search(f3.begin(), f3.end(), BlockId{7}));
}

TEST(Figure2, PreAllExampleBlocksWithinTwoOfB0) {
  const Cfg g = figure2_cfg();
  // §4: with k=2 and B4, B5, B8, B9 compressed, pre-decompress-all
  // decompresses exactly those four -- so all must lie within 2 edges of
  // the exit of B0.
  const auto f2 = frontier_within(g, 0, 2);
  for (const BlockId b : {4u, 5u, 8u, 9u}) {
    EXPECT_TRUE(std::binary_search(f2.begin(), f2.end(), b))
        << "B" << b << " must be within 2 edges of B0";
  }
}

TEST(Figure2, Figure4TraceIsAPath) {
  EXPECT_NO_THROW(validate_trace(figure2_cfg(), figure4_trace()));
  EXPECT_EQ(figure4_trace().front(), 0u);
  EXPECT_EQ(figure4_trace().back(), 9u);
}

TEST(Figure5, ShapeAndBackEdge) {
  const Cfg g = figure5_cfg();
  EXPECT_EQ(g.block_count(), 4u);
  EXPECT_NE(g.find_edge(0, 1), Cfg::kNoEdge);
  EXPECT_NE(g.find_edge(0, 2), Cfg::kNoEdge);
  EXPECT_NE(g.find_edge(1, 0), Cfg::kNoEdge) << "loop back edge";
  EXPECT_NE(g.find_edge(1, 3), Cfg::kNoEdge);
  EXPECT_NE(g.find_edge(2, 3), Cfg::kNoEdge);
  EXPECT_TRUE(g.block(3).is_exit);
}

TEST(Figure5, AccessPatternMatchesPaper) {
  EXPECT_EQ(figure5_trace(), (BlockTrace{0, 1, 0, 1, 3}));
  EXPECT_NO_THROW(validate_trace(figure5_cfg(), figure5_trace()));
}

TEST(PaperGraphs, BlockNotesAreBn) {
  const Cfg g = figure2_cfg();
  EXPECT_EQ(g.note(0), "B0");
  EXPECT_EQ(g.note(9), "B9");
}

TEST(PaperGraphs, SizesVaryWhenRequested) {
  PaperGraphOptions opts;
  opts.vary_sizes = true;
  const Cfg g = figure1_cfg(opts);
  EXPECT_NE(g.block(0).word_count, g.block(5).word_count);

  opts.vary_sizes = false;
  const Cfg uniform = figure1_cfg(opts);
  EXPECT_EQ(uniform.block(0).word_count, uniform.block(5).word_count);
}

TEST(PaperGraphs, BlocksLaidOutContiguously) {
  const Cfg g = figure5_cfg();
  std::uint32_t cursor = 0;
  for (const auto& b : g.blocks()) {
    EXPECT_EQ(b.first_word, cursor);
    cursor += b.word_count;
  }
}

TEST(PaperGraphs, ProbabilitiesNormalised) {
  for (const Cfg& g : {figure1_cfg(), figure2_cfg(), figure5_cfg()}) {
    for (const auto& b : g.blocks()) {
      if (g.out_edges(b.id).empty()) continue;
      double total = 0;
      for (const EdgeId e : g.out_edges(b.id)) {
        total += g.edge(e).probability;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace apcc::cfg
