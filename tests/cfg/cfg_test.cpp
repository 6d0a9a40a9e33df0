// Core CFG data structure tests: construction, edges, probabilities,
// validation, DOT export.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "cfg/dot.hpp"
#include "support/assert.hpp"

namespace apcc::cfg {
namespace {

Cfg diamond() {
  // 0 -> {1, 2} -> 3
  Cfg g;
  g.add_block(0, 4, "A");
  g.add_block(4, 4, "B");
  g.add_block(8, 4, "C");
  g.add_block(12, 4, "D");
  g.add_edge(0, 1, EdgeKind::kBranchTaken);
  g.add_edge(0, 2, EdgeKind::kFallThrough);
  g.add_edge(1, 3, EdgeKind::kJump);
  g.add_edge(2, 3, EdgeKind::kFallThrough);
  return g;
}

TEST(Cfg, BlockAndEdgeAccounting) {
  const Cfg g = diamond();
  EXPECT_EQ(g.block_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.entry(), 0u);
  EXPECT_EQ(g.note(1), "B");
  EXPECT_EQ(g.block(2).size_bytes(), 16u);
}

TEST(Cfg, SuccessorsAndPredecessors) {
  const Cfg g = diamond();
  std::vector<BlockId> successors;
  for (const EdgeId e : g.out_edges(0)) successors.push_back(g.edge(e).to);
  std::vector<BlockId> predecessors;
  for (const EdgeId e : g.in_edges(3)) predecessors.push_back(g.edge(e).from);
  EXPECT_EQ(successors, (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(predecessors, (std::vector<BlockId>{1, 2}));
  EXPECT_TRUE(g.out_edges(3).empty());
  EXPECT_TRUE(g.in_edges(0).empty());
}

TEST(Cfg, FindEdge) {
  const Cfg g = diamond();
  EXPECT_NE(g.find_edge(0, 1), Cfg::kNoEdge);
  EXPECT_EQ(g.find_edge(1, 0), Cfg::kNoEdge);
  EXPECT_EQ(g.find_edge(3, 3), Cfg::kNoEdge);
}

TEST(Cfg, DuplicateEdgeRejected) {
  Cfg g = diamond();
  EXPECT_THROW(g.add_edge(0, 1, EdgeKind::kBranchTaken), CheckError);
  // Same endpoints with a different kind is allowed (call + fallthrough).
  EXPECT_NO_THROW(g.add_edge(0, 1, EdgeKind::kJump));
}

TEST(Cfg, EdgeEndpointRangeChecked) {
  Cfg g = diamond();
  EXPECT_THROW(g.add_edge(0, 42, EdgeKind::kJump), CheckError);
  EXPECT_THROW(g.add_edge(42, 0, EdgeKind::kJump), CheckError);
}

TEST(Cfg, NormalizeUniformWhenUnset) {
  Cfg g = diamond();
  g.normalize_probabilities();
  double total = 0;
  for (const EdgeId e : g.out_edges(0)) {
    EXPECT_DOUBLE_EQ(g.edge(e).probability, 0.5);
    total += g.edge(e).probability;
  }
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(Cfg, NormalizePreservesSetRatios) {
  Cfg g = diamond();
  g.edge(g.find_edge(0, 1)).probability = 3.0;
  g.edge(g.find_edge(0, 2)).probability = 1.0;
  g.normalize_probabilities();
  EXPECT_DOUBLE_EQ(g.edge(g.find_edge(0, 1)).probability, 0.75);
  EXPECT_DOUBLE_EQ(g.edge(g.find_edge(0, 2)).probability, 0.25);
}

TEST(Cfg, NormalizeMixedSetAndUnset) {
  Cfg g = diamond();
  g.edge(g.find_edge(0, 1)).probability = 0.25;
  g.normalize_probabilities();
  EXPECT_DOUBLE_EQ(g.edge(g.find_edge(0, 1)).probability, 0.25);
  EXPECT_DOUBLE_EQ(g.edge(g.find_edge(0, 2)).probability, 0.75);
}

TEST(Cfg, TotalCodeBytes) {
  const Cfg g = diamond();
  EXPECT_EQ(g.total_code_bytes(), 64u);
}

TEST(Cfg, ValidatePassesOnWellFormedGraph) {
  Cfg g = diamond();
  g.normalize_probabilities();
  EXPECT_NO_THROW(g.validate());
}

TEST(Cfg, SetEntryChecked) {
  Cfg g = diamond();
  EXPECT_THROW(g.set_entry(99), CheckError);
  g.set_entry(2);
  EXPECT_EQ(g.entry(), 2u);
}

TEST(Cfg, OutOfRangeAccessThrows) {
  const Cfg g = diamond();
  EXPECT_THROW((void)g.block(99), CheckError);
  EXPECT_THROW((void)g.edge(99), CheckError);
}

TEST(Cfg, NotesOnlyForTheBlocksGivenOne) {
  Cfg g;
  g.add_block(0, 1);
  g.add_block(1, 1, "f");
  g.add_block(2, 1);
  g.add_block(3, 1);
  g.add_block(4, 1, "a_function_name_past_the_small_string_buffer");
  g.add_block(5, 1);
  EXPECT_EQ(g.note(0), "");
  EXPECT_EQ(g.note(1), "f");
  EXPECT_EQ(g.note(2), "");
  EXPECT_EQ(g.note(3), "");
  EXPECT_EQ(g.note(4), "a_function_name_past_the_small_string_buffer");
  EXPECT_EQ(g.note(5), "");
  EXPECT_THROW((void)g.note(6), CheckError);
  EXPECT_NO_THROW(g.validate());
}

TEST(Cfg, EdgeKindsKeptPerEdge) {
  const Cfg g = diamond();
  EXPECT_EQ(g.edge_kind(0), EdgeKind::kBranchTaken);
  EXPECT_EQ(g.edge_kind(1), EdgeKind::kFallThrough);
  EXPECT_EQ(g.edge_kind(2), EdgeKind::kJump);
  EXPECT_THROW((void)g.edge_kind(4), CheckError);
}

// The shapes a one-tail circular edge list can get wrong. Each case
// checks both lists' order, find_edge, size()/empty() and validate().

std::vector<EdgeId> listed(const Cfg::EdgeList& list) {
  return {list.begin(), list.end()};
}

TEST(CircularLists, SelfLoopIsInBothListsOfItsBlock) {
  Cfg g;
  g.add_block(0, 4);
  g.add_block(4, 4);
  const EdgeId loop = g.add_edge(0, 0, EdgeKind::kBranchTaken);
  EXPECT_EQ(listed(g.out_edges(0)), (std::vector<EdgeId>{loop}));
  EXPECT_EQ(listed(g.in_edges(0)), (std::vector<EdgeId>{loop}));
  EXPECT_EQ(g.out_edges(0).size(), 1u);
  EXPECT_EQ(g.in_edges(0).size(), 1u);
  EXPECT_EQ(g.find_edge(0, 0), loop);
  EXPECT_NO_THROW(g.validate());
  // Edges on either side of the loop join the same two circles.
  const EdgeId exit = g.add_edge(0, 1, EdgeKind::kFallThrough);
  const EdgeId back = g.add_edge(1, 0, EdgeKind::kJump);
  EXPECT_EQ(listed(g.out_edges(0)), (std::vector<EdgeId>{loop, exit}));
  EXPECT_EQ(listed(g.in_edges(0)), (std::vector<EdgeId>{loop, back}));
  EXPECT_EQ(listed(g.out_edges(1)), (std::vector<EdgeId>{back}));
  EXPECT_EQ(listed(g.in_edges(1)), (std::vector<EdgeId>{exit}));
  EXPECT_EQ(g.find_edge(0, 0), loop);
  EXPECT_EQ(g.find_edge(0, 1), exit);
  EXPECT_EQ(g.find_edge(1, 0), back);
  EXPECT_EQ(g.find_edge(1, 1), Cfg::kNoEdge);
  EXPECT_NO_THROW(g.validate());
}

TEST(CircularLists, OneEdgeListIsACircleOfOne) {
  Cfg g;
  g.add_block(0, 4);
  g.add_block(4, 4);
  const EdgeId only = g.add_edge(0, 1, EdgeKind::kJump);
  const Cfg::EdgeList out = g.out_edges(0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(*out.begin(), only);
  EXPECT_EQ(std::next(out.begin()), out.end());  // the walk stops at it
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(listed(g.in_edges(1)), (std::vector<EdgeId>{only}));
  EXPECT_TRUE(g.in_edges(0).empty());
  EXPECT_EQ(g.in_edges(0).size(), 0u);
  EXPECT_TRUE(g.out_edges(1).empty());
  EXPECT_EQ(g.find_edge(0, 1), only);
  EXPECT_EQ(g.find_edge(1, 0), Cfg::kNoEdge);
  EXPECT_NO_THROW(g.validate());
}

TEST(CircularLists, EdgesAddedAfterOtherBlocksEdgesKeepIdOrder) {
  // Each block's lists gain edges interleaved with other blocks', so a
  // list's successive ids are far apart and its last edge changes after
  // other lists have closed their circles.
  Cfg g;
  for (int i = 0; i < 4; ++i) g.add_block(4 * i, 4);
  g.add_edge(0, 1, EdgeKind::kFallThrough);  // 0
  g.add_edge(1, 2, EdgeKind::kFallThrough);  // 1
  g.add_edge(2, 3, EdgeKind::kFallThrough);  // 2
  g.add_edge(3, 0, EdgeKind::kJump);         // 3
  g.add_edge(0, 2, EdgeKind::kBranchTaken);  // 4
  g.add_edge(2, 0, EdgeKind::kBranchTaken);  // 5
  g.add_edge(0, 3, EdgeKind::kCall);         // 6
  g.add_edge(1, 0, EdgeKind::kReturn);       // 7
  EXPECT_EQ(listed(g.out_edges(0)), (std::vector<EdgeId>{0, 4, 6}));
  EXPECT_EQ(listed(g.in_edges(0)), (std::vector<EdgeId>{3, 5, 7}));
  EXPECT_EQ(listed(g.out_edges(1)), (std::vector<EdgeId>{1, 7}));
  EXPECT_EQ(listed(g.in_edges(2)), (std::vector<EdgeId>{1, 4}));
  EXPECT_EQ(listed(g.out_edges(2)), (std::vector<EdgeId>{2, 5}));
  EXPECT_EQ(listed(g.in_edges(3)), (std::vector<EdgeId>{2, 6}));
  EXPECT_EQ(g.out_edges(0).size(), 3u);
  EXPECT_EQ(g.in_edges(1).size(), 1u);
  EXPECT_FALSE(g.out_edges(3).empty());
  EXPECT_EQ(g.find_edge(0, 3), 6u);
  EXPECT_EQ(g.find_edge(1, 0), 7u);
  EXPECT_EQ(g.find_edge(3, 1), Cfg::kNoEdge);
  EXPECT_NO_THROW(g.validate());
}

TEST(CircularLists, AddEdgeAfterShrinkToFit) {
  Cfg g = diamond();
  g.shrink_to_fit();
  const EdgeId back = g.add_edge(3, 0, EdgeKind::kJump);
  const EdgeId skip = g.add_edge(0, 3, EdgeKind::kBranchTaken);
  const EdgeId loop = g.add_edge(3, 3, EdgeKind::kBranchTaken);
  EXPECT_EQ(listed(g.out_edges(0)), (std::vector<EdgeId>{0, 1, skip}));
  EXPECT_EQ(listed(g.in_edges(0)), (std::vector<EdgeId>{back}));
  EXPECT_EQ(listed(g.out_edges(3)), (std::vector<EdgeId>{back, loop}));
  EXPECT_EQ(listed(g.in_edges(3)), (std::vector<EdgeId>{2, 3, skip, loop}));
  EXPECT_EQ(g.in_edges(3).size(), 4u);
  EXPECT_FALSE(g.in_edges(0).empty());
  EXPECT_EQ(g.find_edge(0, 3), skip);
  EXPECT_EQ(g.find_edge(3, 3), loop);
  EXPECT_EQ(g.edge_kind(skip), EdgeKind::kBranchTaken);
  EXPECT_NO_THROW(g.validate());
  g.add_block(16, 4, "E");
  g.add_edge(3, 4, EdgeKind::kFallThrough);
  EXPECT_EQ(g.note(4), "E");
  EXPECT_EQ(listed(g.out_edges(3)), (std::vector<EdgeId>{back, loop, 7}));
  EXPECT_NO_THROW(g.validate());
}

TEST(Dot, ContainsNodesAndEdges) {
  Cfg g = diamond();
  g.normalize_probabilities();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("A"), std::string::npos);
}

TEST(Dot, EscapesQuotes) {
  Cfg g;
  g.add_block(0, 1, "say \"hi\"");
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("\\\"hi\\\""), std::string::npos);
}

TEST(EdgeKindNames, AllDistinct) {
  EXPECT_STREQ(edge_kind_name(EdgeKind::kFallThrough), "fallthrough");
  EXPECT_STREQ(edge_kind_name(EdgeKind::kBranchTaken), "taken");
  EXPECT_STREQ(edge_kind_name(EdgeKind::kJump), "jump");
  EXPECT_STREQ(edge_kind_name(EdgeKind::kCall), "call");
  EXPECT_STREQ(edge_kind_name(EdgeKind::kReturn), "return");
}

}  // namespace
}  // namespace apcc::cfg
