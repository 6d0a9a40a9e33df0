// Core CFG data structure tests: construction, edges, probabilities,
// validation, DOT export.
#include <gtest/gtest.h>

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
