// The adjacency-order contract every golden relies on: a block's
// out_edges(b) / in_edges(b) are exactly the edges whose `from` / `to`
// is b, in ascending edge id (insertion order). reach_scores' sums, BFS
// and DFS visit orders, the loop analyses and the DOT output all walk
// these lists, so a change of order shows up in every reproduction
// table; this test names the contract directly, over every suite
// kernel, the paper's figure graphs and three artifact-churn-shaped
// random programs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "cfg/paper_graphs.hpp"
#include "support/assert.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::cfg {
namespace {

struct NamedCfg {
  std::string name;
  Cfg cfg;
};

std::vector<NamedCfg> graphs_under_contract() {
  std::vector<NamedCfg> out;
  for (const auto kind : workloads::all_workload_kinds()) {
    out.push_back({workloads::workload_name(kind),
                   workloads::make_workload(kind).cfg});
  }
  out.push_back({"figure1", figure1_cfg()});
  out.push_back({"figure2", figure2_cfg()});
  out.push_back({"figure5", figure5_cfg()});
  for (std::uint64_t seed = 9001; seed <= 9003; ++seed) {
    workloads::RandomProgramOptions opts;  // artifact-churn's shape
    opts.seed = seed;
    opts.max_depth = 3;
    opts.statements_per_body = 40;
    opts.leaf_functions = 16;
    opts.loop_iters_max = 6;
    out.push_back({"random-" + std::to_string(seed),
                   workloads::make_random_workload(opts).cfg});
  }
  return out;
}

std::vector<EdgeId> listed(const Cfg::EdgeList& list) {
  return {list.begin(), list.end()};
}

TEST(AdjacencyOrder, ListsAreEndpointEdgesInAscendingId) {
  for (const auto& [name, g] : graphs_under_contract()) {
    SCOPED_TRACE(name);
    ASSERT_GT(g.edge_count(), 0u);
    std::vector<std::vector<EdgeId>> want_out(g.block_count());
    std::vector<std::vector<EdgeId>> want_in(g.block_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      want_out[g.edge(e).from].push_back(e);
      want_in[g.edge(e).to].push_back(e);
    }
    for (BlockId b = 0; b < g.block_count(); ++b) {
      ASSERT_EQ(listed(g.out_edges(b)), want_out[b]) << "out-edges of B" << b;
      ASSERT_EQ(listed(g.in_edges(b)), want_in[b]) << "in-edges of B" << b;
      EXPECT_EQ(g.out_edges(b).size(), want_out[b].size());
      EXPECT_EQ(g.out_edges(b).empty(), want_out[b].empty());
    }
    EXPECT_NO_THROW(g.validate());
  }
}

TEST(AdjacencyOrder, InsertionOrderIsNotTargetOrder) {
  // Edges added to higher targets first stay first: the lists keep
  // insertion order, never re-sort by endpoint.
  Cfg g;
  for (int i = 0; i < 4; ++i) g.add_block(4 * i, 4);
  g.add_edge(0, 3, EdgeKind::kBranchTaken);
  g.add_edge(2, 1, EdgeKind::kJump);
  g.add_edge(0, 1, EdgeKind::kFallThrough);
  g.add_edge(3, 1, EdgeKind::kReturn);
  EXPECT_EQ(listed(g.out_edges(0)), (std::vector<EdgeId>{0, 2}));
  EXPECT_EQ(g.edge(*g.out_edges(0).begin()).to, 3u);
  EXPECT_EQ(listed(g.in_edges(1)), (std::vector<EdgeId>{1, 2, 3}));
  EXPECT_EQ(g.edge(*g.in_edges(1).begin()).from, 2u);
  EXPECT_TRUE(g.in_edges(0).empty());
  EXPECT_NO_THROW(g.validate());
}

TEST(AdjacencyOrder, ValidateCatchesAnEndpointTheListsDisagreeWith) {
  // Rewiring an edge through the mutable accessor leaves it threaded on
  // its old endpoints' lists; validate() must notice.
  Cfg g;
  for (int i = 0; i < 3; ++i) g.add_block(4 * i, 4);
  g.add_edge(0, 1, EdgeKind::kFallThrough);
  g.add_edge(1, 2, EdgeKind::kFallThrough);
  EXPECT_NO_THROW(g.validate());
  g.edge(1).to = 0;
  EXPECT_THROW(g.validate(), AssertionError);
  g.edge(1).to = 2;
  g.edge(1).from = 2;
  EXPECT_THROW(g.validate(), AssertionError);
}

TEST(AdjacencyOrder, NotesLiveInTheGraph) {
  Cfg g;
  g.add_block(0, 1, "main");
  g.add_block(1, 1);
  g.add_block(2, 1, "helper");
  EXPECT_EQ(g.note(0), "main");
  EXPECT_EQ(g.note(1), "");
  EXPECT_EQ(g.note(2), "helper");
  EXPECT_THROW((void)g.note(3), CheckError);
}

}  // namespace
}  // namespace apcc::cfg
