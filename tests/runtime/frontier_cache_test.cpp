// FrontierCache tests: a materialized (shareable) cache must hold
// exactly the candidate lists a per-cell lazy cache computes, so a cell
// that borrows the Service's cached geometry cannot step differently
// from one that owns its own.
#include <gtest/gtest.h>

#include "runtime/frontier_cache.hpp"
#include "workloads/suite.hpp"

namespace apcc::runtime {
namespace {

TEST(FrontierCache, MaterializedCacheHoldsTheSameListsAsALazyOne) {
  // The geometry-sharing invariant at its root: a materialized cache
  // hands out exactly the lists a per-cell lazy cache would compute,
  // for every block and every k a grid would key on.
  const workloads::Workload workload =
      workloads::make_workload(workloads::WorkloadKind::kAdpcmLike);
  const cfg::Cfg& graph = workload.cfg;
  for (const unsigned k : {1u, 4u}) {
    FrontierCache shared(graph, k);
    shared.materialize();
    EXPECT_TRUE(shared.materialized());
    EXPECT_EQ(shared.k(), k);
    const FrontierCache lazy(graph, k);
    for (cfg::BlockId b = 0; b < graph.block_count(); ++b) {
      const auto got = shared.candidates(b);
      const auto want = lazy.candidates(b);
      ASSERT_EQ(got.size(), want.size()) << "block " << b << " k " << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].block, want[i].block);
        EXPECT_EQ(got[i].distance, want[i].distance);
      }
    }
  }
}

}  // namespace
}  // namespace apcc::runtime
