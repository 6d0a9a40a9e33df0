// FrontierCache tests: a materialized (shareable) cache must hold
// exactly the candidate lists a per-cell lazy cache computes, so a cell
// that borrows the Service's cached geometry cannot step differently
// from one that owns its own; and both are stored flat, with
// resident_bytes() the exact size of their arrays.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/frontier_cache.hpp"
#include "support/rng.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::runtime {
namespace {

/// A suite kernel, two default random programs, and one shaped like the
/// served artifact-churn programs (16 leaves, 40 statements per body).
const std::vector<workloads::Workload>& programs() {
  static const std::vector<workloads::Workload> all = [] {
    std::vector<workloads::Workload> out;
    out.push_back(
        workloads::make_workload(workloads::WorkloadKind::kAdpcmLike));
    for (const std::uint64_t seed : {3u, 11u}) {
      workloads::RandomProgramOptions options;
      options.seed = seed;
      out.push_back(workloads::make_random_workload(options));
    }
    workloads::RandomProgramOptions churn;
    churn.seed = 9001;
    churn.max_depth = 3;
    churn.statements_per_body = 40;
    churn.leaf_functions = 16;
    churn.loop_iters_max = 6;
    out.push_back(workloads::make_random_workload(churn));
    return out;
  }();
  return all;
}

void expect_same_list(std::span<const cfg::FrontierEntry> got,
                      std::span<const cfg::FrontierEntry> want,
                      cfg::BlockId b, unsigned k) {
  ASSERT_EQ(got.size(), want.size()) << "block " << b << " k " << k;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].block, want[i].block) << "block " << b << " k " << k;
    EXPECT_EQ(got[i].distance, want[i].distance)
        << "block " << b << " k " << k;
  }
}

TEST(FrontierCache, MaterializedCacheHoldsTheSameListsAsALazyOne) {
  // The geometry-sharing invariant at its root: a materialized cache
  // hands out exactly the lists a per-cell lazy cache would compute,
  // for every block and every k a grid would key on. The lazy cache is
  // asked in a scrambled order with repeats, so its lists land in its
  // entry array out of block order.
  for (const workloads::Workload& workload : programs()) {
    const cfg::Cfg& graph = workload.cfg;
    for (const unsigned k : {1u, 4u, 8u}) {
      FrontierCache shared(graph, k);
      shared.materialize();
      EXPECT_TRUE(shared.materialized());
      EXPECT_EQ(shared.k(), k);
      const FrontierCache lazy(graph, k);
      EXPECT_FALSE(lazy.materialized());
      Rng rng(k * 7919 + graph.block_count());
      for (std::size_t i = 0; i < 2 * graph.block_count(); ++i) {
        const auto b =
            static_cast<cfg::BlockId>(rng.next_below(graph.block_count()));
        expect_same_list(shared.candidates(b), lazy.candidates(b), b, k);
      }
      for (cfg::BlockId b = 0; b < graph.block_count(); ++b) {
        expect_same_list(shared.candidates(b), lazy.candidates(b), b, k);
      }
    }
  }
}

TEST(FrontierCache, MaterializedSpansStayValidAcrossLaterCalls) {
  // A borrowing cell may hold a list while asking for others; once
  // materialized, no candidates() call moves the entry array.
  const cfg::Cfg& graph = programs().back().cfg;
  FrontierCache cache(graph, 4);
  cache.materialize();
  std::vector<std::span<const cfg::FrontierEntry>> spans;
  std::vector<std::vector<cfg::FrontierEntry>> copies;
  for (cfg::BlockId b = 0; b < graph.block_count(); ++b) {
    spans.push_back(cache.candidates(b));
    copies.emplace_back(spans.back().begin(), spans.back().end());
  }
  for (cfg::BlockId b = graph.block_count(); b-- > 0;) {
    EXPECT_EQ(cache.candidates(b).data(), spans[b].data()) << "block " << b;
  }
  for (cfg::BlockId b = 0; b < graph.block_count(); ++b) {
    expect_same_list(spans[b], copies[b], b, 4);
  }
}

TEST(FrontierCache, ResidentBytesAreTheFlatArrays) {
  // One entry array holding every list and a (B+1)-entry offset table,
  // with no slack and no lazy bookkeeping left -- materialize() frees
  // what a lazy phase allocated: exactly what an artifact budget is
  // charged.
  const cfg::Cfg& graph = programs().back().cfg;
  FrontierCache cache(graph, 4);
  (void)cache.candidates(0);  // a lazy phase: bounds and BFS scratch
  EXPECT_GT(cache.resident_bytes(),
            (graph.block_count() + 1) * sizeof(std::uint32_t));
  cache.materialize();
  std::uint64_t entries = 0;
  for (cfg::BlockId b = 0; b < graph.block_count(); ++b) {
    entries += cache.candidates(b).size();
  }
  EXPECT_EQ(cache.resident_bytes(),
            entries * sizeof(cfg::FrontierEntry) +
                (graph.block_count() + 1) * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace apcc::runtime
