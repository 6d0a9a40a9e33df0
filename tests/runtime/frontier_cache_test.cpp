// FrontierCache tests: the materialized cache every planner reads must
// hold exactly the candidate lists an independent per-exit BFS computes,
// in the same (distance, id) order, refuse reads before it is built, and
// be stored flat, 4 bytes per entry, with resident_bytes() the exact
// size of its arrays.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/frontier_cache.hpp"
#include "support/assert.hpp"
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

// The cache stores bare ids, 4 bytes per entry (a cfg::FrontierEntry,
// with its distance, is 8).
using CandidateList =
    decltype(std::declval<const FrontierCache&>().candidates(0));
static_assert(std::is_same_v<CandidateList, std::span<const cfg::BlockId>>);
static_assert(sizeof(CandidateList::element_type) == 4);

void expect_same_list(std::span<const cfg::BlockId> got,
                      std::span<const cfg::BlockId> want, cfg::BlockId b,
                      unsigned k) {
  EXPECT_EQ(std::vector<cfg::BlockId>(got.begin(), got.end()),
            std::vector<cfg::BlockId>(want.begin(), want.end()))
      << "block " << b << " k " << k;
}

/// Block `b`'s list the lazy way, at one exit: a frontier_within BFS,
/// then one edge_distance BFS per frontier block, sorted by (distance,
/// id), keeping the ids in that order. Independent of the cache's
/// frontier_distances.
std::vector<cfg::BlockId> per_exit_list(const cfg::Cfg& graph,
                                        cfg::BlockId b, unsigned k) {
  std::vector<std::pair<unsigned, cfg::BlockId>> near;
  for (const cfg::BlockId x : cfg::frontier_within(graph, b, k)) {
    near.emplace_back(cfg::edge_distance(graph, b, x).value(), x);
  }
  std::sort(near.begin(), near.end());
  std::vector<cfg::BlockId> list;
  for (const auto& [distance, x] : near) list.push_back(x);
  return list;
}

TEST(FrontierCache, MaterializedCacheHoldsTheSameListsAsALazyOne) {
  // The geometry every planner reads, against computing it lazily at
  // each exit, for every block and every k a grid would key on. Before
  // materialize() the cache holds no lists and says so.
  for (const workloads::Workload& workload : programs()) {
    const cfg::Cfg& graph = workload.cfg;
    for (const unsigned k : {1u, 4u, 8u}) {
      FrontierCache cache(graph, k);
      EXPECT_FALSE(cache.materialized());
      EXPECT_THROW((void)cache.candidates(0), apcc::CheckError)
          << "an unmaterialized cache must refuse reads";
      cache.materialize();
      EXPECT_TRUE(cache.materialized());
      EXPECT_EQ(cache.k(), k);
      for (cfg::BlockId b = 0; b < graph.block_count(); ++b) {
        expect_same_list(cache.candidates(b), per_exit_list(graph, b, k), b,
                         k);
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
  std::vector<std::span<const cfg::BlockId>> spans;
  std::vector<std::vector<cfg::BlockId>> copies;
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
  // One id array holding every list, 4 bytes per entry, and a
  // (B+1)-entry offset table, with no slack: exactly what an artifact
  // budget is charged. The constructor computes nothing, so an unbuilt
  // cache holds no bytes.
  const cfg::Cfg& graph = programs().back().cfg;
  FrontierCache cache(graph, 4);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  cache.materialize();
  std::uint64_t entries = 0;
  for (cfg::BlockId b = 0; b < graph.block_count(); ++b) {
    entries += cache.candidates(b).size();
  }
  EXPECT_EQ(cache.resident_bytes(),
            entries * 4 + (graph.block_count() + 1) * 4);
}

}  // namespace
}  // namespace apcc::runtime
