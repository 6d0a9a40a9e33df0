// FrontierCache tests: the materialized cache every planner reads must
// hold exactly the candidate lists an independent per-exit BFS computes,
// in the same (distance, id) order, refuse reads before it is built, and
// be stored flat, 4 bytes per entry, with resident_bytes() the exact
// size of its arrays. A cache built for a trace's exits must hold the
// every-block cache's list at each of them and refuse every other read.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cfg/paper_graphs.hpp"
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

/// A CFG with the trace a run steps over it.
struct TracedGraph {
  std::string name;
  cfg::Cfg cfg;
  cfg::BlockTrace trace;
};

/// The 8 suite kernels, the paper's figure graphs with their access
/// patterns, and the first four of artifact-churn's 2.4k-block programs.
const std::vector<TracedGraph>& traced_graphs() {
  static const std::vector<TracedGraph> all = [] {
    std::vector<TracedGraph> out;
    const auto add = [&out](workloads::Workload w) {
      out.push_back({w.name, std::move(w.cfg), std::move(w.trace)});
    };
    for (const auto kind : workloads::all_workload_kinds()) {
      add(workloads::make_workload(kind));
    }
    out.push_back({"figure1", cfg::figure1_cfg(), cfg::figure1_trace()});
    out.push_back({"figure4", cfg::figure2_cfg(), cfg::figure4_trace()});
    out.push_back({"figure5", cfg::figure5_cfg(), cfg::figure5_trace()});
    for (std::uint64_t seed = 9001; seed <= 9004; ++seed) {
      workloads::RandomProgramOptions churn;
      churn.seed = seed;
      churn.max_depth = 3;
      churn.statements_per_body = 40;
      churn.leaf_functions = 16;
      churn.loop_iters_max = 6;
      add(workloads::make_random_workload(churn));
    }
    return out;
  }();
  return all;
}

/// The what() of the CheckError a read of `block` throws, or "" when it
/// does not throw.
std::string read_error(const FrontierCache& cache, cfg::BlockId block) {
  try {
    (void)cache.candidates(block);
  } catch (const apcc::CheckError& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kUnexitedRead =
    "FrontierCache has no list for a block its trace never exits";

TEST(FrontierCache, TraceExitCacheHoldsTheEveryBlockListAtEveryExit) {
  // A run reads geometry only where its trace exits a block, so the
  // cache built for those exits must give each of them the every-block
  // cache's list, id for id and in order, and refuse every other block.
  for (const TracedGraph& g : traced_graphs()) {
    const std::vector<bool> exited = cfg::exited_blocks(g.cfg, g.trace);
    for (const unsigned k : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(g.name + " k " + std::to_string(k));
      FrontierCache every(g.cfg, k);
      every.materialize();
      FrontierCache restricted(g.cfg, k);
      restricted.materialize(g.trace);
      EXPECT_TRUE(restricted.materialized());
      EXPECT_EQ(restricted.k(), k);
      for (cfg::BlockId b = 0; b < g.cfg.block_count(); ++b) {
        if (exited[b]) {
          expect_same_list(restricted.candidates(b), every.candidates(b), b,
                           k);
        } else {
          EXPECT_NE(read_error(restricted, b).find(kUnexitedRead),
                    std::string::npos)
              << "block " << b << " is never exited";
        }
      }
    }
  }
}

TEST(FrontierCache, ReadOfAnUnexitedBlockThrowsAFixedMessage) {
  // Figure 5's access pattern B0, B1, B0, B1, B3 exits B0 and B1 only.
  // B2 is never entered and B3 is entered last, so neither has a list:
  // both reads throw, with the same message, whichever block it is.
  const cfg::Cfg graph = cfg::figure5_cfg();
  FrontierCache cache(graph, 2);
  cache.materialize(cfg::figure5_trace());
  EXPECT_FALSE(cache.candidates(0).empty());
  EXPECT_FALSE(cache.candidates(1).empty());
  const std::string unentered = read_error(cache, 2);
  const std::string entered_last = read_error(cache, 3);
  EXPECT_NE(unentered.find(kUnexitedRead), std::string::npos) << unentered;
  EXPECT_EQ(entered_last, unentered);
  EXPECT_THROW((void)cache.candidates(4), apcc::CheckError)
      << "a block id out of range is refused before the mark is read";
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

TEST(FrontierCache, TraceExitResidentBytesAreTheArraysHeld) {
  // Built for a trace, the cache holds the exited blocks' lists and the
  // whole (B+1)-entry offset table, nothing else: a trace of one entry
  // exits no block, so its cache is the offset table alone.
  for (const TracedGraph& g : traced_graphs()) {
    SCOPED_TRACE(g.name);
    const std::vector<bool> exited = cfg::exited_blocks(g.cfg, g.trace);
    FrontierCache every(g.cfg, 4);
    every.materialize();
    FrontierCache cache(g.cfg, 4);
    EXPECT_EQ(cache.resident_bytes(), 0u);
    cache.materialize(g.trace);
    std::uint64_t entries = 0;
    for (cfg::BlockId b = 0; b < g.cfg.block_count(); ++b) {
      if (exited[b]) entries += every.candidates(b).size();
    }
    const std::uint64_t offsets = (g.cfg.block_count() + 1) * 4;
    EXPECT_EQ(cache.resident_bytes(), entries * 4 + offsets);

    FrontierCache none(g.cfg, 4);
    none.materialize(cfg::BlockTrace{g.trace.front()});
    EXPECT_TRUE(none.materialized());
    EXPECT_EQ(none.resident_bytes(), offsets);
    EXPECT_THROW((void)none.candidates(g.trace.front()), apcc::CheckError);
  }
}

}  // namespace
}  // namespace apcc::runtime
