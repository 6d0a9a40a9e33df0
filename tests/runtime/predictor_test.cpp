// Predictor tests for pre-decompress-single (§4 / E7).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "cfg/paper_graphs.hpp"
#include "runtime/frontier_cache.hpp"
#include "runtime/predictor.hpp"
#include "sim/trace_gen.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::runtime {
namespace {

TEST(ProfilePredictor, PicksHighProbabilitySuccessor) {
  cfg::Cfg g = cfg::figure5_cfg();
  // Bias B0 -> B1 heavily.
  g.edge(g.find_edge(0, 1)).probability = 0.95;
  g.edge(g.find_edge(0, 2)).probability = 0.05;
  g.normalize_probabilities();
  const ProfilePredictor p(g, 2);
  EXPECT_EQ(p.predict(0, {1, 2}, 0), 1u);
}

TEST(ProfilePredictor, RespectsCandidateFilter) {
  cfg::Cfg g = cfg::figure5_cfg();
  g.edge(g.find_edge(0, 1)).probability = 0.95;
  g.edge(g.find_edge(0, 2)).probability = 0.05;
  g.normalize_probabilities();
  const ProfilePredictor p(g, 2);
  // B1 is likelier but not a candidate (already decompressed, say).
  EXPECT_EQ(p.predict(0, {2}, 0), 2u);
}

TEST(ProfilePredictor, DeeperFrontierUsesPathProbabilities) {
  cfg::Cfg g = cfg::figure2_cfg();
  // Weight the path B0 -> B2 -> B5 heavily.
  for (cfg::EdgeId e = 0; e < g.edge_count(); ++e) {
    g.edge(e).probability = 0.0;
  }
  g.edge(g.find_edge(0, 2)).probability = 0.9;
  g.edge(g.find_edge(2, 5)).probability = 0.9;
  g.normalize_probabilities();
  const ProfilePredictor p(g, 2);
  EXPECT_EQ(p.predict(0, {4, 5, 8, 9}, 0), 5u);
}

TEST(ProfilePredictor, MemoizedRankingMatchesReachScoresOnEveryCall) {
  // predict() ranks from a per-block memo filled on the block's first
  // exit. Every later call from that block, with any candidate subset,
  // must still pick what a fresh reach_scores walk picks.
  const auto reference = [](const cfg::Cfg& g, cfg::BlockId from,
                            unsigned k,
                            const std::vector<cfg::BlockId>& candidates) {
    cfg::ReachScratch scratch;
    std::vector<cfg::ReachScore> scores;
    cfg::reach_scores(g, from, k, scratch, scores);
    for (const cfg::ReachScore& rs : scores) {
      if (std::find(candidates.begin(), candidates.end(), rs.block) !=
          candidates.end()) {
        return rs.block;
      }
    }
    return candidates.front();
  };
  const workloads::Workload gsm =
      workloads::make_workload(workloads::WorkloadKind::kGsmLike);
  workloads::RandomProgramOptions options;
  options.seed = 7;
  const workloads::Workload random = workloads::make_random_workload(options);
  for (const cfg::Cfg* g : {&gsm.cfg, &random.cfg}) {
    for (const unsigned k : {1u, 2u, 4u, 8u}) {
      const ProfilePredictor p(*g, k);
      for (int round = 0; round < 2; ++round) {
        for (cfg::BlockId from = 0; from < g->block_count(); ++from) {
          const auto frontier = cfg::frontier_within(*g, from, k);
          if (frontier.empty()) continue;
          // The whole frontier, every third block dropped at three
          // offsets, each single block, and the frontier reversed (so a
          // fallback to candidates.front() is visible).
          std::vector<std::vector<cfg::BlockId>> subsets = {frontier};
          for (std::size_t skip = 0; skip < 3; ++skip) {
            std::vector<cfg::BlockId> subset;
            for (std::size_t i = 0; i < frontier.size(); ++i) {
              if ((i + skip) % 3 != 0) subset.push_back(frontier[i]);
            }
            if (!subset.empty()) subsets.push_back(subset);
          }
          for (const cfg::BlockId b : frontier) subsets.push_back({b});
          subsets.emplace_back(frontier.rbegin(), frontier.rend());
          for (const auto& candidates : subsets) {
            EXPECT_EQ(p.predict(from, candidates, 0),
                      reference(*g, from, k, candidates))
                << "from block " << from << " k " << k << " round "
                << round << " over " << candidates.size() << " candidates";
          }
        }
      }
    }
  }
}

TEST(ProfilePredictor, EmptyCandidatesThrow) {
  const cfg::Cfg g = cfg::figure5_cfg();
  const ProfilePredictor p(g, 2);
  EXPECT_THROW((void)p.predict(0, {}, 0), apcc::CheckError);
}

TEST(StaticPredictor, PrefersDeeperLoops) {
  // figure1: B3/B4 form the inner loop; B5 is on the outer loop only.
  const cfg::Cfg g = cfg::figure1_cfg();
  const StaticPredictor p(g);
  EXPECT_EQ(p.predict(3, {4, 5}, 0), 4u)
      << "B4 sits in the deeper (inner) loop";
}

TEST(StaticPredictor, TieBreaksByDistanceThenId) {
  const cfg::Cfg g = cfg::figure2_cfg();  // acyclic: all depths 0
  const StaticPredictor p(g);
  // From B0: B1/B2 at distance 1, B3..B5 at 2 -> nearest wins.
  EXPECT_EQ(p.predict(0, {1, 3}, 0), 1u);
  // Equal depth and distance -> lowest id.
  EXPECT_EQ(p.predict(0, {1, 2}, 0), 1u);
}

TEST(StaticPredictor, PlannerOrderPicksDeepestThenNearestThenLowestId) {
  // The predictor reads only loop depth: it relies on the planner
  // handing it candidates in (distance, id) order. Fed subsets of that
  // order, it must pick what the full ranking picks -- the minimum of
  // (-loop depth, edge_distance, id), the distance from an independent
  // BFS -- on every suite kernel and two random programs.
  std::vector<workloads::Workload> programs;
  for (const auto kind : workloads::all_workload_kinds()) {
    programs.push_back(workloads::make_workload(kind));
  }
  for (const std::uint64_t seed : {3u, 11u}) {
    workloads::RandomProgramOptions options;
    options.seed = seed;
    programs.push_back(workloads::make_random_workload(options));
  }
  for (const workloads::Workload& w : programs) {
    const cfg::Cfg& g = w.cfg;
    const std::vector<unsigned> depth = cfg::loop_depths(g);
    const StaticPredictor p(g);
    for (const unsigned k : {1u, 2u, 4u, 8u}) {
      FrontierCache frontiers(g, k);
      frontiers.materialize();
      for (cfg::BlockId from = 0; from < g.block_count(); ++from) {
        const auto list = frontiers.candidates(from);
        const std::vector<cfg::BlockId> ordered(list.begin(), list.end());
        // The whole frontier and two thinned copies, order kept.
        std::vector<std::vector<cfg::BlockId>> subsets = {ordered, {}, {}};
        for (std::size_t i = 0; i < ordered.size(); ++i) {
          subsets[1 + i % 2].push_back(ordered[i]);
        }
        for (const auto& candidates : subsets) {
          if (candidates.empty()) continue;
          const auto rank = [&](cfg::BlockId b) {
            return std::tuple(-static_cast<long>(depth[b]),
                              cfg::edge_distance(g, from, b).value(), b);
          };
          const cfg::BlockId want = *std::min_element(
              candidates.begin(), candidates.end(),
              [&](cfg::BlockId a, cfg::BlockId b) {
                return rank(a) < rank(b);
              });
          EXPECT_EQ(p.predict(from, candidates, 0), want)
              << "from block " << from << " k " << k << " over "
              << candidates.size() << " candidates";
        }
      }
    }
  }
}

TEST(OraclePredictor, PicksNextReachableBeyondTheImmediateSuccessor) {
  const cfg::Cfg g = cfg::figure5_cfg();
  const cfg::BlockTrace trace = {0, 1, 0, 1, 3};
  const OraclePredictor p(g, trace);
  // The oracle skips trace_index+1 (no lead time to exploit there).
  // At index 0, candidates {0, 3}: the first hit from index 2 on is 0.
  EXPECT_EQ(p.predict(0, {0, 3}, 0), 0u);
  // At index 1, candidates {0, 3}: from index 3 on, B3 comes first
  // (trace[3] = B1 is not a candidate).
  EXPECT_EQ(p.predict(1, {0, 3}, 1), 3u);
  // At index 2, candidates {1, 3}: trace[4] = B3... but trace[3] = B1 is
  // skipped-start+0 -> index 4 is 3? From index 4: B3.
  EXPECT_EQ(p.predict(0, {3}, 2), 3u);
}

TEST(OraclePredictor, FallsBackWhenNeverReached) {
  const cfg::Cfg g = cfg::figure5_cfg();
  const cfg::BlockTrace trace = {0, 1, 3};
  const OraclePredictor p(g, trace);
  EXPECT_EQ(p.predict(0, {2}, 2), 2u) << "never reached: first candidate";
}

/// The oracle's reference: walk the trace forward from trace_index + 2
/// and take the first candidate met, or the first candidate if none is
/// met again. OraclePredictor answers from its index instead.
cfg::BlockId scan_oracle(const cfg::BlockTrace& trace,
                         const std::vector<cfg::BlockId>& candidates,
                         std::size_t trace_index) {
  for (std::size_t i = trace_index + 2; i < trace.size(); ++i) {
    if (std::find(candidates.begin(), candidates.end(), trace[i]) !=
        candidates.end()) {
      return trace[i];
    }
  }
  return candidates.front();
}

TEST(OraclePredictor, IndexPicksWhatTheTraceScanPicks) {
  // At every exit of every trace below, for the exit block's whole k-edge
  // frontier and two thinned copies of it (order kept), the indexed
  // oracle must pick the block the scan picks.
  struct Case {
    std::string name;
    cfg::Cfg cfg;
    cfg::BlockTrace trace;
  };
  std::vector<Case> cases;
  for (const auto kind : workloads::all_workload_kinds()) {
    auto w = workloads::make_workload(kind);
    cases.push_back({w.name, std::move(w.cfg), std::move(w.trace)});
  }
  workloads::WorkloadOptions scale16;
  scale16.scale = 16;
  {
    auto w = workloads::make_workload(workloads::WorkloadKind::kAdpcmLike,
                                      scale16);
    cases.push_back({w.name + "@16", std::move(w.cfg), std::move(w.trace)});
  }
  workloads::RandomProgramOptions churn;  // artifact-churn's shape
  churn.seed = 9001;
  churn.max_depth = 3;
  churn.statements_per_body = 40;
  churn.leaf_functions = 16;
  churn.loop_iters_max = 6;
  {
    auto w = workloads::make_random_workload(churn);
    cases.push_back({w.name, std::move(w.cfg), std::move(w.trace)});
  }
  sim::TraceGenOptions walk;
  walk.max_blocks = 2000;
  for (auto [name, g] : {std::pair{"figure1", cfg::figure1_cfg()},
                         std::pair{"figure2", cfg::figure2_cfg()},
                         std::pair{"figure5", cfg::figure5_cfg()}}) {
    cfg::BlockTrace trace = sim::generate_trace(g, walk);
    cases.push_back({name, std::move(g), std::move(trace)});
  }

  std::size_t compared = 0;
  for (const Case& c : cases) {
    const OraclePredictor oracle(c.cfg, c.trace);
    for (const unsigned k : {2u, 8u}) {
      FrontierCache frontiers(c.cfg, k);
      frontiers.materialize();
      for (std::size_t i = 0; i < c.trace.size(); ++i) {
        const auto list = frontiers.candidates(c.trace[i]);
        const std::vector<cfg::BlockId> ordered(list.begin(), list.end());
        std::vector<std::vector<cfg::BlockId>> subsets = {ordered, {}, {}};
        for (std::size_t j = 0; j < ordered.size(); ++j) {
          subsets[1 + j % 2].push_back(ordered[j]);
        }
        for (const auto& candidates : subsets) {
          if (candidates.empty()) continue;
          ASSERT_EQ(oracle.predict(c.trace[i], candidates, i),
                    scan_oracle(c.trace, candidates, i))
              << c.name << " k " << k << " at trace index " << i;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 100'000u);
}

TEST(MakePredictor, FactoryKinds) {
  const cfg::Cfg g = cfg::figure5_cfg();
  const cfg::BlockTrace trace = {0, 1, 3};
  EXPECT_EQ(make_predictor(PredictorKind::kProfile, g, 2, trace)->kind(),
            PredictorKind::kProfile);
  EXPECT_EQ(make_predictor(PredictorKind::kStatic, g, 2, trace)->kind(),
            PredictorKind::kStatic);
  EXPECT_EQ(make_predictor(PredictorKind::kOracle, g, 2, trace)->kind(),
            PredictorKind::kOracle);
}

TEST(Names, StrategyAndPredictorNames) {
  EXPECT_STREQ(strategy_name(DecompressionStrategy::kOnDemand), "on-demand");
  EXPECT_STREQ(strategy_name(DecompressionStrategy::kPreAll), "pre-all");
  EXPECT_STREQ(strategy_name(DecompressionStrategy::kPreSingle),
               "pre-single");
  EXPECT_STREQ(predictor_name(PredictorKind::kProfile), "profile");
  EXPECT_STREQ(predictor_name(PredictorKind::kStatic), "static");
  EXPECT_STREQ(predictor_name(PredictorKind::kOracle), "oracle");
}

}  // namespace
}  // namespace apcc::runtime
