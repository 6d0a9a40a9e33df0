// Restricted-geometry differential. A planning cell reads frontier
// lists only at the blocks its trace exits, so BatchEngine::run and the
// Service build geometry for those blocks alone. A cell on that
// geometry must equal the same cell lent every block's lists -- as
// perfbench's isolated pass lends them -- field by field and event by
// event, for pre-all and for pre-single under each predictor. A run lent
// geometry that lacks one of its own exits must fail, not plan nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/same_run.hpp"
#include "sim/batch_engine.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::sim {
namespace {

/// A workload with its huffman-shared image.
struct Imaged {
  workloads::Workload workload;
  runtime::BlockImage image;
};

Imaged imaged(workloads::Workload w) {
  runtime::BlockImage image(
      w.cfg, w.block_bytes,
      compress::make_codec(compress::CodecKind::kSharedHuffman, w.block_bytes));
  return Imaged{std::move(w), std::move(image)};
}

/// The 8 suite kernels and the first two of artifact-churn's 2.4k-block
/// programs.
const std::vector<Imaged>& programs() {
  static const std::vector<Imaged> all = [] {
    std::vector<Imaged> out;
    for (const auto kind : workloads::all_workload_kinds()) {
      out.push_back(imaged(workloads::make_workload(kind)));
    }
    for (std::uint64_t seed = 9001; seed <= 9002; ++seed) {
      workloads::RandomProgramOptions churn;
      churn.seed = seed;
      churn.max_depth = 3;
      churn.statements_per_body = 40;
      churn.leaf_functions = 16;
      churn.loop_iters_max = 6;
      out.push_back(imaged(workloads::make_random_workload(churn)));
    }
    return out;
  }();
  return all;
}

struct Capture {
  RunResult result;
  std::vector<Event> events;
};

/// One width-1 run of `config` over `p`'s trace, lent `frontiers` (null:
/// the engine builds its own).
Capture run(const Imaged& p, EngineConfig config,
            const runtime::FrontierCache* frontiers) {
  config.shared_frontiers = frontiers;
  BatchEngine engine(p.workload.cfg, p.image, {config});
  Capture c;
  engine.set_event_sink(0, [&c](const Event& e) { c.events.push_back(e); });
  c.result = engine.run(p.workload.trace).front().value();
  return c;
}

/// Every planning configuration: pre-all, and pre-single under each
/// predictor.
std::vector<EngineConfig> planning_configs(std::uint32_t k) {
  std::vector<EngineConfig> out;
  EngineConfig pre_all;
  pre_all.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  out.push_back(pre_all);
  for (const auto predictor :
       {runtime::PredictorKind::kProfile, runtime::PredictorKind::kStatic,
        runtime::PredictorKind::kOracle}) {
    EngineConfig pre_single;
    pre_single.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
    pre_single.policy.predictor = predictor;
    out.push_back(pre_single);
  }
  for (EngineConfig& config : out) {
    config.policy.compress_k = 4;
    config.policy.predecompress_k = k;
  }
  return out;
}

TEST(RestrictedGeometry, CellsEqualCellsLentEveryBlockGeometry) {
  for (const Imaged& p : programs()) {
    for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
      runtime::FrontierCache every(p.workload.cfg, k);
      every.materialize();
      runtime::FrontierCache restricted(p.workload.cfg, k);
      restricted.materialize(p.workload.trace);
      for (const EngineConfig& config : planning_configs(k)) {
        SCOPED_TRACE(p.workload.name + " k " + std::to_string(k) + " " +
                     runtime::strategy_name(config.policy.strategy) + " " +
                     runtime::predictor_name(config.policy.predictor));
        const Capture want = run(p, config, &every);
        const Capture lent = run(p, config, &restricted);
        testref::expect_same_result(want.result, lent.result);
        testref::expect_same_events(want.events, lent.events);
        const Capture built = run(p, config, nullptr);
        testref::expect_same_result(want.result, built.result);
        testref::expect_same_events(want.events, built.events);
      }
    }
  }
}

TEST(RestrictedGeometry, GeometryMissingAnExitFailsTheRun) {
  // Geometry built for a prefix of gsm-like's trace that ends where the
  // trace first enters the last block it exits for the first time: the
  // prefix exits every block the whole trace does but that one. Lent to
  // a run over the whole trace, the planner's read at that exit fails
  // the cell with CheckError.
  const Imaged& p = programs()[1];
  ASSERT_EQ(p.workload.name, "gsm-like");
  const cfg::BlockTrace& trace = p.workload.trace;
  std::vector<bool> seen(p.workload.cfg.block_count(), false);
  std::size_t last_first_exit = 0;
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    if (!seen[trace[i]]) last_first_exit = i;
    seen[trace[i]] = true;
  }
  const cfg::BlockTrace prefix(trace.begin(),
                               trace.begin() + last_first_exit + 1);
  ASSERT_NE(cfg::exited_blocks(p.workload.cfg, prefix),
            cfg::exited_blocks(p.workload.cfg, trace))
      << "the whole trace must exit a block its prefix does not";

  runtime::FrontierCache partial(p.workload.cfg, 2);
  partial.materialize(prefix);
  for (EngineConfig config : planning_configs(2)) {
    SCOPED_TRACE(std::string(runtime::strategy_name(config.policy.strategy)) +
                 " " + runtime::predictor_name(config.policy.predictor));
    config.shared_frontiers = &partial;
    BatchEngine engine(p.workload.cfg, p.image, {config});
    const std::vector<CellOutcome> outcomes = engine.run(trace);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok());
    try {
      (void)outcomes[0].value();
      ADD_FAILURE() << "the run planned past an exit its geometry lacks";
    } catch (const apcc::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "FrontierCache has no list for a block its trace never "
                    "exits"),
                std::string::npos)
          << e.what();
    }
    // The same geometry serves the prefix it was built for.
    BatchEngine prefix_engine(p.workload.cfg, p.image, {config});
    EXPECT_TRUE(prefix_engine.run(prefix).front().ok());
  }
}

}  // namespace
}  // namespace apcc::sim
