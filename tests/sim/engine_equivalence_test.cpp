// Differential regression test for the engine over a 108-config grid.
//
// The reference is the naive oracle in tests/oracle: a simulator written
// from the paper's rules that shares none of the engine's stepping code
// (no indexed state, ready-event heap, resident-id list, frontier cache,
// k-edge manager or planner). Each config runs through the engine twice:
// with the frontier cache BatchEngine builds for the cell's k, and with
// a caller-lent materialized FrontierCache (EngineConfig::
// shared_frontiers, as the Service lends its cached artifact). Both must
// match the oracle's RunResult and event stream bit for bit, so any
// divergence in settle order, victim tie-breaking, k-edge bookkeeping,
// planner request order, or either geometry source fails loudly.
// Every mode runs as a width-1 BatchEngine -- the per-cell run. The
// batched axis: BatchEngine steps N cells in lockstep over one trace
// scan, and every cell must still be bit-identical to its own width-1
// run -- at batch sizes {1, 4, 16} (or the single size named by
// APCC_EQ_BATCH_CELLS, which is how CI gates the batched path at 16
// explicitly), with engine-built and caller-lent geometry cells mixed in
// one batch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>
#include <vector>

#include "common/same_run.hpp"
#include "oracle/oracle.hpp"
#include "sim/batch_engine.hpp"
#include "workloads/suite.hpp"

namespace apcc::sim {
namespace {

using GridParam =
    std::tuple<runtime::DecompressionStrategy, std::uint32_t,
               runtime::VictimPolicy, bool /*background*/, bool /*budget*/>;

struct Capture {
  RunResult result;
  std::vector<Event> events;
};

const workloads::Workload& workload() {
  static const workloads::Workload w =
      workloads::make_workload(workloads::WorkloadKind::kGsmLike);
  return w;
}

// The Service's geometry key is (CFG, predecompress_k); the grid below
// fixes predecompress_k = 2, so one materialized cache serves every
// caller-lent-geometry engine in this suite -- exactly how the Service
// shares it.
const runtime::FrontierCache& shared_frontiers() {
  static const auto* cache = [] {
    auto* c = new runtime::FrontierCache(workload().cfg, 2);
    c->materialize();
    return c;
  }();
  return *cache;
}

const runtime::BlockImage& image() {
  static const runtime::BlockImage img = [] {
    const workloads::Workload& w = workload();
    return runtime::BlockImage(
        w.cfg, w.block_bytes,
        compress::make_codec(compress::CodecKind::kSharedHuffman,
                             w.block_bytes));
  }();
  return img;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<GridParam> {
 protected:
  enum class Mode {
    kEngineGeometry,  // the cache BatchEngine builds for the cell's k
    kLentGeometry,    // a caller-lent materialized FrontierCache
  };

  static EngineConfig config_for(const GridParam& p, Mode mode) {
    EngineConfig config;
    config.policy.strategy = std::get<0>(p);
    config.policy.compress_k = std::get<1>(p);
    config.policy.predecompress_k = 2;
    config.policy.victim_policy = std::get<2>(p);
    config.policy.background_compression = std::get<3>(p);
    config.policy.background_decompression = std::get<3>(p);
    if (std::get<4>(p)) {
      // Tight budget: forces the eviction and helper-backpressure paths.
      std::uint64_t largest = 0;
      for (const auto b : workload().trace) {
        largest = std::max(largest, workload().cfg.block(b).size_bytes());
      }
      config.policy.memory_budget = largest * 3 + 32;
    }
    if (mode == Mode::kLentGeometry) {
      config.shared_frontiers = &shared_frontiers();
    }
    return config;
  }

  Capture run(Mode mode) {
    Capture c;
    BatchEngine engine(workload().cfg, image(), {config_for(GetParam(), mode)});
    engine.set_event_sink(
        0, [&c](const Event& e) { c.events.push_back(e); });
    c.result = engine.run(workload().trace).front().value();
    return c;
  }

  Capture run_oracle() {
    oracle::OracleRun o = oracle::run_oracle(
        workload().cfg, image(), workload().trace,
        config_for(GetParam(), Mode::kEngineGeometry));
    return Capture{o.result, std::move(o.events)};
  }

  static void expect_same(const Capture& want, const Capture& got,
                          const char* what) {
    SCOPED_TRACE(what);
    testref::expect_same_result(want.result, got.result);
    testref::expect_same_events(want.events, got.events);
  }
};

TEST_P(EngineEquivalenceTest, IndexedMatchesReferenceBitExactly) {
  const Capture want = run_oracle();
  expect_same(want, run(Mode::kEngineGeometry),
              "oracle vs engine-built geometry");
  expect_same(want, run(Mode::kLentGeometry),
              "oracle vs caller-lent geometry");
}

// The batch widths the lockstep test sweeps. APCC_EQ_BATCH_CELLS=N
// narrows the sweep to one width -- CI's Release job sets 16 so the
// batched path stays gated even if library defaults change.
std::vector<std::size_t> batch_widths() {
  if (const char* env = std::getenv("APCC_EQ_BATCH_CELLS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return {static_cast<std::size_t>(n)};
  }
  return {1, 4, 16};
}

TEST_P(EngineEquivalenceTest, BatchedMatchesPerEngineBitExactly) {
  // Width-1 references for the two cell flavours the batch mixes:
  // engine-built geometry (one cache per k for the whole batch) and
  // caller-lent Service geometry (shared_frontiers preset).
  const Capture engine_built = run(Mode::kEngineGeometry);
  const Capture lent = run(Mode::kLentGeometry);

  for (const std::size_t width : batch_widths()) {
    SCOPED_TRACE("batch width " + std::to_string(width));
    std::vector<EngineConfig> configs;
    configs.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      configs.push_back(config_for(
          GetParam(),
          i % 2 == 0 ? Mode::kEngineGeometry : Mode::kLentGeometry));
    }
    BatchEngine engine(workload().cfg, image(), std::move(configs));
    std::vector<Capture> cells(width);
    for (std::size_t i = 0; i < width; ++i) {
      engine.set_event_sink(i, [&cells, i](const Event& e) {
        cells[i].events.push_back(e);
      });
    }
    const std::vector<CellOutcome> outcomes = engine.run(workload().trace);
    ASSERT_EQ(outcomes.size(), width);
    for (std::size_t i = 0; i < width; ++i) {
      SCOPED_TRACE("cell " + std::to_string(i));
      ASSERT_TRUE(outcomes[i].ok());
      cells[i].result = outcomes[i].result;
      expect_same(i % 2 == 0 ? engine_built : lent, cells[i],
                  "batched vs width-1");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(runtime::DecompressionStrategy::kOnDemand,
                          runtime::DecompressionStrategy::kPreAll,
                          runtime::DecompressionStrategy::kPreSingle),
        ::testing::Values(1u, 4u, 32u),
        ::testing::Values(runtime::VictimPolicy::kLru,
                          runtime::VictimPolicy::kMru,
                          runtime::VictimPolicy::kLargest),
        ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::string name = runtime::strategy_name(std::get<0>(info.param));
      name += "_k" + std::to_string(std::get<1>(info.param));
      name += "_";
      name += runtime::victim_policy_name(std::get<2>(info.param));
      name += std::get<3>(info.param) ? "_bg" : "_inline";
      name += std::get<4>(info.param) ? "_budget" : "_unbounded";
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace apcc::sim
