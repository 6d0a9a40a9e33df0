// Differential regression test for the indexed engine hot path.
//
// The engine keeps two implementations of its per-step queries: the
// pre-index O(B) full-table scans (EngineConfig::reference_scans, the
// original shipping behaviour) and the indexed structures (ready-event
// min-heap, ordered victim indexes, decompressed-id list) -- and, since
// the FrontierCache, two implementations of the planner's candidate
// query (EngineConfig::reference_frontiers re-runs the per-exit BFS).
// This test runs a policy grid through the full-reference engine
// (both flags), the frontier-reference engine (BFS planner over indexed
// scans), the fully indexed+memoized engine, and the campaign-style
// engine borrowing a shared materialized FrontierCache
// (EngineConfig::shared_frontiers), and asserts RunResult counters and
// emitted event streams are bit-identical across all four, so any
// divergence in settle order, victim tie-breaking, k-edge bookkeeping,
// planner request order, or borrowed-vs-owned geometry fails loudly.
// Every mode runs as a width-1 BatchEngine -- the per-cell run, whose
// lone planner owns lazy geometry. The batched axis: BatchEngine steps
// N cells in lockstep over one trace scan, and every cell must still be
// bit-identical to its own width-1 run -- at batch sizes {1, 4, 16} (or
// the single size named by APCC_EQ_BATCH_CELLS, which is how CI gates
// the batched path at 16 explicitly), with heterogeneous
// owned/borrowed-geometry cells mixed in one batch (owned cells that
// share a k get batch-level materialized geometry).
#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>
#include <vector>

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

bool operator==(const Event& a, const Event& b) {
  return a.kind == b.kind && a.time == b.time && a.block == b.block &&
         a.aux == b.aux && a.value == b.value;
}

const workloads::Workload& workload() {
  static const workloads::Workload w =
      workloads::make_workload(workloads::WorkloadKind::kGsmLike);
  return w;
}

// The campaign's geometry key is (CFG, predecompress_k); the grid below
// fixes predecompress_k = 2, so one materialized cache serves every
// borrowed-geometry engine in this suite -- exactly how run_campaign
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
    std::vector<compress::Bytes> bytes = workload().block_bytes;
    auto codec =
        compress::make_codec(compress::CodecKind::kSharedHuffman, bytes);
    return runtime::BlockImage(workload().cfg, std::move(bytes),
                               std::move(codec));
  }();
  return img;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<GridParam> {
 protected:
  enum class Mode {
    kReference,          // reference scans + reference frontier BFS
    kReferenceFrontiers, // indexed scans, reference frontier BFS
    kIndexed,            // indexed scans + memoized FrontierCache
    kBorrowedGeometry,   // indexed scans + borrowed shared FrontierCache
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
    config.reference_scans = (mode == Mode::kReference);
    config.reference_frontiers =
        (mode == Mode::kReference || mode == Mode::kReferenceFrontiers);
    if (mode == Mode::kBorrowedGeometry) {
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

  static void expect_same_result(const RunResult& a, const RunResult& b,
                                 const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.baseline_cycles, b.baseline_cycles);
    EXPECT_EQ(a.busy_cycles, b.busy_cycles);
    EXPECT_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_EQ(a.exception_cycles, b.exception_cycles);
    EXPECT_EQ(a.critical_decompress_cycles, b.critical_decompress_cycles);
    EXPECT_EQ(a.patch_cycles, b.patch_cycles);
    EXPECT_EQ(a.block_entries, b.block_entries);
    EXPECT_EQ(a.exceptions, b.exceptions);
    EXPECT_EQ(a.demand_decompressions, b.demand_decompressions);
    EXPECT_EQ(a.predecompressions, b.predecompressions);
    EXPECT_EQ(a.predecompress_hits, b.predecompress_hits);
    EXPECT_EQ(a.predecompress_partial, b.predecompress_partial);
    EXPECT_EQ(a.wasted_predecompressions, b.wasted_predecompressions);
    EXPECT_EQ(a.deletions, b.deletions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.patches, b.patches);
    EXPECT_EQ(a.unpatches, b.unpatches);
    EXPECT_EQ(a.dropped_requests, b.dropped_requests);
    EXPECT_EQ(a.decomp_helper_busy_cycles, b.decomp_helper_busy_cycles);
    EXPECT_EQ(a.comp_helper_busy_cycles, b.comp_helper_busy_cycles);
    EXPECT_EQ(a.original_image_bytes, b.original_image_bytes);
    EXPECT_EQ(a.compressed_area_bytes, b.compressed_area_bytes);
    EXPECT_EQ(a.peak_occupancy_bytes, b.peak_occupancy_bytes);
    EXPECT_EQ(a.avg_occupancy_bytes, b.avg_occupancy_bytes);
  }

  static void expect_same_events(const Capture& ref, const Capture& fast,
                                 const char* what) {
    ASSERT_EQ(ref.events.size(), fast.events.size()) << what;
    for (std::size_t i = 0; i < ref.events.size(); ++i) {
      ASSERT_TRUE(ref.events[i] == fast.events[i])
          << what << ": event " << i << " diverged: reference "
          << event_kind_name(ref.events[i].kind) << "@" << ref.events[i].time
          << " block " << ref.events[i].block << " vs indexed "
          << event_kind_name(fast.events[i].kind) << "@"
          << fast.events[i].time << " block " << fast.events[i].block;
    }
  }
};

TEST_P(EngineEquivalenceTest, IndexedMatchesReferenceBitExactly) {
  const Capture ref = run(Mode::kReference);
  const Capture frontier_ref = run(Mode::kReferenceFrontiers);
  const Capture fast = run(Mode::kIndexed);
  const Capture borrowed = run(Mode::kBorrowedGeometry);

  expect_same_result(ref.result, fast.result,
                     "full-reference vs indexed counters");
  expect_same_result(frontier_ref.result, fast.result,
                     "reference-frontiers vs memoized counters");
  expect_same_result(borrowed.result, fast.result,
                     "borrowed-geometry vs owned-geometry counters");
  expect_same_events(ref, fast, "full-reference vs indexed");
  expect_same_events(frontier_ref, fast, "reference-frontiers vs memoized");
  expect_same_events(borrowed, fast, "borrowed-geometry vs owned-geometry");
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
  // Width-1 references for the two cell flavours the batch mixes: owned
  // geometry (BatchEngine injects its own materialized frontier cache
  // once two cells share the k) and borrowed campaign geometry
  // (shared_frontiers preset).
  const Capture owned = run(Mode::kIndexed);
  const Capture borrowed = run(Mode::kBorrowedGeometry);

  for (const std::size_t width : batch_widths()) {
    SCOPED_TRACE("batch width " + std::to_string(width));
    std::vector<EngineConfig> configs;
    configs.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      configs.push_back(config_for(
          GetParam(), i % 2 == 0 ? Mode::kIndexed : Mode::kBorrowedGeometry));
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
      const Capture& ref = i % 2 == 0 ? owned : borrowed;
      expect_same_result(ref.result, cells[i].result,
                         "batched vs width-1 counters");
      expect_same_events(ref, cells[i], "batched vs width-1 events");
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
