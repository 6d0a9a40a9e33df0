// Engine semantics tests: on-demand behaviour, pre-decompression timing,
// budget/LRU eviction, thread-model ablations, and accounting identities,
// each on the per-cell run -- a width-1 BatchEngine whose cell error is
// rethrown.
#include <gtest/gtest.h>

#include <algorithm>

#include "cfg/paper_graphs.hpp"
#include "sim/batch_engine.hpp"
#include "sim/trace_gen.hpp"
#include "workloads/synth_bytes.hpp"

namespace apcc::sim {
namespace {

struct Harness {
  cfg::Cfg graph;
  std::unique_ptr<runtime::BlockImage> image;

  explicit Harness(cfg::Cfg g,
                   compress::CodecKind codec = compress::CodecKind::kLzss)
      : graph(std::move(g)) {
    image = std::make_unique<runtime::BlockImage>(runtime::make_block_image(
        graph,
        [](const cfg::BasicBlock& b) {
          return workloads::synthesize_block_bytes(b);
        },
        codec));
  }

  RunResult run(const EngineConfig& config, const cfg::BlockTrace& trace,
                EventSink sink = nullptr) {
    BatchEngine engine(graph, *image, {config});
    engine.set_event_sink(0, std::move(sink));
    return engine.run(trace).front().value();
  }
};

/// A trace looping through figure 2: B0 B2 B5 B6 B8 B9 would exit; loop
/// the diamond body a few times via a synthetic multi-pass trace built
/// from valid edges.
cfg::BlockTrace fig2_long_trace() {
  // B0 (B1 B3 B6 B7 B9 is one pass) -- figure2 is acyclic, so repeat the
  // whole path by... using figure1 instead for loops. Here: single pass.
  return {0, 1, 3, 6, 7, 9};
}

TEST(Engine, EmptyTraceRejected) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  EXPECT_THROW((void)h.run(config, {}), apcc::CheckError);
}

TEST(Engine, InvalidTraceRejected) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  EXPECT_THROW((void)h.run(config, {0, 9}), apcc::CheckError);
}

TEST(Engine, OnDemandFaultsOnEveryFirstEntry) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;  // on-demand default
  const RunResult r = h.run(config, fig2_long_trace());
  EXPECT_EQ(r.block_entries, 6u);
  EXPECT_EQ(r.exceptions, 6u) << "six distinct blocks, six faults";
  EXPECT_EQ(r.demand_decompressions, 6u);
  EXPECT_EQ(r.predecompressions, 0u);
}

TEST(Engine, RevisitWithinKNeedsNoSecondDecompression) {
  Harness h(cfg::figure1_cfg());
  EngineConfig config;
  config.policy.compress_k = 32;  // outlives the 9 edges of this trace
  // B3 and B4 alternate: the inner loop of figure 1.
  const cfg::BlockTrace trace = {0, 1, 3, 4, 3, 4, 3, 4, 3, 5};
  const RunResult r = h.run(config, trace);
  // Distinct blocks: 0,1,3,4,5 -> five decompressions, no more.
  EXPECT_EQ(r.demand_decompressions, 5u);
  EXPECT_EQ(r.deletions, 0u) << "k=32 outlives this trace";
}

TEST(Engine, SmallKDeletesAndRedecompresses) {
  Harness h(cfg::figure1_cfg());
  EngineConfig config;
  config.policy.compress_k = 1;
  const cfg::BlockTrace trace = {0, 1, 3, 4, 3, 4, 3, 5};
  const RunResult r = h.run(config, trace);
  EXPECT_GT(r.deletions, 0u);
  EXPECT_GT(r.demand_decompressions, 5u)
      << "k=1 forces re-decompression of revisited blocks";
}

TEST(Engine, LargerKNeverCostsMoreCycles) {
  Harness h(cfg::figure1_cfg());
  const cfg::BlockTrace trace = {0, 1, 3, 4, 3, 4, 3, 4, 3, 5, 0, 2, 3, 5};
  std::uint64_t prev_cycles = UINT64_MAX;
  for (const std::uint32_t k : {1u, 2u, 4u, 16u}) {
    EngineConfig config;
    config.policy.compress_k = k;
    const RunResult r = h.run(config, trace);
    EXPECT_LE(r.total_cycles, prev_cycles) << "k=" << k;
    prev_cycles = r.total_cycles;
  }
}

TEST(Engine, LargerKNeverShrinksPeakMemory) {
  Harness h(cfg::figure1_cfg());
  const cfg::BlockTrace trace = {0, 1, 3, 4, 3, 4, 3, 4, 3, 5, 0, 2, 3, 5};
  std::uint64_t prev_peak = 0;
  for (const std::uint32_t k : {1u, 2u, 4u, 16u}) {
    EngineConfig config;
    config.policy.compress_k = k;
    const RunResult r = h.run(config, trace);
    EXPECT_GE(r.peak_occupancy_bytes, prev_peak) << "k=" << k;
    prev_peak = r.peak_occupancy_bytes;
  }
}

TEST(Engine, PreAllReducesCriticalPathDecompression) {
  Harness h(cfg::figure2_cfg());
  EngineConfig lazy;
  const RunResult on_demand = h.run(lazy, fig2_long_trace());

  EngineConfig pre;
  pre.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  pre.policy.predecompress_k = 3;
  const RunResult pre_all = h.run(pre, fig2_long_trace());

  EXPECT_LT(pre_all.critical_decompress_cycles,
            on_demand.critical_decompress_cycles);
  EXPECT_LT(pre_all.exceptions, on_demand.exceptions);
  EXPECT_GT(pre_all.predecompressions, 0u);
}

TEST(Engine, PreAllUsesMoreMemoryThanPreSingle) {
  Harness h(cfg::figure2_cfg());
  EngineConfig all;
  all.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  all.policy.predecompress_k = 3;
  const RunResult pre_all = h.run(all, fig2_long_trace());

  EngineConfig single;
  single.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
  single.policy.predecompress_k = 3;
  const RunResult pre_single = h.run(single, fig2_long_trace());

  EXPECT_GE(pre_all.peak_occupancy_bytes, pre_single.peak_occupancy_bytes)
      << "pre-all favours performance over memory (§4)";
  EXPECT_GE(pre_all.predecompressions, pre_single.predecompressions);
}

TEST(Engine, PreSingleIssuesAtMostOneRequestPerExit) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  config.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
  config.policy.predecompress_k = 2;
  std::size_t issues_this_exit = 0;
  std::size_t max_issues = 0;
  (void)h.run(config, fig2_long_trace(), [&](const Event& e) {
    if (e.kind == EventKind::kBlockExit) {
      issues_this_exit = 0;
    } else if (e.kind == EventKind::kPredecompressIssue) {
      ++issues_this_exit;
      max_issues = std::max(max_issues, issues_this_exit);
    }
  });
  EXPECT_LE(max_issues, 1u);
}

TEST(Engine, WastedPredecompressionsCounted) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  config.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  config.policy.predecompress_k = 2;
  config.policy.compress_k = 1;  // delete aggressively
  // Path avoids B2/B4/B5/B8, which pre-all will still fetch.
  const RunResult r = h.run(config, fig2_long_trace());
  EXPECT_GT(r.wasted_predecompressions, 0u)
      << "speculative copies deleted unused must be counted";
}

TEST(Engine, BudgetTriggersLruEvictions) {
  Harness h(cfg::figure2_cfg());
  // Budget: room for roughly two blocks.
  std::uint64_t biggest = 0;
  for (cfg::BlockId b = 0; b < h.graph.block_count(); ++b) {
    biggest = std::max(biggest, h.graph.block(b).size_bytes());
  }
  EngineConfig config;
  config.policy.memory_budget = biggest * 2 + 16;
  config.policy.compress_k = 100;  // never delete via k-edge
  const RunResult r = h.run(config, fig2_long_trace());
  EXPECT_GT(r.evictions, 0u);
  EXPECT_LE(r.peak_occupancy_bytes,
            r.compressed_area_bytes + config.policy.memory_budget);
}

TEST(Engine, BudgetSmallerThanExecutedBlockFailsAtRuntime) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  config.policy.memory_budget = 4;
  EXPECT_THROW((void)h.run(config, fig2_long_trace()), apcc::CheckError);
  // The failure stays in the cell's outcome until someone asks for it.
  BatchEngine engine(h.graph, *h.image, {config});
  const std::vector<CellOutcome> outcomes = engine.run(fig2_long_trace());
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_THROW((void)outcomes[0].value(), apcc::CheckError);
}

TEST(Engine, UnboundedNeverEvicts) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  config.policy.compress_k = 100;
  const RunResult r = h.run(config, fig2_long_trace());
  EXPECT_EQ(r.evictions, 0u);
  EXPECT_EQ(r.dropped_requests, 0u);
}

TEST(Engine, InlineCompressionStallsExecution) {
  Harness h(cfg::figure1_cfg());
  const cfg::BlockTrace trace = {0, 1, 3, 4, 3, 4, 3, 5, 0, 1, 3, 5};
  EngineConfig bg;
  bg.policy.compress_k = 1;
  const RunResult background = h.run(bg, trace);

  EngineConfig inline_comp = bg;
  inline_comp.policy.background_compression = false;
  const RunResult inlined = h.run(inline_comp, trace);

  EXPECT_GT(inlined.total_cycles, background.total_cycles)
      << "the background compression thread must hide deletion cost";
  EXPECT_EQ(inlined.comp_helper_busy_cycles, 0u);
  EXPECT_GT(background.comp_helper_busy_cycles, 0u);
}

TEST(Engine, InlinePredecompressionStealsExecutionCycles) {
  Harness h(cfg::figure2_cfg());
  EngineConfig bg;
  bg.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  bg.policy.predecompress_k = 2;
  const RunResult background = h.run(bg, fig2_long_trace());

  EngineConfig inline_decomp = bg;
  inline_decomp.policy.background_decompression = false;
  const RunResult inlined = h.run(inline_decomp, fig2_long_trace());

  EXPECT_GE(inlined.total_cycles, background.total_cycles);
  EXPECT_EQ(inlined.decomp_helper_busy_cycles, 0u);
}

TEST(Engine, NoRememberSetsMeansEveryEntryFaults) {
  Harness h(cfg::figure1_cfg());
  EngineConfig config;
  config.policy.use_remember_sets = false;
  config.policy.compress_k = 16;
  const cfg::BlockTrace trace = {0, 1, 3, 4, 3, 4, 3, 5};
  const RunResult r = h.run(config, trace);
  EXPECT_EQ(r.exceptions, r.block_entries)
      << "without branch patching, every relocated entry faults (E6)";
  EXPECT_EQ(r.patches, 0u);
}

TEST(Engine, RememberSetsEliminateRepeatFaults) {
  Harness h(cfg::figure1_cfg());
  EngineConfig config;
  config.policy.compress_k = 16;
  const cfg::BlockTrace trace = {0, 1, 3, 4, 3, 4, 3, 4, 3, 5};
  const RunResult r = h.run(config, trace);
  EXPECT_LT(r.exceptions, r.block_entries);
}

TEST(Engine, RecompressForRealCostsMoreHelperTime) {
  Harness h(cfg::figure1_cfg());
  const cfg::BlockTrace trace = {0, 1, 3, 4, 3, 4, 3, 5, 0, 1, 3, 5};
  EngineConfig fast;
  fast.policy.compress_k = 1;
  const RunResult deletion = h.run(fast, trace);

  EngineConfig slow = fast;
  slow.policy.recompress_for_real = true;
  const RunResult recompress = h.run(slow, trace);

  EXPECT_GT(recompress.comp_helper_busy_cycles,
            deletion.comp_helper_busy_cycles)
      << "the paper's delete-only design is the cheap path (E6)";
}

TEST(Engine, EventSinkVerifiesEveryDecompressedBlock) {
  // Every block the engine decompresses -- on demand or ahead of time --
  // must decode back to its original bytes. An event sink re-runs the
  // codec on each one; the engine itself never pays for the check.
  Harness h(cfg::figure2_cfg());
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll}) {
    SCOPED_TRACE(runtime::strategy_name(strategy));
    EngineConfig config;
    config.policy.strategy = strategy;
    config.policy.predecompress_k = 2;
    std::size_t demand = 0;
    std::size_t ahead = 0;
    const auto verify = [&](const Event& e) {
      if (e.kind == EventKind::kDemandDecompress) {
        ++demand;
      } else if (e.kind == EventKind::kPredecompressIssue) {
        ++ahead;
      } else {
        return;
      }
      h.image->verify_block(
          e.block, workloads::synthesize_block_bytes(h.graph.block(e.block)));
    };
    EXPECT_NO_THROW((void)h.run(config, fig2_long_trace(), verify));
    if (strategy == runtime::DecompressionStrategy::kOnDemand) {
      EXPECT_GT(demand, 0u) << "no demand decompression was checked";
    } else {
      EXPECT_GT(ahead, 0u) << "no pre-decompression was checked";
    }
  }
}

TEST(Engine, AccountingIdentities) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  config.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  config.policy.predecompress_k = 2;
  const RunResult r = h.run(config, fig2_long_trace());
  EXPECT_GE(r.total_cycles, r.busy_cycles);
  EXPECT_EQ(r.baseline_cycles, r.busy_cycles)
      << "baseline equals pure execution work";
  EXPECT_GE(r.slowdown(), 1.0);
  EXPECT_LE(r.predecompress_hits + r.predecompress_partial,
            r.predecompressions + r.demand_decompressions);
  EXPECT_GE(r.peak_occupancy_bytes, r.compressed_area_bytes);
  EXPECT_GE(static_cast<double>(r.peak_occupancy_bytes),
            r.avg_occupancy_bytes);
}

TEST(Engine, EventTimesAreMonotoneForExecutionEvents) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  config.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  config.policy.predecompress_k = 2;
  std::uint64_t last = 0;
  bool monotone = true;
  (void)h.run(config, fig2_long_trace(), [&](const Event& e) {
    if (e.kind == EventKind::kBlockEnter || e.kind == EventKind::kBlockExit) {
      if (e.time < last) monotone = false;
      last = e.time;
    }
  });
  EXPECT_TRUE(monotone);
}

TEST(Engine, FreshStatePerRun) {
  Harness h(cfg::figure2_cfg());
  EngineConfig config;
  BatchEngine engine(h.graph, *h.image, {config});
  const RunResult a = engine.run(fig2_long_trace()).front().value();
  const RunResult b = engine.run(fig2_long_trace()).front().value();
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.exceptions, b.exceptions);
  EXPECT_EQ(a.peak_occupancy_bytes, b.peak_occupancy_bytes);
}

TEST(Engine, CompressedImageSmallerThanOriginalWithRealCodec) {
  Harness h(cfg::figure2_cfg(), compress::CodecKind::kSharedHuffman);
  EngineConfig config;
  const RunResult r = h.run(config, fig2_long_trace());
  EXPECT_LT(r.compressed_area_bytes, r.original_image_bytes)
      << "the all-compressed image is the minimum footprint (§5)";
}

}  // namespace
}  // namespace apcc::sim
