// Cross-module integration tests: the qualitative shapes the paper's
// evaluation depends on, checked end-to-end over real workloads. The
// reproduction tables print them quantitatively (docs/REPRODUCTION.md);
// where a table prints a shape sentence, the test reads that table's
// rows from reproduce/tables.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "baselines/baselines.hpp"
#include "core/system.hpp"
#include "reproduce/tables.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc {
namespace {

using core::CodeCompressionSystem;
using core::SystemConfig;
using runtime::DecompressionStrategy;

const workloads::Workload& mpeg2() {
  static const workloads::Workload w =
      workloads::make_workload(workloads::WorkloadKind::kMpeg2Like);
  return w;
}

TEST(Shapes, KSweepTradesMemoryForCycles) {
  // The paper's central trade-off (§3): as k grows, memory consumption
  // rises and performance overhead falls, monotonically at the ends.
  std::vector<sim::RunResult> results;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u, 32u}) {
    SystemConfig config;
    config.policy.compress_k = k;
    results.push_back(
        CodeCompressionSystem::from_workload(mpeg2(), config).run());
  }
  EXPECT_LE(results.front().avg_occupancy_bytes,
            results.back().avg_occupancy_bytes)
      << "k=1 must hold less memory on average than k=32";
  EXPECT_GE(results.front().total_cycles, results.back().total_cycles)
      << "k=1 must cost at least as many cycles as k=32";
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].peak_occupancy_bytes,
              results[i - 1].peak_occupancy_bytes)
        << "peak memory is monotone in k";
  }
}

TEST(Shapes, StrategyOrderOnCycles) {
  // Expected Figure-3 ordering for fixed k: the wider the speculation,
  // the fewer entries are left for the on-demand path. Paired with the
  // fast CodePack decoder (pre-decompression presumes the helper can
  // keep up -- with a slow software codec the helper queue saturates and
  // the demand path wins the race instead).
  SystemConfig base;
  base.codec = compress::CodecKind::kCodePack;
  base.policy.compress_k = 4;
  base.policy.predecompress_k = 3;

  SystemConfig lazy = base;
  lazy.policy.strategy = DecompressionStrategy::kOnDemand;
  SystemConfig single = base;
  single.policy.strategy = DecompressionStrategy::kPreSingle;
  SystemConfig all = base;
  all.policy.strategy = DecompressionStrategy::kPreAll;

  const auto r_lazy =
      CodeCompressionSystem::from_workload(mpeg2(), lazy).run();
  const auto r_single =
      CodeCompressionSystem::from_workload(mpeg2(), single).run();
  const auto r_all = CodeCompressionSystem::from_workload(mpeg2(), all).run();

  EXPECT_LE(r_all.demand_decompressions, r_single.demand_decompressions);
  EXPECT_LE(r_single.demand_decompressions, r_lazy.demand_decompressions);
  EXPECT_LE(r_all.critical_decompress_cycles,
            r_lazy.critical_decompress_cycles);
  // And the mirror image on memory: pre-all holds the most.
  EXPECT_GE(r_all.peak_occupancy_bytes, r_single.peak_occupancy_bytes);
}

TEST(Shapes, EverythingBeatsUncompressedOnAverageMemory) {
  for (const auto kind : workloads::all_workload_kinds()) {
    const auto w = workloads::make_workload(kind);
    SystemConfig config;
    config.policy.compress_k = 2;
    const auto r = CodeCompressionSystem::from_workload(w, config).run();
    const auto base = baselines::run_no_compression(w.cfg, w.trace, {});
    EXPECT_LT(r.avg_occupancy_bytes,
              static_cast<double>(base.peak_occupancy_bytes))
        << w.name;
  }
}

TEST(Shapes, BudgetModeEnforcesHardCap) {
  const auto& w = mpeg2();
  SystemConfig unbounded;
  unbounded.policy.compress_k = 64;  // retain aggressively
  const auto free_run =
      CodeCompressionSystem::from_workload(w, unbounded).run();

  // The cap must sit below the unbounded working set but above the
  // largest block the trace actually executes (cold blocks larger than
  // the budget are fine -- they are never decompressed).
  std::uint64_t largest_executed = 0;
  for (const cfg::BlockId b : w.trace) {
    largest_executed = std::max(largest_executed, w.cfg.block(b).size_bytes());
  }
  SystemConfig capped = unbounded;
  capped.policy.memory_budget = std::max(
      (free_run.peak_occupancy_bytes - free_run.compressed_area_bytes) / 2,
      largest_executed + 8);
  ASSERT_LT(capped.policy.memory_budget,
            free_run.peak_occupancy_bytes - free_run.compressed_area_bytes)
      << "test needs a budget below the unbounded working set";
  const auto capped_run =
      CodeCompressionSystem::from_workload(w, capped).run();

  EXPECT_LE(capped_run.peak_occupancy_bytes,
            capped_run.compressed_area_bytes +
                capped.policy.memory_budget);
  EXPECT_GT(capped_run.evictions, 0u);
  EXPECT_GE(capped_run.total_cycles, free_run.total_cycles)
      << "the budget trades cycles for the hard cap";
}

TEST(Shapes, RememberSetsPayForThemselves) {
  const auto& w = mpeg2();
  SystemConfig with;
  with.policy.compress_k = 8;
  const auto r_with = CodeCompressionSystem::from_workload(w, with).run();

  SystemConfig without = with;
  without.policy.use_remember_sets = false;
  const auto r_without =
      CodeCompressionSystem::from_workload(w, without).run();

  EXPECT_LT(r_with.exceptions, r_without.exceptions);
  EXPECT_LT(r_with.total_cycles, r_without.total_cycles)
      << "branch patching must beat exception-per-entry (E6)";
}

TEST(Shapes, BackgroundThreadsHideWork) {
  const auto& w = mpeg2();
  SystemConfig bg;
  bg.policy.strategy = DecompressionStrategy::kPreAll;
  bg.policy.predecompress_k = 2;
  const auto r_bg = CodeCompressionSystem::from_workload(w, bg).run();

  SystemConfig fg = bg;
  fg.policy.background_compression = false;
  fg.policy.background_decompression = false;
  const auto r_fg = CodeCompressionSystem::from_workload(w, fg).run();

  EXPECT_LE(r_bg.total_cycles, r_fg.total_cycles)
      << "the three-thread model (Figure 4) must not lose to inline work";
}

TEST(Shapes, HoldsOnRandomProgramsToo) {
  // The k-sweep shape is not an artifact of the hand-written suite.
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    workloads::RandomProgramOptions opts;
    opts.seed = seed;
    const auto w = workloads::make_random_workload(opts);
    if (w.trace.size() < 50) continue;  // trivially short run
    SystemConfig small_k;
    small_k.policy.compress_k = 1;
    SystemConfig large_k;
    large_k.policy.compress_k = 64;
    const auto r1 = CodeCompressionSystem::from_workload(w, small_k).run();
    const auto r64 = CodeCompressionSystem::from_workload(w, large_k).run();
    EXPECT_LE(r1.avg_occupancy_bytes, r64.avg_occupancy_bytes + 1.0)
        << "seed " << seed;
    EXPECT_GE(r1.total_cycles, r64.total_cycles) << "seed " << seed;
  }
}

TEST(Shapes, CodecRatioOrderingPropagatesToFootprint) {
  // E4's rows (`apcc_reproduce e4_codecs`): every codec's ratio over all
  // suite blocks (trained on them) and its gsm-like average saving at
  // k_c = 2.
  std::vector<reproduce::E4Row> rows = reproduce::e4_rows();
  ASSERT_EQ(rows.size(), compress::all_codec_kinds().size());
  const auto ratio_of = [&rows](compress::CodecKind kind) {
    return std::find_if(rows.begin(), rows.end(),
                        [kind](const reproduce::E4Row& r) {
                          return r.codec == kind;
                        })
        ->ratio;
  };
  // Per-stream huffman pays a table per block and loses to the shared
  // model; the three seed-era baselines do not shrink the suite's code.
  EXPECT_GT(ratio_of(compress::CodecKind::kHuffman),
            ratio_of(compress::CodecKind::kSharedHuffman));
  for (const auto kind :
       {compress::CodecKind::kNull, compress::CodecKind::kMtfRle,
        compress::CodecKind::kHuffman}) {
    EXPECT_GE(ratio_of(kind), 1.0) << compress::codec_kind_name(kind);
  }
  // A better ratio means more memory saving at the same k, strictly,
  // over every codec.
  std::sort(rows.begin(), rows.end(),
            [](const reproduce::E4Row& a, const reproduce::E4Row& b) {
              return a.ratio < b.ratio;
            });
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const char* better = compress::codec_kind_name(rows[i - 1].codec);
    const char* worse = compress::codec_kind_name(rows[i].codec);
    EXPECT_LT(rows[i - 1].ratio, rows[i].ratio) << better << " vs " << worse;
    EXPECT_GT(rows[i - 1].gsm.avg_saving(), rows[i].gsm.avg_saving())
        << better << " vs " << worse;
  }

  // On one kernel's own image too, the shared model undercuts the
  // identity baseline.
  SystemConfig null_config;
  null_config.codec = compress::CodecKind::kNull;
  SystemConfig shared_config;
  shared_config.codec = compress::CodecKind::kSharedHuffman;
  EXPECT_LT(CodeCompressionSystem::from_workload(mpeg2(), shared_config)
                .compressed_image_bytes(),
            CodeCompressionSystem::from_workload(mpeg2(), null_config)
                .compressed_image_bytes())
      << "shared huffman image must undercut the null-codec image";
}

TEST(Shapes, SlowdownTracksExceptionCostAndCpi) {
  // E10's rows (`apcc_reproduce e10_sensitivity`; gsm-like, on-demand,
  // k_c = 16): relative overhead shrinks as the fault cost drops or the
  // core slows.
  const reproduce::E10Rows rows = reproduce::e10_rows();
  ASSERT_EQ(rows.codecs.size(), 3u);
  for (const auto& row : rows.codecs) {
    ASSERT_EQ(row.results.size(), reproduce::kE10ExceptionCycles.size());
    double previous = 0.0;
    for (std::size_t i = 0; i < row.results.size(); ++i) {
      const double slowdown = row.results[i].slowdown();
      EXPECT_GT(slowdown, previous)
          << compress::codec_kind_name(row.codec)
          << " exception=" << reproduce::kE10ExceptionCycles[i];
      previous = slowdown;
    }
  }
  ASSERT_EQ(rows.cpi.size(), 3u);
  double previous = std::numeric_limits<double>::infinity();
  for (const auto& row : rows.cpi) {
    const double slowdown = row.result.slowdown();
    EXPECT_LT(slowdown, previous) << "cpi=" << row.cycles_per_instruction;
    previous = slowdown;
  }
}

TEST(Shapes, ExceptionRateDropsWithPredecompressionDepth) {
  // Two preconditions for the monotone claim: a decoder fast enough that
  // the helper keeps up (CodePack), and a retention window k_c comfortably
  // above the lead k_d -- otherwise blocks fetched k_d edges early are
  // deleted by the k-edge compressor right around arrival (the "timing of
  // prefetch" trade-off the paper notes in S4).
  const auto& w = mpeg2();
  double prev_rate = 1.0;
  for (const std::uint32_t kd : {1u, 2u, 4u}) {
    SystemConfig config;
    config.codec = compress::CodecKind::kCodePack;
    config.policy.strategy = DecompressionStrategy::kPreAll;
    config.policy.predecompress_k = kd;
    config.policy.compress_k = 16;
    const auto r = CodeCompressionSystem::from_workload(w, config).run();
    EXPECT_LE(r.exception_rate(), prev_rate + 0.05) << "k_d=" << kd;
    prev_rate = r.exception_rate();
  }
}

}  // namespace
}  // namespace apcc
