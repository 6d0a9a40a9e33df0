// The engine's allocation contract. Once a run is set up, stepping the
// trace does no heap allocation. Setup -- each cell's record table, the
// materialized frontier cache, the profile predictor's per-block index
// and reach scratch -- allocates a handful of flat arrays, and the
// vectors that grow to a run's peak (the resident-id list, the
// allocator's live copies, the remember-set node pool, the ready queue,
// the reused per-exit buffers, the predictor's one ranking array)
// reallocate a logarithmic number of times. So neither the trace's
// length nor the CFG's size moves a run's allocation count much.
//
// This file replaces the global operator new with a counting one (for
// the whole apcc_sim_tests binary; it only counts, then defers to
// malloc). The parameterized case runs width-1 BatchEngines over an
// N-step and a 2N-step prefix of a suite kernel's trace and bounds the
// extra allocations of the longer run per CFG block, over every
// strategy, k in {1, 8}, and an unbounded and a tight memory budget.
// RunAllocationsDoNotGrowWithTheCfg counts every allocation of a whole
// width-1 run, setup included, on a 2,444-block program and on a
// 19-block suite kernel, and bounds the difference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "sim/batch_engine.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced, so each new/delete pair meets in
// malloc/free (sanitizers check that pairing). The aligned forms keep
// the runtime's own pair; nothing on the engine path uses them.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace apcc::sim {
namespace {

using workloads::WorkloadKind;

/// Allowed extra allocations per CFG block when the trace doubles: room
/// for lazily filled per-block state, far below one per step (doubling
/// adds 500+ steps on kernels of 12-25 blocks).
constexpr double kMaxExtraPerBlock = 8.0;

/// Allowed extra allocations of a whole width-1 run on a 2,444-block
/// program over the same run on a 19-block kernel: a few more doublings
/// of the vectors that grow to the run's peak, nothing per block.
constexpr std::size_t kMaxExtraForCfg = 32;

struct Kernel {
  workloads::Workload workload;
  runtime::BlockImage image;
};

std::unique_ptr<Kernel> make_kernel(workloads::Workload w) {
  runtime::BlockImage image(
      w.cfg, w.block_bytes,
      compress::make_codec(compress::CodecKind::kSharedHuffman,
                           w.block_bytes));
  return std::unique_ptr<Kernel>(new Kernel{std::move(w), std::move(image)});
}

const Kernel& kernel(WorkloadKind kind) {
  static std::vector<std::unique_ptr<Kernel>> cache(
      workloads::all_workload_kinds().size());
  auto& slot = cache.at(static_cast<std::size_t>(kind));
  if (!slot) slot = make_kernel(workloads::make_workload(kind));
  return *slot;
}

/// The campaign grid's tight budget: 1.5x the suite's largest block,
/// valid for every kernel.
std::uint64_t tight_budget() {
  std::uint64_t largest = 0;
  for (const WorkloadKind kind : workloads::all_workload_kinds()) {
    for (const auto& b : kernel(kind).workload.cfg.blocks()) {
      largest = std::max(largest, b.size_bytes());
    }
  }
  return largest * 3 / 2;
}

/// Heap allocations made by one width-1 run over `trace`.
std::size_t allocations_of_run(const Kernel& k, const EngineConfig& config,
                               const cfg::BlockTrace& trace) {
  BatchEngine engine(k.workload.cfg, k.image, {config});
  const std::size_t before = g_allocations.load();
  const std::vector<CellOutcome> outcomes = engine.run(trace);
  const std::size_t after = g_allocations.load();
  EXPECT_TRUE(outcomes.front().ok());
  return after - before;
}

/// Heap allocations made by one whole width-1 run over the kernel's
/// trace: the engine's construction, its setup and every step.
std::size_t allocations_of_whole_run(const Kernel& k,
                                     const EngineConfig& config) {
  const std::size_t before = g_allocations.load();
  std::vector<CellOutcome> outcomes;
  {
    BatchEngine engine(k.workload.cfg, k.image, {config});
    outcomes = engine.run(k.workload.trace);
  }
  const std::size_t after = g_allocations.load();
  EXPECT_TRUE(outcomes.front().ok());
  return after - before;
}

TEST(StepAllocation, RunAllocationsDoNotGrowWithTheCfg) {
  // artifact-churn's program shape (perfbench's plan), first seed.
  workloads::RandomProgramOptions options;
  options.seed = 9001;
  options.max_depth = 3;
  options.statements_per_body = 40;
  options.leaf_functions = 16;
  options.loop_iters_max = 6;
  const std::unique_ptr<Kernel> big =
      make_kernel(workloads::make_random_workload(options));
  const Kernel& small = kernel(WorkloadKind::kJpegLike);
  ASSERT_EQ(big->workload.cfg.block_count(), 2444u);
  ASSERT_EQ(small.workload.cfg.block_count(), 19u);

  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t kk : {1u, 8u}) {
      EngineConfig config;
      config.policy.strategy = strategy;
      config.policy.compress_k = kk;
      config.policy.predecompress_k = kk;
      const std::size_t on_small = allocations_of_whole_run(small, config);
      const std::size_t on_big = allocations_of_whole_run(*big, config);
      EXPECT_LE(on_big, on_small + kMaxExtraForCfg)
          << runtime::strategy_name(strategy) << " k " << kk << ": "
          << on_big << " allocations on 2444 blocks, " << on_small
          << " on 19";
    }
  }
}

class StepAllocationTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(StepAllocationTest, SteadyStateStepsDoNotAllocate) {
  const Kernel& k = kernel(GetParam());
  const cfg::BlockTrace& full = k.workload.trace;
  const std::size_t n = full.size() / 2;
  ASSERT_GE(n, 100u) << "trace too short to tell steps from setup";
  const cfg::BlockTrace short_run(full.begin(), full.begin() + n);
  const cfg::BlockTrace long_run(full.begin(), full.begin() + 2 * n);
  const double blocks = static_cast<double>(k.workload.cfg.block_count());

  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t kk : {1u, 8u}) {
      for (const bool tight : {false, true}) {
        EngineConfig config;
        config.policy.strategy = strategy;
        config.policy.compress_k = kk;
        config.policy.predecompress_k = kk;
        if (tight) config.policy.memory_budget = tight_budget();
        const std::size_t shorter = allocations_of_run(k, config, short_run);
        const std::size_t longer = allocations_of_run(k, config, long_run);
        const double extra_per_block =
            (static_cast<double>(longer) - static_cast<double>(shorter)) /
            blocks;
        EXPECT_LE(extra_per_block, kMaxExtraPerBlock)
            << runtime::strategy_name(strategy) << " k " << kk
            << (tight ? " tight" : " unbounded") << ": " << shorter
            << " allocations over " << n << " steps, " << longer << " over "
            << 2 * n << " steps, " << blocks << " blocks";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SuiteKernels, StepAllocationTest,
    ::testing::ValuesIn(workloads::all_workload_kinds()),
    [](const ::testing::TestParamInfo<WorkloadKind>& info) {
      std::string name = workloads::workload_name(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace apcc::sim
