// Budgeted artifact cache, end to end: eviction under a byte budget
// never changes any job outcome -- only when artifacts are rebuilt.
// These tests drive the Service with budgets small enough to force
// constant thrash and pin five things:
//
//  * differential byte-identity: the same sweep under a tiny budget
//    matches the direct per-cell reference at several worker counts and
//    lockstep batch widths, and under a budget that only both kinds
//    together exceed, while the eviction counters prove the budget
//    machinery actually ran;
//  * job-stamped recency: the cache counts of a job list run one job at
//    a time do not depend on the order of one job's cells;
//  * pinning: artifacts borrowed by in-flight cells survive any
//    eviction pressure (a parked batch holds its leases while another
//    job thrashes the cache);
//  * fault interaction: an injected build failure under eviction
//    pressure still rolls back cleanly, and the rebuilt artifact is
//    byte-identical;
//  * the fault plan's evict_at_publish forced flush drives the
//    evict-then-rebuild path deterministically, without budget tuning.
//
// The whole binary runs under TSan in CI, so the pin refcounts and the
// publish-time eviction pass get race coverage for free.
#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serving/fault_plan.hpp"
#include "serving/service.hpp"
#include "workloads/suite.hpp"

#include "test_support.hpp"

namespace apcc::serving {
namespace {

using namespace testsupport;

ServiceOptions budgeted(unsigned workers, CacheBudget budget) {
  ServiceOptions options;
  options.workers = workers;
  options.cache_budget = budget;
  return options;
}

/// Parks the task boundary with ordinal `park_at` until release();
/// every other boundary passes straight through. Unlike the
/// fault-injection BoundaryGate (which parks boundary 1), this lets a
/// batch run its first cell -- acquiring and pinning artifacts -- and
/// then hold them parked while the test thrashes the cache.
struct ParkAt {
  explicit ParkAt(std::size_t park_at) : park_at_(park_at) {}

  std::shared_ptr<const FaultPlan> plan() {
    auto p = std::make_shared<FaultPlan>();
    p->on_boundary = [this](std::size_t n) {
      if (n != park_at_) return;
      std::unique_lock<std::mutex> lock(mutex_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    };
    return p;
  }
  void await_parked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  const std::size_t park_at_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool open_ = false;
};

/// A one-byte budget: every publish finds the cache over budget, so
/// every unpinned artifact is evicted as soon as a new one lands.
CacheBudget tiny_budget() {
  CacheBudget tiny;
  tiny.total_bytes = 1;
  return tiny;
}

TEST(Eviction, TinyBudgetSweepIsByteIdenticalToDirect) {
  // The acceptance differential: a one-byte budget over both kinds is
  // maximum thrash. Outcomes must still match the direct per-cell
  // reference byte for byte at every worker count and batch width.
  const auto grid = test_grid();
  const auto direct = direct_sweep(0, grid);
  const CacheBudget tiny = tiny_budget();
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const std::uint32_t batch : {1u, 16u}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, batch " +
                   std::to_string(batch));
      Fixture fx(budgeted(workers, tiny));
      const auto job = sweep_spec(ref(fx.ids[0]), grid, batch);
      expect_identical(direct, fx.service.submit(job).wait().sweep);
      const auto stats = fx.service.cache_stats();
      // Eviction changes counters, never bytes: every rebuild is also
      // a fresh miss, so misses == built still holds (no build failed).
      EXPECT_EQ(stats.frontiers.misses, stats.frontiers.built);
      EXPECT_EQ(stats.images.misses, stats.images.built);
      if (workers == 1 && batch == 1) {
        // One worker runs the cells in grid order, which alternates
        // k=1 / k=4, so each geometry publish finds the other key
        // resident and unpinned: guaranteed thrash. (At higher worker
        // counts concurrent cells may pin both keys at every publish,
        // so only byte-identity is deterministic; at batch 16 one work
        // item leases all 12 cells' artifacts at once, so everything is
        // pinned at publish time and eviction correctly finds no
        // victim.)
        EXPECT_GT(stats.frontiers.evictions, 0u);
        EXPECT_GT(stats.frontiers.evicted_bytes, 0u);
        EXPECT_GT(stats.frontiers.built, 2u);  // rebuilt after eviction
      }
    }
  }
}

TEST(Eviction, SharedTotalBudgetIsByteIdenticalToDirect) {
  // Same differential through the shared ceiling: total_bytes covers
  // both kinds at once. The budget is one byte short of everything the
  // sweep builds, so neither the image nor the two geometries alone
  // reach it -- only their sum does. One worker, k-alternating grid:
  // each geometry publish evicts the other (unpinned) geometry, while
  // the publishing cell pins the image.
  const auto grid = test_grid();
  const auto direct = direct_sweep(0, grid);
  std::uint64_t image_bytes = 0;
  std::uint64_t frontier_bytes = 0;
  {
    Fixture unbounded(budgeted(1, CacheBudget{}));
    const auto job = sweep_spec(ref(unbounded.ids[0]), grid);
    expect_identical(direct, unbounded.service.submit(job).wait().sweep);
    const auto stats = unbounded.service.cache_stats();
    EXPECT_EQ(stats.frontiers.evictions, 0u);
    image_bytes = stats.images.bytes;
    frontier_bytes = stats.frontiers.bytes;
  }
  CacheBudget shared;
  shared.total_bytes = image_bytes + frontier_bytes - 1;
  ASSERT_LT(image_bytes, shared.total_bytes);
  ASSERT_LT(frontier_bytes, shared.total_bytes);

  Fixture fx(budgeted(1, shared));
  const auto job = sweep_spec(ref(fx.ids[0]), grid);
  expect_identical(direct, fx.service.submit(job).wait().sweep);
  const auto stats = fx.service.cache_stats();
  EXPECT_GT(stats.frontiers.evictions, 0u);
  EXPECT_EQ(stats.frontiers.misses, stats.frontiers.built);
  EXPECT_EQ(stats.images.evictions, 0u);
  EXPECT_LE(stats.images.bytes + stats.frontiers.bytes, shared.total_bytes);
}

TEST(Eviction, ImageEvictionAcrossWorkloadsRebuildsByteIdentical) {
  // Two workloads, one-byte budget, one worker: workload B's image
  // publish evicts workload A's (unpinned) image, and vice versa on the
  // rebuild -- the deterministic image-eviction sequence.
  Fixture fx(budgeted(1, tiny_budget()));
  const sim::RunResult direct_a = reference_systems()[0].run();
  const sim::RunResult direct_b = reference_systems()[1].run();

  expect_identical(fx.service.submit(run_spec(ref(fx.ids[0]))).wait().run,
                   direct_a);
  expect_identical(fx.service.submit(run_spec(ref(fx.ids[1]))).wait().run,
                   direct_b);
  {
    // B's publish found A's image resident and unpinned: evicted.
    const auto stats = fx.service.cache_stats();
    EXPECT_EQ(stats.images.built, 2u);
    EXPECT_EQ(stats.images.evictions, 1u);
    EXPECT_GT(stats.images.evicted_bytes, 0u);
    EXPECT_EQ(stats.images.entries, 1u);  // only B resident
  }
  // A transparently rebuilds -- an ordinary miss, not a failure-path
  // rebuild -- and the rebuilt image serves byte-identical results.
  expect_identical(fx.service.submit(run_spec(ref(fx.ids[0]))).wait().run,
                   direct_a);
  const auto stats = fx.service.cache_stats();
  EXPECT_EQ(stats.images.built, 3u);
  EXPECT_EQ(stats.images.misses, 3u);
  EXPECT_EQ(stats.images.rebuilds, 0u);  // eviction is not a failure
  EXPECT_EQ(stats.images.evictions, 2u);  // A's rebuild evicted B
  EXPECT_EQ(stats.images.entries, 1u);
}

TEST(Eviction, PinnedArtifactsSurviveWhileBorrowed) {
  // Job A: one 12-cell lockstep batch on workload 0, parked at its
  // sixth cell's boundary -- the leases of cells 1-5 are live: the
  // image for all five, and the k=1 geometry for cell 5, the first
  // planning cell (cells 1-4 are on-demand and borrow no geometry).
  // Job B then thrashes the cache on workload 1 under a one-byte
  // budget. A's pinned artifacts must survive every eviction pass B
  // triggers, and A must complete byte-identical after release.
  const auto grid = test_grid();
  ASSERT_FALSE(runtime::plans_ahead(grid[3].config.policy.strategy));
  ASSERT_TRUE(runtime::plans_ahead(grid[4].config.policy.strategy));
  ASSERT_EQ(grid[4].config.policy.predecompress_k, 1u);
  const auto direct_a = direct_sweep(0, grid);
  const auto direct_b = direct_sweep(1, grid);

  ParkAt gate(6);  // boundaries 1-5 = A's first five cells; 6 = its sixth
  ServiceOptions options = budgeted(2, tiny_budget());
  options.faults = gate.plan();
  Fixture fx(options);

  // Batch 16: one item leases every cell it admits.
  const auto handle_a = fx.service.submit(sweep_spec(ref(fx.ids[0]), grid, 16));
  gate.await_parked();

  // While A is parked, its first five cells' artifacts are pinned and
  // resident (the k=1 geometry slot stays ready through everything B
  // does below).
  const ArtifactSlot* slot_a = fx.service.frontier_slot(fx.ids[0], 1);
  ASSERT_NE(slot_a, nullptr);
  EXPECT_TRUE(slot_a->ready());
  EXPECT_GT(slot_a->pins(), 0u);

  const auto job_b = sweep_spec(ref(fx.ids[1]), grid);
  expect_identical(direct_b, fx.service.submit(job_b).wait().sweep);

  {
    const auto stats = fx.service.cache_stats();
    // B thrashed: its k-alternating publishes evicted its own unpinned
    // geometry...
    EXPECT_GT(stats.frontiers.evictions, 0u);
    // ...but never A's pinned artifacts, nor B's image, which the
    // publishing cell pins at every B publish: both images resident,
    // A's k=1 geometry still ready.
    EXPECT_EQ(stats.images.evictions, 0u);
    EXPECT_EQ(stats.images.entries, 2u);
    EXPECT_TRUE(slot_a->ready());
  }

  gate.release();
  expect_identical(direct_a, handle_a.wait().sweep);
}

TEST(Eviction, InjectedBuildFailureUnderPressureRollsBackCleanly) {
  // Build failure and eviction pressure interleaved: build 2 (workload
  // B's image) fails injected; the claim rolls back; the retry is a
  // failure-path rebuild; its publish then evicts A's image; A's
  // transparent rebuild evicts B's in turn. Every surviving result is
  // byte-identical -- neither machinery corrupts the other.
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 17;
  plan->fail_image_build = 2;
  ServiceOptions options = budgeted(1, tiny_budget());
  options.faults = plan;
  Fixture fx(options);
  const sim::RunResult direct_a = reference_systems()[0].run();
  const sim::RunResult direct_b = reference_systems()[1].run();

  expect_identical(fx.service.submit(run_spec(ref(fx.ids[0]))).wait().run,
                   direct_a);

  const auto poisoned = fx.service.submit(run_spec(ref(fx.ids[1])));
  try {
    (void)poisoned.wait();
    FAIL() << "expected the injected build failure to rethrow";
  } catch (const apcc::CheckError& e) {
    EXPECT_STREQ(e.what(), "injected fault: image build 2 failed (seed 17)");
  }
  {
    // The rollback left A's image untouched -- a failed build is not a
    // publish, so no eviction pass ran for it.
    const auto stats = fx.service.cache_stats();
    EXPECT_EQ(stats.images.evictions, 0u);
    EXPECT_EQ(stats.images.entries, 1u);
  }

  expect_identical(fx.service.submit(run_spec(ref(fx.ids[1]))).wait().run,
                   direct_b);
  expect_identical(fx.service.submit(run_spec(ref(fx.ids[0]))).wait().run,
                   direct_a);

  const auto stats = fx.service.cache_stats();
  EXPECT_EQ(stats.images.built, 3u);     // A, B's retry, A's rebuild
  EXPECT_EQ(stats.images.misses, 4u);    // + the failed claim
  EXPECT_EQ(stats.images.rebuilds, 1u);  // only the failure-path retry
  EXPECT_EQ(stats.images.evictions, 2u); // B's publish took A, A's took B
  EXPECT_EQ(stats.images.entries, 1u);
}

TEST(Eviction, FaultPlanForcedFlushDrivesRebuildDeterministically) {
  // evict_at_publish = 3, one worker, the k-alternating grid: publishes
  // land as (1) image, (2) k=1 geometry, (3) k=4 geometry. The forced
  // flush at publish 3 reclaims exactly the unpinned k=1 geometry --
  // the publishing cell's image and k=4 borrows are pinned -- so the
  // next k=1 cell rebuilds it. No budget tuning, same outcome bytes.
  auto plan = std::make_shared<FaultPlan>();
  plan->evict_at_publish = 3;
  ServiceOptions options;
  options.workers = 1;
  options.faults = plan;
  Fixture fx(options);
  const auto grid = test_grid();
  const auto job = sweep_spec(ref(fx.ids[0]), grid);
  expect_identical(direct_sweep(0, grid), fx.service.submit(job).wait().sweep);

  const auto stats = fx.service.cache_stats();
  EXPECT_EQ(stats.images.evictions, 0u);     // pinned at the flush
  EXPECT_EQ(stats.frontiers.evictions, 1u);  // exactly the k=1 geometry
  EXPECT_GT(stats.frontiers.evicted_bytes, 0u);
  EXPECT_EQ(stats.frontiers.built, 3u);      // k=1, k=4, k=1 again
  EXPECT_EQ(stats.frontiers.misses, 3u);
  EXPECT_EQ(stats.frontiers.rebuilds, 0u);   // eviction is not a failure
  EXPECT_EQ(stats.frontiers.entries, 2u);    // both resident at the end
}

void expect_same_counts(const ArtifactStats& a, const ArtifactStats& b) {
  EXPECT_EQ(a.built, b.built);
  EXPECT_EQ(a.borrows, b.borrows);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.rebuilds, b.rebuilds);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.evicted_bytes, b.evicted_bytes);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.entries, b.entries);
}

TEST(Eviction, RecencyFollowsTheJobSequenceNotTheCellOrder) {
  // Two one-worker Services run the same three jobs on jpeg-like under
  // a 1,800 B budget: (1) a pre-all sweep over k=1 and k=4, (2) a
  // pre-all lzss run at k=2, (3) job 1 again. Every cell plans, so each
  // reads the geometry of its k. Job 1 lists its two cells in opposite
  // orders in the two Services. Its own artifacts (1,249 B: a 645 B
  // image and 604 B of geometry for the 15 of 19 blocks the trace
  // exits) fit the budget and job 2's force evictions (unbounded, the
  // three jobs end holding 2,097 B), so which artifacts the evictions
  // pick must follow the job sequence alone: the two Services end with
  // the same cache counts.
  const auto cell = [](std::uint32_t k) {
    sweep::SweepTask task;
    task.config.policy.strategy = runtime::DecompressionStrategy::kPreAll;
    task.config.policy.compress_k = k;
    task.config.policy.predecompress_k = k;
    task.label = "k" + std::to_string(k);
    return task;
  };
  core::SystemConfig lzss;
  lzss.codec = compress::CodecKind::kLzss;
  lzss.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  lzss.policy.compress_k = 2;
  lzss.policy.predecompress_k = 2;
  CacheBudget budget;
  budget.total_bytes = 1800;

  std::vector<CacheStats> stats;
  for (const auto& ks : {std::vector<std::uint32_t>{1, 4},
                         std::vector<std::uint32_t>{4, 1}}) {
    Service service(budgeted(1, budget));
    const WorkloadId id = service.register_workload(
        workloads::make_workload(workloads::WorkloadKind::kJpegLike));
    std::vector<sweep::SweepTask> grid;
    for (const std::uint32_t k : ks) grid.push_back(cell(k));
    EXPECT_EQ(service.submit(sweep_spec(ref(id), grid)).wait().status,
              JobStatus::kOk);
    EXPECT_LE(service.cache_stats().images.bytes +
                  service.cache_stats().frontiers.bytes,
              budget.total_bytes);  // job 1 fits: nothing evicted yet
    EXPECT_EQ(service.submit(run_spec(ref(id), lzss)).wait().status,
              JobStatus::kOk);
    EXPECT_EQ(service.submit(sweep_spec(ref(id), grid)).wait().status,
              JobStatus::kOk);
    stats.push_back(service.cache_stats());
  }
  EXPECT_GT(stats[0].frontiers.evictions, 0u);  // the budget did evict
  {
    SCOPED_TRACE("images");
    expect_same_counts(stats[0].images, stats[1].images);
  }
  {
    SCOPED_TRACE("frontiers");
    expect_same_counts(stats[0].frontiers, stats[1].frontiers);
  }
}

}  // namespace
}  // namespace apcc::serving
