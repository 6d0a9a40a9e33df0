// Service differentials: a job submitted through serving::Service must
// produce outcomes byte-identical to the direct per-cell reference
// (CodeCompressionSystem::run, or every grid cell run alone on a
// width-1 BatchEngine) -- cold cache and warm cache, shared pool,
// workers 1/2/4 -- while the artifact cache deduplicates builds and
// geometry materialization stays off the submitting thread. Two
// campaigns in flight on one Service must interleave without ordering
// or outcome divergence (the TSan CI job runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/system.hpp"
#include "runtime/frontier_cache.hpp"
#include "serving/service.hpp"
#include "support/assert.hpp"
#include "workloads/suite.hpp"

#include "test_support.hpp"

namespace apcc::serving {
namespace {

using namespace testsupport;

TEST(Service, RunJobMatchesDirectRunColdAndWarm) {
  // The default run cell is on-demand: it plans nothing, so it borrows
  // the cached image and no geometry. Outcomes must not tell the
  // Service cell from the direct run.
  const sim::RunResult direct = reference_systems()[0].run();
  for (const unsigned workers : {1u, 2u, 4u}) {
    Fixture fx(workers);
    const JobSpec job = run_spec(ref(fx.ids[0]));
    SCOPED_TRACE(std::to_string(workers) + " workers");
    // Cold: first submit builds the image.
    const auto cold = fx.service.submit(job);
    EXPECT_EQ(cold.wait().kind, JobKind::kRun);
    expect_identical(cold.wait().run, direct);
    // Warm: resubmission borrows every artifact, same bytes out.
    expect_identical(fx.service.submit(job).wait().run, direct);
    const auto stats = fx.service.cache_stats();
    EXPECT_EQ(stats.images.built, 1u);
    EXPECT_EQ(stats.images.borrows, 1u);
    EXPECT_EQ(stats.images.evictions, 0u);  // no budget, no eviction
    EXPECT_EQ(stats.frontiers.built, 0u);
    EXPECT_EQ(stats.frontiers.borrows, 0u);
    EXPECT_EQ(stats.frontiers.misses, 0u);
    EXPECT_EQ(stats.frontiers.entries, 0u);
    EXPECT_EQ(fx.service.frontier_slot(fx.ids[0],
                                       job.config.policy.predecompress_k),
              nullptr);
  }
}

TEST(Service, SweepJobMatchesDirectRunSweep) {
  // Borrowed Service geometry against the owned per-cell reference.
  const auto grid = test_grid();
  const auto direct = direct_sweep(0, grid);
  for (const unsigned workers : {1u, 2u, 4u}) {
    Fixture fx(workers);
    SCOPED_TRACE(std::to_string(workers) + " workers");
    expect_identical(
        direct,
        fx.service.submit(sweep_spec(ref(fx.ids[0]), grid)).wait().sweep);
  }
}

TEST(Service, CampaignJobMatchesDirectRunCampaign) {
  const auto grid = test_grid();
  const auto direct = direct_campaign(grid);
  for (const unsigned workers : {1u, 2u, 4u}) {
    Fixture fx(workers);
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const auto job = campaign_spec(refs(fx.ids), grid);
    expect_identical(direct, fx.service.submit(job).wait().campaign);
  }
}

TEST(Service, TwoCampaignsInFlightInterleaveWithoutDivergence) {
  // Two different grids over the same workloads, both submitted before
  // either is waited on: the scheduler interleaves their cells on one
  // pool, the artifact cache serves both, and each result must still be
  // byte-identical to its own direct sequential reference.
  const auto grid_a = test_grid();
  auto grid_b = test_grid();
  grid_b.resize(grid_b.size() / 2);
  for (auto& task : grid_b) {
    task.config.policy.predictor = runtime::PredictorKind::kStatic;
    task.label += "/static";
  }

  const auto direct_a = direct_campaign(grid_a);
  const auto direct_b = direct_campaign(grid_b);

  for (const unsigned workers : {2u, 4u}) {
    Fixture fx(workers);
    const auto handle_a =
        fx.service.submit(campaign_spec(refs(fx.ids), grid_a));
    const auto handle_b =
        fx.service.submit(campaign_spec(refs(fx.ids), grid_b));
    EXPECT_NE(handle_a.id(), handle_b.id());
    const auto results_b = handle_b.wait();  // wait out of order on purpose
    const auto results_a = handle_a.wait();
    SCOPED_TRACE(std::to_string(workers) + " workers");
    expect_identical(direct_a, results_a.campaign);
    expect_identical(direct_b, results_b.campaign);
  }
}

TEST(Service, GeometryMaterializesOffTheSubmittingThread) {
  Fixture fx(2);
  (void)fx.service.submit(sweep_spec(ref(fx.ids[0]), test_grid())).wait();
  // Every k the grid touched has a ready slot whose builder was a pool
  // worker, never this (submitting) thread.
  bool saw_slot = false;
  for (const std::uint32_t k : {1u, 4u}) {
    const ArtifactSlot* slot = fx.service.frontier_slot(fx.ids[0], k);
    ASSERT_NE(slot, nullptr) << "k=" << k;
    EXPECT_TRUE(slot->ready());
    EXPECT_NE(slot->builder(), std::this_thread::get_id());
    saw_slot = true;
  }
  EXPECT_TRUE(saw_slot);
  EXPECT_EQ(fx.service.frontier_slot(fx.ids[0], 99u), nullptr);
}

TEST(Service, GeometryHoldsTheListsOfTheBlocksTheTraceExits) {
  // The Service's cells all step the registered workload's trace, so
  // its geometry holds the lists of the blocks that trace exits and no
  // others: exactly a materialize(trace) build's bytes, and a rebuild
  // cost of one BFS per exited block.
  Fixture fx(2);
  (void)fx.service.submit(sweep_spec(ref(fx.ids[0]), test_grid())).wait();
  const workloads::Workload& w = fx.service.workload(fx.ids[0]);
  const std::vector<bool> exited = cfg::exited_blocks(w.cfg, w.trace);
  const auto exits =
      static_cast<std::size_t>(std::ranges::count(exited, true));
  ASSERT_LT(exits, w.cfg.block_count()) << "the trace must skip a block";
  for (const std::uint32_t k : {1u, 4u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const ArtifactSlot* slot = fx.service.frontier_slot(fx.ids[0], k);
    ASSERT_NE(slot, nullptr);
    runtime::FrontierCache every(w.cfg, k);
    every.materialize();
    runtime::FrontierCache restricted(w.cfg, k);
    restricted.materialize(w.trace);
    EXPECT_EQ(slot->ledger.bytes, restricted.resident_bytes());
    EXPECT_LT(slot->ledger.bytes, every.resident_bytes());
    EXPECT_EQ(slot->ledger.rebuild_cost, estimate_frontier_cost(exits, k));
  }
}

TEST(Service, ArtifactCacheDeduplicatesAcrossJobs) {
  Fixture fx(2);
  const JobSpec job = sweep_spec(ref(fx.ids[0]), test_grid());
  const auto first = fx.service.submit(job);
  const auto second = fx.service.submit(job);
  (void)first.wait();
  (void)second.wait();
  const auto stats = fx.service.cache_stats();
  // One image and one geometry cache per distinct key, no matter how
  // many cells or jobs borrowed them. Every cell borrows the image;
  // only the planning (pre-all, pre-single) cells borrow geometry.
  const auto planning = static_cast<std::size_t>(
      std::ranges::count_if(job.tasks, [](const sweep::SweepTask& t) {
        return runtime::plans_ahead(t.config.policy.strategy);
      }));
  EXPECT_EQ(planning, 8u);
  EXPECT_EQ(stats.images.built, 1u);
  EXPECT_EQ(stats.frontiers.built, 2u);  // k=1 and k=4
  EXPECT_EQ(stats.images.borrows + stats.images.built,
            2 * job.tasks.size());
  EXPECT_EQ(stats.frontiers.borrows + stats.frontiers.built, 2 * planning);
  // The hit/miss ledger tells the same story: every build was a miss,
  // every borrow a hit, and nothing was ever rebuilt.
  EXPECT_EQ(stats.images.misses, stats.images.built);
  EXPECT_EQ(stats.images.hits, stats.images.borrows);
  EXPECT_EQ(stats.frontiers.misses, stats.frontiers.built);
  EXPECT_EQ(stats.frontiers.hits, stats.frontiers.borrows);
  EXPECT_EQ(stats.images.rebuilds, 0u);
  EXPECT_EQ(stats.frontiers.rebuilds, 0u);
  // The default budget is unbounded -- these are exactly the counters
  // the pre-budget Service produced, and nothing was ever evicted
  // (the acceptance pin for "budget 0 reproduces today's behaviour").
  EXPECT_EQ(stats.images.evictions, 0u);
  EXPECT_EQ(stats.frontiers.evictions, 0u);
  EXPECT_EQ(stats.images.evicted_bytes, 0u);
  EXPECT_EQ(stats.frontiers.evicted_bytes, 0u);
  EXPECT_EQ(stats.images.entries, 1u);
  EXPECT_EQ(stats.frontiers.entries, 2u);
}

TEST(Service, RunResultIdenticalAcrossCodecs) {
  // Image artifacts are keyed by codec: jobs with different codecs get
  // different images, each matching the direct path for that codec.
  for (const auto codec :
       {compress::CodecKind::kSharedHuffman, compress::CodecKind::kLzss,
        compress::CodecKind::kCodePack, compress::CodecKind::kFieldSplit}) {
    core::SystemConfig config;
    config.codec = codec;
    const auto direct = core::CodeCompressionSystem::from_workload(
                            workloads::make_workload(kinds_under_test()[0]),
                            config)
                            .run();
    Fixture fx(2);
    const auto job = run_spec(ref(fx.ids[0]), config);
    expect_identical(fx.service.submit(job).wait().run, direct);
  }
}

TEST(Service, FailurePropagatesAndServiceSurvives) {
  Fixture fx(2);
  auto grid = test_grid();
  // A budget smaller than any executed block: the engine's placement
  // loop finds no victim and throws -- from a pool worker, which must
  // surface on wait() without wedging the pool.
  grid[1].config.policy.memory_budget = 1;
  const auto bad = fx.service.submit(sweep_spec(ref(fx.ids[0]), grid));
  EXPECT_THROW({ (void)bad.wait(); }, apcc::CheckError);

  expect_identical(fx.service.submit(run_spec(ref(fx.ids[0]))).wait().run,
                   reference_systems()[0].run());
}

TEST(Service, ImageBuildFailureRollsBackTheSlotWithoutDeadlock) {
  // An artifact build that throws (unknown codec kind -> make_codec
  // asserts) must roll the claim-build handshake back: concurrent
  // waiters on the same slot re-claim and surface the failure
  // themselves instead of blocking on a ready flip that never comes,
  // and the slot stays usable for later (valid) jobs.
  Fixture fx(2);
  core::SystemConfig bad;
  bad.codec = static_cast<compress::CodecKind>(250);
  const auto first = fx.service.submit(run_spec(ref(fx.ids[0]), bad));
  const auto second = fx.service.submit(run_spec(ref(fx.ids[0]), bad));
  EXPECT_THROW({ (void)first.wait(); }, apcc::AssertionError);
  EXPECT_THROW({ (void)second.wait(); }, apcc::AssertionError);

  expect_identical(fx.service.submit(run_spec(ref(fx.ids[0]))).wait().run,
                   reference_systems()[0].run());
}

TEST(Service, SubmitValidatesWorkloadIds) {
  Fixture fx(1);
  EXPECT_THROW({ (void)fx.service.submit(run_spec("@99")); }, apcc::CheckError);
  const auto campaign = campaign_spec({ref(fx.ids[0]), "@99"}, test_grid());
  EXPECT_THROW({ (void)fx.service.submit(campaign); }, apcc::CheckError);
}

TEST(Service, PoolWidthAboveTheMaximumIsRefused) {
  // The check runs before the pool is built, so no case starts a thread.
  for (const unsigned workers :
       {ServiceOptions::kMaxWorkers + 1, 4'000'000'000u}) {
    ServiceOptions options;
    options.workers = workers;
    try {
      const Service service(options);
      ADD_FAILURE() << workers << " workers accepted";
    } catch (const apcc::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(workers) +
                                            " workers"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Service, DefaultPoolWidthIsAtLeastOneWorker) {
  // workers = 0 defers to std::thread::hardware_concurrency(), which
  // the standard allows to return 0 ("not computable"); the Service
  // clamps that to one resident worker, never zero -- a zero-thread
  // pool would run nothing and hang every handle.
  const Service automatic{ServiceOptions{}};
  EXPECT_GE(automatic.workers(), 1u);
  EXPECT_EQ(automatic.workers(),
            std::max(1u, std::thread::hardware_concurrency()));
  const Service three(pool_options(3));
  EXPECT_EQ(three.workers(), 3u);
}

TEST(Service, EmptyJobsRetireImmediately) {
  Fixture fx(1);
  const auto sweep_handle = fx.service.submit(sweep_spec(ref(fx.ids[0]), {}));
  EXPECT_TRUE(sweep_handle.ready());
  EXPECT_TRUE(sweep_handle.wait().ok());
  EXPECT_TRUE(sweep_handle.wait().sweep.empty());

  const auto campaign_handle =
      fx.service.submit(campaign_spec(refs(fx.ids), {}));
  const auto& results = campaign_handle.wait().campaign;
  ASSERT_EQ(results.size(), fx.ids.size());
  for (std::size_t w = 0; w < results.size(); ++w) {
    EXPECT_EQ(results[w].workload, fx.service.workload(fx.ids[w]).name);
    EXPECT_TRUE(results[w].outcomes.empty());
  }

  // A campaign over no workloads has no cells and no slices.
  const auto nobody = fx.service.submit(campaign_spec({}, test_grid()));
  EXPECT_TRUE(nobody.ready());
  EXPECT_TRUE(nobody.wait().ok());
  EXPECT_TRUE(nobody.wait().campaign.empty());
}

TEST(Service, HandlesAreReusableAndShareState) {
  Fixture fx(1);
  const auto handle = fx.service.submit(run_spec(ref(fx.ids[0])));
  const auto copy = handle;
  EXPECT_EQ(&handle.wait(), &copy.wait());  // one shared result
  EXPECT_TRUE(copy.ready());
  EXPECT_EQ(handle.id(), copy.id());
  EXPECT_FALSE(JobHandle<JobResult>{}.valid());
}

TEST(Service, DrainWaitsForEverything) {
  Fixture fx(2);
  std::vector<JobHandle<JobResult>> handles;
  for (std::size_t i = 0; i < 4; ++i) {
    handles.push_back(
        fx.service.submit(run_spec(ref(fx.ids[i % fx.ids.size()]))));
  }
  fx.service.drain();
  for (const auto& handle : handles) EXPECT_TRUE(handle.ready());
}

TEST(Service, RegisterWhileJobsInFlight) {
  Fixture fx(2);
  const auto handle =
      fx.service.submit(sweep_spec(ref(fx.ids[0]), test_grid()));
  const auto late = fx.service.register_workload(
      workloads::make_workload(workloads::WorkloadKind::kG721Like));
  const auto late_result = fx.service.submit(run_spec(ref(late))).wait().run;
  (void)handle.wait();
  expect_identical(late_result,
                   core::CodeCompressionSystem::from_workload(
                       workloads::make_workload(
                           workloads::WorkloadKind::kG721Like))
                       .run());
}

}  // namespace
}  // namespace apcc::serving
