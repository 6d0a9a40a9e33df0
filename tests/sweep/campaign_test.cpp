// Campaign tests: the suite x grid runner must be byte-identical to
// running every cell alone, workload by workload (the independent
// per-cell reference in tests/common) -- for any worker count and batch
// width, with shared (borrowed, materialized) FrontierCache geometry on
// and off -- and its per-workload grouping, error and geometry plumbing
// must behave.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/cell_reference.hpp"
#include "common/same_run.hpp"
#include "core/system.hpp"
#include "runtime/frontier_cache.hpp"
#include "support/assert.hpp"
#include "sweep/campaign.hpp"
#include "workloads/suite.hpp"

namespace apcc::sweep {
namespace {

const std::vector<workloads::WorkloadKind>& kinds_under_test() {
  static const auto* kinds = new std::vector<workloads::WorkloadKind>{
      workloads::WorkloadKind::kAdpcmLike, workloads::WorkloadKind::kCrcLike,
      workloads::WorkloadKind::kG721Like};
  return *kinds;
}

const std::vector<core::CodeCompressionSystem>& systems_under_test() {
  static const auto* systems = [] {
    auto* out = new std::vector<core::CodeCompressionSystem>();
    for (const auto kind : kinds_under_test()) {
      out->push_back(core::CodeCompressionSystem::from_workload(
          workloads::make_workload(kind)));
    }
    return out;
  }();
  return *systems;
}

std::vector<CampaignWorkload> campaign_workloads() {
  std::vector<CampaignWorkload> workloads;
  const auto& systems = systems_under_test();
  for (std::size_t i = 0; i < systems.size(); ++i) {
    workloads.push_back(CampaignWorkload{
        workloads::workload_name(kinds_under_test()[i]), &systems[i].cfg(),
        &systems[i].image(), &systems[i].default_trace()});
  }
  return workloads;
}

/// A mixed grid shared by every workload: all strategies, two ks, both
/// budget modes. The tight budget is sized off the largest executed
/// block across all test workloads so one grid is valid everywhere.
std::vector<SweepTask> shared_grid() {
  std::uint64_t largest = 0;
  for (const auto& system : systems_under_test()) {
    for (const auto b : system.default_trace()) {
      largest = std::max(largest, system.cfg().block(b).size_bytes());
    }
  }
  std::vector<SweepTask> tasks;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 4u}) {
      for (const bool tight : {false, true}) {
        SweepTask task;
        task.config.policy.strategy = strategy;
        task.config.policy.compress_k = k;
        task.config.policy.predecompress_k = k;
        if (tight) task.config.policy.memory_budget = largest * 3 + 32;
        task.label = std::string(runtime::strategy_name(strategy)) + "/k" +
                     std::to_string(k) + (tight ? "/tight" : "/unbounded");
        tasks.push_back(std::move(task));
      }
    }
  }
  return tasks;
}

void expect_identical(const SweepOutcome& a, const SweepOutcome& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.label, b.label);
  testref::expect_same_result(a.result, b.result);
}

TEST(Campaign, ParallelCampaignIdenticalToSequentialPerWorkloadGrids) {
  const auto workloads = campaign_workloads();
  const auto grid = shared_grid();

  // The reference: every cell run alone, workload-major, geometry owned
  // per cell.
  const auto expected = testref::per_cell_campaign(workloads, grid);

  for (const bool share : {false, true}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      CampaignOptions options;
      options.workers = workers;
      options.share_frontiers = share;
      const auto results = run_campaign(workloads, grid, options);
      ASSERT_EQ(results.size(), workloads.size())
          << workers << " workers, share=" << share;
      for (std::size_t w = 0; w < results.size(); ++w) {
        SCOPED_TRACE(results[w].workload + " @ " + std::to_string(workers) +
                     " workers, share=" + std::to_string(share));
        EXPECT_EQ(results[w].workload, workloads[w].name);
        ASSERT_EQ(results[w].outcomes.size(), expected[w].outcomes.size());
        for (std::size_t i = 0; i < expected[w].outcomes.size(); ++i) {
          expect_identical(expected[w].outcomes[i], results[w].outcomes[i]);
        }
      }
    }
  }
}

TEST(Campaign, BatchedIdenticalToSequential) {
  // Batches never span workloads, so a 12-task grid at batch 8 gives
  // each workload an 8 + 4 chunking and batch 16 one 12-cell chunk;
  // results must stay byte-identical to the per-cell reference for
  // every (batch, workers, share_frontiers) combination.
  const auto workloads = campaign_workloads();
  const auto grid = shared_grid();
  const auto expected = testref::per_cell_campaign(workloads, grid);

  for (const bool share : {false, true}) {
    for (const std::uint32_t batch : {4u, 8u, 16u}) {
      for (const unsigned workers : {1u, 2u, 4u}) {
        CampaignOptions options;
        options.workers = workers;
        options.share_frontiers = share;
        options.batch_cells = batch;
        const auto results = run_campaign(workloads, grid, options);
        ASSERT_EQ(results.size(), workloads.size());
        for (std::size_t w = 0; w < results.size(); ++w) {
          SCOPED_TRACE(results[w].workload + " @ batch " +
                       std::to_string(batch) + " x " +
                       std::to_string(workers) +
                       " workers, share=" + std::to_string(share));
          EXPECT_EQ(results[w].workload, workloads[w].name);
          ASSERT_EQ(results[w].outcomes.size(),
                    expected[w].outcomes.size());
          for (std::size_t i = 0; i < expected[w].outcomes.size(); ++i) {
            expect_identical(expected[w].outcomes[i], results[w].outcomes[i]);
          }
        }
      }
    }
  }
}

TEST(Campaign, OutcomesGroupedPerWorkloadInTaskOrder) {
  const auto workloads = campaign_workloads();
  const auto grid = shared_grid();
  CampaignOptions options;
  options.workers = 4;
  const auto results = run_campaign(workloads, grid, options);
  ASSERT_EQ(results.size(), workloads.size());
  for (std::size_t w = 0; w < results.size(); ++w) {
    EXPECT_EQ(results[w].workload, workloads[w].name);
    ASSERT_EQ(results[w].outcomes.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(results[w].outcomes[i].index, i);
      EXPECT_EQ(results[w].outcomes[i].label, grid[i].label);
    }
  }
}

TEST(Campaign, EmptyGridYieldsNamedEmptyResults) {
  const auto results = run_campaign(campaign_workloads(), {});
  ASSERT_EQ(results.size(), kinds_under_test().size());
  for (std::size_t w = 0; w < results.size(); ++w) {
    EXPECT_EQ(results[w].workload,
              workloads::workload_name(kinds_under_test()[w]));
    EXPECT_TRUE(results[w].outcomes.empty());
  }
}

TEST(Campaign, EmptyWorkloadsYieldNothing) {
  EXPECT_TRUE(run_campaign({}, shared_grid()).empty());
}

TEST(Campaign, NullWorkloadInputsAreRejected) {
  auto workloads = campaign_workloads();
  workloads[1].trace = nullptr;
  EXPECT_THROW({ (void)run_campaign(workloads, shared_grid()); },
               apcc::CheckError);
}

TEST(Campaign, WorkerFailureRethrownOnCaller) {
  const auto workloads = campaign_workloads();
  auto grid = shared_grid();
  // A budget smaller than any executed block: the engine's placement
  // loop finds no victim and no in-flight completion, and throws --
  // from a pool worker, which must surface on the calling thread.
  grid[2].config.policy.memory_budget = 1;
  for (const unsigned workers : {1u, 4u}) {
    CampaignOptions options;
    options.workers = workers;
    EXPECT_THROW({ (void)run_campaign(workloads, grid, options); },
                 apcc::CheckError)
        << workers << " workers";
  }
}

TEST(Campaign, MaterializedCacheHoldsTheSameListsAsALazyOne) {
  // The geometry-sharing invariant at its root: a materialized cache
  // hands out exactly the lists a per-cell lazy cache would compute,
  // for every block and every k the campaign would key on.
  const auto& system = systems_under_test().front();
  for (const unsigned k : {1u, 4u}) {
    runtime::FrontierCache shared(system.cfg(), k);
    shared.materialize();
    EXPECT_TRUE(shared.materialized());
    EXPECT_EQ(shared.k(), k);
    const runtime::FrontierCache lazy(system.cfg(), k);
    for (cfg::BlockId b = 0; b < system.cfg().block_count(); ++b) {
      const auto got = shared.candidates(b);
      const auto want = lazy.candidates(b);
      ASSERT_EQ(got.size(), want.size()) << "block " << b << " k " << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].block, want[i].block);
        EXPECT_EQ(got[i].distance, want[i].distance);
      }
    }
  }
}

TEST(Campaign, CoreEntryPointMatchesSweepLayer) {
  // core::run_campaign is a veneer over sweep::run_campaign using each
  // system's default trace; the two must agree exactly.
  const auto& systems = systems_under_test();
  std::vector<core::CampaignEntry> entries;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    entries.push_back(
        {workloads::workload_name(kinds_under_test()[i]), &systems[i]});
  }
  const auto grid = shared_grid();
  CampaignOptions options;
  options.workers = 2;
  const auto via_core = core::run_campaign(entries, grid, options);
  const auto via_sweep = run_campaign(campaign_workloads(), grid, options);
  ASSERT_EQ(via_core.size(), via_sweep.size());
  for (std::size_t w = 0; w < via_core.size(); ++w) {
    EXPECT_EQ(via_core[w].workload, via_sweep[w].workload);
    ASSERT_EQ(via_core[w].outcomes.size(), via_sweep[w].outcomes.size());
    for (std::size_t i = 0; i < via_core[w].outcomes.size(); ++i) {
      expect_identical(via_sweep[w].outcomes[i], via_core[w].outcomes[i]);
    }
  }
}

TEST(Campaign, CoreEntryPointRejectsNullSystem) {
  std::vector<core::CampaignEntry> entries = {{"broken", nullptr}};
  EXPECT_THROW({ (void)core::run_campaign(entries, shared_grid()); },
               apcc::CheckError);
}

}  // namespace
}  // namespace apcc::sweep
