// Shared fixtures for the serving test binary: the workloads under
// test, their direct-API reference systems, the per-cell references
// (tests/common/cell_reference.hpp) over them, a policy grid that is
// valid for every test workload, JobSpec helpers, and field-by-field
// RunResult comparison (the byte-identity differentials all build on
// these).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/cell_reference.hpp"
#include "common/same_run.hpp"
#include "core/system.hpp"
#include "serving/service.hpp"
#include "workloads/suite.hpp"

namespace apcc::serving::testsupport {

inline const std::vector<workloads::WorkloadKind>& kinds_under_test() {
  static const auto* kinds = new std::vector<workloads::WorkloadKind>{
      workloads::WorkloadKind::kCrcLike, workloads::WorkloadKind::kAdpcmLike};
  return *kinds;
}

/// Direct-API reference systems, one per kind (default SystemConfig).
inline const std::vector<core::CodeCompressionSystem>& reference_systems() {
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

/// The per-cell reference for `grid` over reference system `i`: every
/// task run alone on a width-1 BatchEngine, in task order.
inline std::vector<sweep::SweepOutcome> direct_sweep(
    std::size_t i, const std::vector<sweep::SweepTask>& grid) {
  return testref::per_cell_sweep(reference_systems()[i], grid);
}

/// The per-cell reference for a campaign of `grid` over every reference
/// system, named like the registered workloads.
inline std::vector<sweep::CampaignResult> direct_campaign(
    const std::vector<sweep::SweepTask>& grid) {
  std::vector<sweep::CampaignResult> results;
  for (std::size_t i = 0; i < reference_systems().size(); ++i) {
    results.push_back(sweep::CampaignResult{
        workloads::workload_name(kinds_under_test()[i]),
        direct_sweep(i, grid)});
  }
  return results;
}

/// "@<id>": the exact JobSpec reference to a registered workload.
inline std::string ref(WorkloadId id) { return "@" + std::to_string(id); }

inline std::vector<std::string> refs(const std::vector<WorkloadId>& ids) {
  std::vector<std::string> out;
  for (const WorkloadId id : ids) out.push_back(ref(id));
  return out;
}

/// A kind=run JobSpec over workload reference `workload` ("@<id>" or a
/// registered name).
inline JobSpec run_spec(const std::string& workload,
                        core::SystemConfig config = {}) {
  JobSpec spec;
  spec.kind = JobKind::kRun;
  spec.workloads = {workload};
  spec.config = config;
  return spec;
}

/// A kind=sweep JobSpec of `tasks` over one workload reference.
inline JobSpec sweep_spec(const std::string& workload,
                          std::vector<sweep::SweepTask> tasks,
                          std::uint32_t batch_cells = 0) {
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.workloads = {workload};
  spec.tasks = std::move(tasks);
  spec.batch_cells = batch_cells;
  return spec;
}

/// A kind=campaign JobSpec of `grid` over several workload references.
inline JobSpec campaign_spec(std::vector<std::string> workloads,
                             std::vector<sweep::SweepTask> grid,
                             std::uint32_t batch_cells = 0) {
  JobSpec spec;
  spec.kind = JobKind::kCampaign;
  spec.workloads = std::move(workloads);
  spec.tasks = std::move(grid);
  spec.batch_cells = batch_cells;
  return spec;
}

/// Strategy x k x budget grid valid for every test workload.
inline std::vector<sweep::SweepTask> test_grid() {
  std::uint64_t largest = 0;
  for (const auto& system : reference_systems()) {
    for (const auto b : system.default_trace()) {
      largest = std::max(largest, system.cfg().block(b).size_bytes());
    }
  }
  std::vector<sweep::SweepTask> tasks;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 4u}) {
      for (const bool tight : {false, true}) {
        sweep::SweepTask task;
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

inline void expect_identical(const sim::RunResult& x, const sim::RunResult& y) {
  testref::expect_same_result(x, y);
}

inline void expect_identical(const sweep::SweepOutcome& a,
                             const sweep::SweepOutcome& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.label, b.label);
  expect_identical(a.result, b.result);
}

inline void expect_identical(const std::vector<sweep::SweepOutcome>& want,
                             const std::vector<sweep::SweepOutcome>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_identical(want[i], got[i]);
  }
}

inline void expect_identical(const std::vector<sweep::CampaignResult>& want,
                             const std::vector<sweep::CampaignResult>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w].workload, want[w].workload);
    expect_identical(want[w].outcomes, got[w].outcomes);
  }
}

/// ServiceOptions carrying just a pool width.
inline serving::ServiceOptions pool_options(unsigned workers) {
  serving::ServiceOptions options;
  options.workers = workers;
  return options;
}

/// A Service with every test workload registered; ids in kind order.
/// The ServiceOptions overload is for tests that configure more than
/// the pool width (cache budgets, fault plans).
struct Fixture {
  explicit Fixture(unsigned workers) : Fixture(pool_options(workers)) {}
  explicit Fixture(ServiceOptions options) : service(std::move(options)) {
    for (const auto kind : kinds_under_test()) {
      ids.push_back(service.register_workload(workloads::make_workload(kind)));
    }
  }
  Service service;
  std::vector<WorkloadId> ids;
};

}  // namespace apcc::serving::testsupport
