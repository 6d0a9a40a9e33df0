// Grid tests: a sweep job on serving::Service -- the one parallel grid
// runner -- must be byte-identical to running each task alone (the
// independent per-cell reference in tests/common), regardless of pool
// width or batch width, and its sink/exception plumbing must behave.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/cell_reference.hpp"
#include "common/same_run.hpp"
#include "oracle/oracle.hpp"
#include "core/system.hpp"
#include "serving/service.hpp"
#include "support/assert.hpp"
#include "sweep/sweep.hpp"
#include "workloads/suite.hpp"

namespace apcc::sweep {
namespace {

const workloads::Workload& workload_under_test() {
  static const auto* workload = new workloads::Workload(
      workloads::make_workload(workloads::WorkloadKind::kGsmLike));
  return *workload;
}

const core::CodeCompressionSystem& system_under_test() {
  static const auto* system = new core::CodeCompressionSystem(
      core::CodeCompressionSystem::from_workload(workload_under_test()));
  return *system;
}

/// `tasks` as one sweep job on a fresh Service of `workers` pool
/// threads (cold artifact cache), cut into chunks of `batch_cells`.
/// wait() rethrows the job's first failure.
std::vector<SweepOutcome> service_sweep(const std::vector<SweepTask>& tasks,
                                        unsigned workers,
                                        std::uint32_t batch_cells = 0) {
  serving::ServiceOptions options;
  options.workers = workers;
  serving::Service service(options);
  const serving::WorkloadId id =
      service.register_workload(workload_under_test());
  serving::JobSpec spec;
  spec.kind = serving::JobKind::kSweep;
  spec.workloads = {"@" + std::to_string(id)};
  spec.tasks = tasks;
  spec.batch_cells = batch_cells;
  return service.submit(std::move(spec)).wait().sweep;
}

/// A mixed grid: every strategy, a k sweep, both budget modes, all
/// victim policies -- enough variety that a sharding bug (dropped task,
/// reordered results, crosstalk through shared state) shows up.
std::vector<SweepTask> mixed_grid() {
  const auto& system = system_under_test();
  std::uint64_t largest = 0;
  for (const auto b : system.default_trace()) {
    largest = std::max(largest, system.cfg().block(b).size_bytes());
  }
  std::vector<SweepTask> tasks;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 4u, 16u}) {
      for (const auto victim :
           {runtime::VictimPolicy::kLru, runtime::VictimPolicy::kMru}) {
        for (const bool tight : {false, true}) {
          SweepTask task;
          task.config = system.engine_config();
          task.config.policy.strategy = strategy;
          task.config.policy.compress_k = k;
          task.config.policy.predecompress_k = 2;
          task.config.policy.victim_policy = victim;
          if (tight) task.config.policy.memory_budget = largest * 3 + 32;
          task.label = std::string(runtime::strategy_name(strategy)) + "/k" +
                       std::to_string(k) +
                       runtime::victim_policy_name(victim) +
                       (tight ? "/tight" : "/unbounded");
          tasks.push_back(std::move(task));
        }
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

TEST(Sweep, ParallelIdenticalToSequential) {
  const auto tasks = mixed_grid();
  const auto expected = testref::per_cell_sweep(system_under_test(), tasks);
  ASSERT_EQ(expected.size(), tasks.size());

  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    const auto got = service_sweep(tasks, workers);
    ASSERT_EQ(got.size(), expected.size()) << workers << " workers";
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_identical(expected[i], got[i]);
    }
  }
}

TEST(Sweep, BatchedIdenticalToSequential) {
  // Lockstep batching is a scheduling-granularity knob, never a results
  // knob: every (batch width, worker count) combination must reproduce
  // the per-cell reference byte-for-byte. 36 tasks with batch 16 also
  // exercises the non-dividing tail chunk (16 + 16 + 4).
  const auto tasks = mixed_grid();
  const auto expected = testref::per_cell_sweep(system_under_test(), tasks);
  ASSERT_EQ(expected.size(), tasks.size());

  for (const std::uint32_t batch : {0u, 1u, 4u, 16u}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + " x " +
                   std::to_string(workers) + " workers");
      const auto got = service_sweep(tasks, workers, batch);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_identical(expected[i], got[i]);
      }
    }
  }
}

TEST(Sweep, BatchWiderThanGridIsOneChunk) {
  auto tasks = mixed_grid();
  tasks.resize(5);
  const auto expected = testref::per_cell_sweep(system_under_test(), tasks);
  const auto got = service_sweep(tasks, 4, 64);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_identical(expected[i], got[i]);
  }
}

TEST(Sweep, OutcomesComeBackInTaskOrder) {
  const auto tasks = mixed_grid();
  const auto outcomes = service_sweep(tasks, 4);
  ASSERT_EQ(outcomes.size(), tasks.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].index, i);
    EXPECT_EQ(outcomes[i].label, tasks[i].label);
  }
}

TEST(Sweep, EmptyGridIsEmpty) {
  EXPECT_TRUE(service_sweep({}, 1).empty());
}

TEST(Sweep, MoreWorkersThanTasks) {
  auto tasks = mixed_grid();
  tasks.resize(3);
  const auto outcomes = service_sweep(tasks, 16);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].index, i);
  }
}

TEST(Sweep, WorkerFailureRethrownOnCaller) {
  auto tasks = mixed_grid();
  ASSERT_GE(tasks.size(), 4u);
  // A budget smaller than any executed block: the engine's placement
  // loop finds no victim and no in-flight completion, and throws.
  tasks[2].config.policy.memory_budget = 1;
  for (const unsigned workers : {1u, 4u}) {
    EXPECT_THROW({ (void)service_sweep(tasks, workers); }, apcc::CheckError)
        << workers << " workers";
  }
}

TEST(Sweep, ReferenceAndMemoizedEnginesAgreeUnderSharding) {
  // A sweep job is also how the oracle differential scales out: the
  // sharded grid must match the naive oracle in tests/oracle task for
  // task.
  auto tasks = mixed_grid();
  tasks.resize(12);
  const auto& system = system_under_test();
  const auto got = service_sweep(tasks, 4);
  ASSERT_EQ(got.size(), tasks.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(tasks[i].label);
    EXPECT_EQ(got[i].index, i);
    EXPECT_EQ(got[i].label, tasks[i].label);
    testref::expect_same_result(
        oracle::run_oracle(system.cfg(), system.image(),
                           system.default_trace(), tasks[i].config)
            .result,
        got[i].result);
  }
}

TEST(ResultSinkTest, SortsByIndexAndDrains) {
  ResultSink sink;
  for (const std::size_t i : {3u, 0u, 2u, 1u}) {
    SweepOutcome o;
    o.index = i;
    o.label = "t" + std::to_string(i);
    sink.push(std::move(o));
  }
  EXPECT_EQ(sink.size(), 4u);
  const auto sorted = sink.take_sorted();
  ASSERT_EQ(sorted.size(), 4u);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].index, i);
    EXPECT_EQ(sorted[i].label, "t" + std::to_string(i));
  }
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.take_sorted().empty());
}

TEST(ResultSinkTest, ConcurrentOutOfOrderPushesDrainSorted) {
  // The Service pool pushes from many workers in whatever order tasks
  // finish; the sink must drain to task order regardless. Each
  // thread pushes its stripe of indexes *backwards* so the sink sees
  // heavy intra- and inter-thread disorder.
  constexpr std::size_t kPerThread = 64;
  constexpr unsigned kThreads = 4;
  ResultSink sink;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (std::size_t i = kPerThread; i-- > 0;) {
        SweepOutcome o;
        o.index = t * kPerThread + i;
        o.label = "t" + std::to_string(o.index);
        sink.push(std::move(o));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(sink.size(), std::size_t{kThreads} * kPerThread);
  const auto sorted = sink.take_sorted();
  ASSERT_EQ(sorted.size(), std::size_t{kThreads} * kPerThread);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].index, i);
    EXPECT_EQ(sorted[i].label, "t" + std::to_string(i));
  }
}

}  // namespace
}  // namespace apcc::sweep
