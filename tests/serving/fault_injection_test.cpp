// Deterministic robustness coverage, driven by serving::FaultPlan: the
// rollback / cancellation / rejection / deadline / drain machinery only
// fires on failures, so this binary injects them on a fixed, seeded
// schedule and pins the outcomes -- including that every non-ok result
// record is byte-identical at workers 1/2/4 (non-ok records carry fixed
// messages and no payload, so worker count cannot leak into them). The
// TSan CI job runs this binary; CancelStorm is the pool-under-fire
// stress it exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/fault_plan.hpp"
#include "serving/service.hpp"
#include "serving/wire.hpp"
#include "support/assert.hpp"
#include "workloads/suite.hpp"

#include "test_support.hpp"

namespace apcc::serving {
namespace {

using namespace testsupport;

/// A Service with chosen options and the crc-like workload registered.
struct FaultFixture {
  explicit FaultFixture(ServiceOptions options) : service(std::move(options)) {
    id = service.register_workload(
        workloads::make_workload(workloads::WorkloadKind::kCrcLike));
  }
  Service service;
  WorkloadId id = 0;
};

JobSpec run_spec(WorkloadId id) {
  JobSpec spec;
  spec.kind = JobKind::kRun;
  spec.workloads = {"@" + std::to_string(id)};
  return spec;
}

JobSpec sweep_spec(WorkloadId id) {
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.workloads = {"@" + std::to_string(id)};
  spec.tasks = test_grid();
  return spec;
}

/// Parks the first task boundary until release(); later boundaries pass
/// straight through. The deterministic way to hold a job "running"
/// while the test inspects queue depth, admission, or shutdown.
struct BoundaryGate {
  std::shared_ptr<const FaultPlan> plan() {
    auto p = std::make_shared<FaultPlan>();
    p->on_boundary = [this](std::size_t n) {
      if (n != 1) return;
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
  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool open_ = false;
};

TEST(FaultInjection, OverLimitSubmitIsRejectedNotStalled) {
  BoundaryGate gate;
  ServiceOptions options;
  options.workers = 1;
  options.limits.max_queued_jobs = 1;
  options.faults = gate.plan();
  FaultFixture fx(options);

  const auto busy = fx.service.submit(run_spec(fx.id));
  gate.await_parked();  // the one queue slot is provably occupied

  const auto rejected = fx.service.submit(run_spec(fx.id));
  EXPECT_TRUE(rejected.ready());  // resolved at admission, no pool trip
  const JobResult& result = rejected.wait();
  EXPECT_EQ(result.status, JobStatus::kRejected);
  EXPECT_EQ(result.error, "rejected: job limit reached (1 jobs in flight)");
  EXPECT_FALSE(rejected.cancel());  // nothing to cancel: never enqueued

  gate.release();
  EXPECT_TRUE(busy.wait().ok());  // the occupant was never disturbed

  // The freed slot admits again.
  EXPECT_TRUE(fx.service.submit(run_spec(fx.id)).wait().ok());
}

TEST(FaultInjection, PerClientLimitRejectsOnlyThatClient) {
  BoundaryGate gate;
  ServiceOptions options;
  options.workers = 1;
  options.limits.max_queued_per_client = 1;
  options.faults = gate.plan();
  FaultFixture fx(options);

  JobSpec greedy = run_spec(fx.id);
  greedy.client = "greedy";
  const auto busy = fx.service.submit(greedy);
  gate.await_parked();

  const auto rejected = fx.service.submit(greedy);
  EXPECT_EQ(rejected.wait().status, JobStatus::kRejected);
  EXPECT_EQ(rejected.wait().error,
            "rejected: client limit reached "
            "(1 jobs in flight for client 'greedy')");

  JobSpec other = run_spec(fx.id);
  other.client = "patient";
  const auto admitted = fx.service.submit(other);  // other tags unaffected
  gate.release();
  EXPECT_TRUE(admitted.wait().ok());
  EXPECT_TRUE(busy.wait().ok());
}

TEST(FaultInjection, InjectedTaskThrowFailsTheJobDeterministically) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    auto plan = std::make_shared<FaultPlan>();
    plan->seed = 42;
    plan->throw_in_task = 1;
    ServiceOptions options;
    options.workers = workers;
    options.faults = plan;
    FaultFixture fx(options);

    // kError rethrows on wait() -- the original exception, unwrapped.
    const auto handle = fx.service.submit(sweep_spec(fx.id));
    try {
      (void)handle.wait();
      FAIL() << "expected the injected failure to rethrow";
    } catch (const apcc::CheckError& e) {
      EXPECT_STREQ(e.what(),
                   "injected fault: task throw at boundary 1 (seed 42)");
    }

    // Failure is scoped to the job: the service keeps serving.
    EXPECT_TRUE(fx.service.submit(run_spec(fx.id)).wait().ok());
  }
}

TEST(FaultInjection, ImageBuildFaultRollsBackAndNextClaimRebuilds) {
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 7;
  plan->fail_image_build = 1;
  ServiceOptions options;
  options.workers = 2;
  options.faults = plan;
  FaultFixture fx(options);

  const auto poisoned = fx.service.submit(run_spec(fx.id));
  try {
    (void)poisoned.wait();
    FAIL() << "expected the injected build failure to rethrow";
  } catch (const apcc::CheckError& e) {
    EXPECT_STREQ(e.what(), "injected fault: image build 1 failed (seed 7)");
  }

  // The claim rolled back to idle, so the retry claims (and completes)
  // the same build -- and its result is byte-identical to the direct
  // path, proving the rollback left no partial state behind.
  const auto retried = fx.service.submit(run_spec(fx.id));
  expect_identical(retried.wait().run, reference_systems()[0].run());

  const auto stats = fx.service.cache_stats();
  EXPECT_EQ(stats.images.built, 1u);    // only the successful build
  EXPECT_EQ(stats.images.misses, 2u);   // both claims count as misses
  EXPECT_EQ(stats.images.rebuilds, 1u); // the retry re-opened a failure
}

TEST(FaultInjection, ExpiredDeadlineResolvesDeadlineExceeded) {
  auto plan = std::make_shared<FaultPlan>();
  plan->expire_deadlines = true;
  ServiceOptions options;
  options.workers = 2;
  options.faults = plan;
  FaultFixture fx(options);

  // Per-spec deadline.
  JobSpec spec = sweep_spec(fx.id);
  spec.deadline_ms = 5000;
  const auto handle = fx.service.submit(std::move(spec));
  const JobResult& expired = handle.wait();
  EXPECT_EQ(expired.status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(expired.error, "job deadline exceeded");
  EXPECT_TRUE(expired.sweep.empty());

  // A job with no deadline never reads the clock: unaffected.
  EXPECT_TRUE(fx.service.submit(run_spec(fx.id)).wait().ok());
}

TEST(FaultInjection, DefaultDeadlineAppliesWhenTheSpecCarriesNone) {
  auto plan = std::make_shared<FaultPlan>();
  plan->expire_deadlines = true;
  ServiceOptions options;
  options.workers = 1;
  options.limits.default_deadline_ms = 1000;
  options.faults = plan;
  FaultFixture fx(options);

  const auto handle = fx.service.submit(run_spec(fx.id));
  const JobResult& expired = handle.wait();
  EXPECT_EQ(expired.status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(expired.error, "job deadline exceeded");
}

TEST(FaultInjection, NonOkRecordsAreByteIdenticalAcrossWorkerCounts) {
  // The determinism contract for the robustness statuses: serialize
  // each non-ok outcome as the serve loop would and require the bytes
  // to agree at every worker count (fixed messages, no payload --
  // nothing execution-order-dependent can leak into the record).
  // Exactly the serve loop's mapping: structured non-ok statuses pass
  // through, a rethrown failure becomes a kError record with e.what().
  const auto record_for = [](const JobHandle<JobResult>& handle) {
    wire::ResultRecord record;
    record.job = 1;
    record.client = "tier-1";
    try {
      const JobResult& result = handle.wait();
      record.status = result.status;
      record.error = result.error;
    } catch (const std::exception& e) {
      record.status = JobStatus::kError;
      record.error = e.what();
    }
    return wire::serialize_result(record);
  };

  std::vector<std::string> cancelled_records;
  std::vector<std::string> failed_records;
  std::vector<std::string> expired_records;
  for (const unsigned workers : {1u, 2u, 4u}) {
    {
      auto plan = std::make_shared<FaultPlan>();
      plan->cancel_at_boundary = 1;
      ServiceOptions options;
      options.workers = workers;
      options.faults = plan;
      FaultFixture fx(options);
      const auto handle = fx.service.submit(sweep_spec(fx.id));
      const JobResult& result = handle.wait();
      EXPECT_EQ(result.status, JobStatus::kCancelled);
      EXPECT_TRUE(result.sweep.empty());
      cancelled_records.push_back(record_for(handle));
    }
    {
      auto plan = std::make_shared<FaultPlan>();
      plan->seed = 11;
      plan->throw_in_task = 1;
      ServiceOptions options;
      options.workers = workers;
      options.faults = plan;
      FaultFixture fx(options);
      failed_records.push_back(record_for(fx.service.submit(sweep_spec(fx.id))));
    }
    {
      auto plan = std::make_shared<FaultPlan>();
      plan->expire_deadlines = true;
      ServiceOptions options;
      options.workers = workers;
      options.faults = plan;
      FaultFixture fx(options);
      JobSpec spec = sweep_spec(fx.id);
      spec.deadline_ms = 100;
      expired_records.push_back(
          record_for(fx.service.submit(std::move(spec))));
    }
  }
  for (const auto* records :
       {&cancelled_records, &failed_records, &expired_records}) {
    ASSERT_EQ(records->size(), 3u);
    EXPECT_EQ((*records)[0], (*records)[1]);
    EXPECT_EQ((*records)[0], (*records)[2]);
  }
}

TEST(FaultInjection, InjectedThrowInsideABatchFailsJobButSiblingsFinish) {
  // The whole 12-task grid runs as ONE lockstep batch item. The throw
  // at boundary 2 must fail only that cell in place: every other cell
  // still reaches its own boundary (counted below) and runs to
  // completion, and the first failure is rethrown after the batch --
  // the same job-level kError the width-1 path produces, with a
  // byte-identical record at every worker count.
  std::vector<std::string> records;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    auto plan = std::make_shared<FaultPlan>();
    plan->seed = 42;
    plan->throw_in_task = 2;
    auto boundaries = std::make_shared<std::atomic<std::size_t>>(0);
    plan->on_boundary = [boundaries](std::size_t) {
      boundaries->fetch_add(1, std::memory_order_relaxed);
    };
    ServiceOptions options;
    options.workers = workers;
    options.faults = plan;
    FaultFixture fx(options);

    JobSpec spec = sweep_spec(fx.id);
    spec.batch_cells = static_cast<std::uint32_t>(spec.tasks.size());
    const std::size_t cells = spec.tasks.size();
    const auto handle = fx.service.submit(std::move(spec));
    try {
      (void)handle.wait();
      FAIL() << "expected the injected failure to rethrow";
    } catch (const apcc::CheckError& e) {
      EXPECT_STREQ(e.what(),
                   "injected fault: task throw at boundary 2 (seed 42)");
    }
    // Every sibling cell crossed its own boundary after cell 2 threw.
    EXPECT_EQ(boundaries->load(), cells);

    wire::ResultRecord record;
    record.job = 1;
    record.client = "tier-1";
    try {
      (void)handle.wait();
    } catch (const std::exception& e) {
      record.status = JobStatus::kError;
      record.error = e.what();
    }
    records.push_back(wire::serialize_result(record));

    // Failure is scoped to the job: the service keeps serving.
    EXPECT_TRUE(fx.service.submit(run_spec(fx.id)).wait().ok());
  }
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], records[1]);
  EXPECT_EQ(records[0], records[2]);
}

TEST(FaultInjection, CancelAtBoundaryInsideABatchResolvesCancelled) {
  // Self-cancel fired from a cell boundary in the middle of a batch:
  // cells admitted before it finish their lockstep run (cancellation is
  // only checked at batch boundaries), later cells retire quietly, and
  // the job resolves kCancelled with an empty payload -- byte-identical
  // records at every worker count, exactly like the per-engine path.
  std::vector<std::string> records;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    auto plan = std::make_shared<FaultPlan>();
    plan->cancel_at_boundary = 2;
    ServiceOptions options;
    options.workers = workers;
    options.faults = plan;
    FaultFixture fx(options);

    JobSpec spec = sweep_spec(fx.id);
    spec.batch_cells = 4;  // 12 tasks -> three 4-cell batch items
    const auto handle = fx.service.submit(std::move(spec));
    const JobResult& result = handle.wait();
    EXPECT_EQ(result.status, JobStatus::kCancelled);
    EXPECT_TRUE(result.sweep.empty());

    wire::ResultRecord record;
    record.job = 1;
    record.client = "tier-1";
    record.status = result.status;
    record.error = result.error;
    records.push_back(wire::serialize_result(record));

    EXPECT_TRUE(fx.service.submit(run_spec(fx.id)).wait().ok());
  }
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], records[1]);
  EXPECT_EQ(records[0], records[2]);
}

TEST(FaultInjection, HandleCancelResolvesQueuedJobImmediately) {
  BoundaryGate gate;
  ServiceOptions options;
  options.workers = 1;
  options.faults = gate.plan();
  FaultFixture fx(options);

  const auto busy = fx.service.submit(run_spec(fx.id));
  gate.await_parked();  // the lone worker is pinned: job 2 stays queued

  const auto queued = fx.service.submit(sweep_spec(fx.id));
  EXPECT_TRUE(queued.cancel());
  EXPECT_TRUE(queued.ready());  // resolved without a worker
  const JobResult& result = queued.wait();
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_EQ(result.error, "job cancelled");
  EXPECT_FALSE(queued.cancel());  // second cancel: nothing left

  gate.release();
  EXPECT_TRUE(busy.wait().ok());
  EXPECT_TRUE(fx.service.submit(run_spec(fx.id)).wait().ok());
}

TEST(FaultInjection, ShutdownDrainsInFlightAndCancelsQueued) {
  BoundaryGate gate;
  ServiceOptions options;
  options.workers = 1;
  options.faults = gate.plan();
  FaultFixture fx(options);

  const auto in_flight = fx.service.submit(run_spec(fx.id));
  gate.await_parked();
  const auto queued = fx.service.submit(run_spec(fx.id));

  std::thread closer([&] { fx.service.shutdown(); });
  // The still-queued job fails fast as cancelled -- while the in-flight
  // job is provably still parked on the gate.
  const JobResult& cancelled = queued.wait();
  EXPECT_EQ(cancelled.status, JobStatus::kCancelled);
  EXPECT_FALSE(in_flight.ready());

  gate.release();
  closer.join();
  EXPECT_TRUE(in_flight.wait().ok());  // drained, not dropped

  // Post-shutdown submissions resolve as rejected, never stall.
  const auto late = fx.service.submit(run_spec(fx.id));
  EXPECT_EQ(late.wait().status, JobStatus::kRejected);
  EXPECT_EQ(late.wait().error, "rejected: service is shutting down");
}

TEST(FaultInjection, ShutdownDrainDeadlineCancelsStragglers) {
  BoundaryGate gate;
  ServiceOptions options;
  options.workers = 1;
  options.faults = gate.plan();
  FaultFixture fx(options);

  // The parked item ignores the drain deadline until the gate opens;
  // shutdown must cancel it cooperatively and still resolve its handle.
  const auto stuck = fx.service.submit(sweep_spec(fx.id));
  gate.await_parked();

  // The parked item pins the job, so the 1ms drain deadline must
  // elapse and shutdown must fall back to cooperative cancellation --
  // observable through cancel_requested() *before* the gate opens, so
  // the released cell deterministically sees the cancel at its
  // boundary re-check and the job can never complete normally.
  std::thread closer(
      [&] { fx.service.shutdown(std::chrono::milliseconds(1)); });
  while (!stuck.cancel_requested()) std::this_thread::yield();
  gate.release();
  closer.join();
  const JobResult& result = stuck.wait();
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_TRUE(result.sweep.empty());
}

TEST(FaultInjection, CancelStormKeepsPoolServiceable) {
  // Satellite stress (TSan runs this binary): many queued + running
  // jobs cancelled mid-flight while new jobs are being submitted. The
  // pool must stay serviceable and every handle must resolve -- as ok
  // or as cancelled, nothing else, nothing stuck.
  ServiceOptions options;
  options.workers = 4;
  FaultFixture fx(options);

  std::vector<JobHandle<JobResult>> handles;
  for (int i = 0; i < 24; ++i) {
    handles.push_back(fx.service.submit(run_spec(fx.id)));
  }
  std::vector<JobHandle<JobResult>> extra;
  std::thread canceller([&] {
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      (void)handles[i].cancel();
    }
  });
  std::thread submitter([&] {
    for (int i = 0; i < 8; ++i) {
      extra.push_back(fx.service.submit(run_spec(fx.id)));
    }
  });
  canceller.join();
  submitter.join();

  const sim::RunResult direct = reference_systems()[0].run();
  const auto check = [&](const JobHandle<JobResult>& handle) {
    const JobResult& result = handle.wait();  // every handle resolves
    if (result.status == JobStatus::kCancelled) {
      EXPECT_EQ(result.error, "job cancelled");
    } else {
      ASSERT_EQ(result.status, JobStatus::kOk);
      expect_identical(result.run, direct);  // cancellation never
                                             // corrupts a completed run
    }
  };
  for (const auto& handle : handles) check(handle);
  for (const auto& handle : extra) check(handle);

  // Serviceable afterwards.
  expect_identical(fx.service.submit(run_spec(fx.id)).wait().run, direct);
}

}  // namespace
}  // namespace apcc::serving
