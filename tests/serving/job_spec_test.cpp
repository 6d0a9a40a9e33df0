// JobSpec front-door differentials: submit(JobSpec) must produce
// results byte-identical to the direct per-cell reference (every cell
// run alone on a width-1 BatchEngine) for all three kinds -- and the
// QoS fields (priority class, worker budget, client tag) must change
// *when* cells run, never what any job returns: mixed-priority /
// budgeted submissions are pinned byte-identical to plain FIFO at
// workers 1/2/4. (On the 1-vCPU CI box the parallel interleavings are
// limited; the determinism claim is exactly what these differentials
// verify. The TSan CI job runs this binary.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hpp"
#include "serving/service.hpp"
#include "support/assert.hpp"
#include "workloads/suite.hpp"

#include "test_support.hpp"

namespace apcc::serving {
namespace {

using namespace testsupport;

TEST(JobSpec, RunMatchesDirect) {
  const sim::RunResult direct = reference_systems()[0].run();
  for (const unsigned workers : {1u, 2u, 4u}) {
    Fixture fx(workers);
    SCOPED_TRACE(std::to_string(workers) + " workers");
    // By id reference...
    const auto id_handle = fx.service.submit(run_spec(ref(fx.ids[0])));
    const JobResult& by_id = id_handle.wait();
    EXPECT_EQ(by_id.kind, JobKind::kRun);
    expect_identical(by_id.run, direct);
    // A run job is an internal 1x1 grid: its one outcome fills .run only.
    EXPECT_TRUE(by_id.sweep.empty());
    EXPECT_TRUE(by_id.campaign.empty());
    // ...and by registered name.
    const auto name_handle = fx.service.submit(run_spec("crc-like"));
    expect_identical(name_handle.wait().run, direct);
  }
}

TEST(JobSpec, SweepMatchesDirect) {
  const auto grid = test_grid();
  const auto direct = direct_sweep(0, grid);
  for (const unsigned workers : {1u, 2u, 4u}) {
    Fixture fx(workers);
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const auto handle = fx.service.submit(sweep_spec("crc-like", grid));
    const JobResult& result = handle.wait();
    EXPECT_EQ(result.kind, JobKind::kSweep);
    expect_identical(direct, result.sweep);
  }
}

TEST(JobSpec, CampaignMatchesDirect) {
  const auto grid = test_grid();
  const auto direct = direct_campaign(grid);
  for (const unsigned workers : {1u, 2u, 4u}) {
    Fixture fx(workers);
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const auto handle = fx.service.submit(campaign_spec(refs(fx.ids), grid));
    const JobResult& result = handle.wait();
    EXPECT_EQ(result.kind, JobKind::kCampaign);
    expect_identical(direct, result.campaign);
  }
}

TEST(JobSpec, BatchedJobsMatchSequential) {
  // batch-cells is a scheduling knob only: a sweep or campaign run in
  // lockstep batches must be byte-identical to the per-cell reference.
  // The grid has 12 cells: 3 divides it, 5 chunks each workload as
  // 5 + 5 + 2 (a narrow tail chunk), and 16 is wider than it.
  const auto grid = test_grid();
  const auto direct_crc = direct_sweep(0, grid);
  const auto direct = direct_campaign(grid);

  for (const unsigned workers : {1u, 2u, 4u}) {
    Fixture fx(workers);
    for (const std::uint32_t batch : {3u, 5u, 16u}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, batch " +
                   std::to_string(batch));
      expect_identical(
          direct_crc,
          fx.service.submit(sweep_spec("crc-like", grid, batch)).wait().sweep);
      expect_identical(
          direct, fx.service
                      .submit(campaign_spec({"crc-like", "adpcm-like"}, grid,
                                            batch))
                      .wait()
                      .campaign);
    }
  }
}

TEST(JobSpec, MixedPriorityAndBudgetByteIdenticalToFifo) {
  // The acceptance differential: the same four jobs -- a high-priority
  // budgeted run, a batch-class budgeted sweep, a normal campaign, and
  // a batch run -- submitted together under QoS and again as plain
  // FIFO (all defaults), at workers 1/2/4. Scheduling order differs;
  // every result must be byte-identical.
  const auto grid = test_grid();
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    Fixture qos(workers);
    Fixture fifo(workers);

    auto j1 = run_spec("crc-like");
    j1.priority = sweep::Priority::kHigh;
    j1.max_workers = 1;
    j1.client = "latency-tier";
    auto j2 = sweep_spec("crc-like", grid);
    j2.priority = sweep::Priority::kBatch;
    j2.max_workers = 2;
    j2.client = "nightly";
    auto j3 = campaign_spec({"crc-like", "adpcm-like"}, grid);
    auto j4 = run_spec("adpcm-like");
    j4.priority = sweep::Priority::kBatch;

    // Submit everything before waiting on anything, both services.
    const auto q1 = qos.service.submit(j1);
    const auto q2 = qos.service.submit(j2);
    const auto q3 = qos.service.submit(j3);
    const auto q4 = qos.service.submit(j4);
    const auto f1 = fifo.service.submit(run_spec("crc-like"));
    const auto f2 = fifo.service.submit(sweep_spec("crc-like", grid));
    const auto f3 =
        fifo.service.submit(campaign_spec({"crc-like", "adpcm-like"}, grid));
    const auto f4 = fifo.service.submit(run_spec("adpcm-like"));

    expect_identical(q1.wait().run, f1.wait().run);
    const auto& qs = q2.wait().sweep;
    const auto& fs = f2.wait().sweep;
    ASSERT_EQ(qs.size(), fs.size());
    for (std::size_t i = 0; i < fs.size(); ++i) {
      expect_identical(fs[i], qs[i]);
    }
    const auto& qc = q3.wait().campaign;
    const auto& fc = f3.wait().campaign;
    ASSERT_EQ(qc.size(), fc.size());
    for (std::size_t w = 0; w < fc.size(); ++w) {
      EXPECT_EQ(qc[w].workload, fc[w].workload);
      ASSERT_EQ(qc[w].outcomes.size(), fc[w].outcomes.size());
      for (std::size_t i = 0; i < fc[w].outcomes.size(); ++i) {
        expect_identical(fc[w].outcomes[i], qc[w].outcomes[i]);
      }
    }
    expect_identical(q4.wait().run, f4.wait().run);
    // And FIFO itself is the direct reference.
    expect_identical(f1.wait().run, reference_systems()[0].run());
  }
}

TEST(JobSpec, FairShareWithWeightsByteIdenticalToFifo) {
  // The fair-share acceptance differential: an identical multi-tenant
  // submission -- three client tags, server-side weights, mixed
  // priorities -- once tagged, under weighted fair share, and once with
  // every client tag cleared, where the jobs share one account and so
  // run in the strict lowest-id order, at workers 1/2/4. The scheduler
  // moves items *between tenants*; every result must be byte-identical
  // (fair share changes when cells run, never what any job returns).
  const auto grid = test_grid();
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ServiceOptions options;
    options.workers = workers;
    options.client_weights = {{"latency-tier", 4}, {"nightly", 1}};
    Fixture fair(options);
    Fixture fifo(options);

    auto j1 = run_spec("crc-like");
    j1.priority = sweep::Priority::kHigh;
    j1.client = "latency-tier";
    auto j2 = sweep_spec("crc-like", grid);
    j2.client = "nightly";
    auto j3 = campaign_spec({"crc-like", "adpcm-like"}, grid);
    j3.client = "analytics";  // no configured weight: defaults to 1
    auto j4 = sweep_spec("adpcm-like", grid);
    j4.client = "latency-tier";
    j4.priority = sweep::Priority::kBatch;

    // Submit everything before waiting on anything, both services.
    std::vector<JobHandle<JobResult>> fair_handles;
    std::vector<JobHandle<JobResult>> fifo_handles;
    for (const auto* job : {&j1, &j2, &j3, &j4}) {
      fair_handles.push_back(fair.service.submit(*job));
      JobSpec untagged = *job;
      untagged.client.clear();  // one shared account: lowest id wins
      fifo_handles.push_back(fifo.service.submit(std::move(untagged)));
    }

    expect_identical(fair_handles[0].wait().run, fifo_handles[0].wait().run);
    for (const std::size_t sweep_job : {std::size_t{1}, std::size_t{3}}) {
      const auto& fs = fair_handles[sweep_job].wait().sweep;
      const auto& rs = fifo_handles[sweep_job].wait().sweep;
      ASSERT_EQ(fs.size(), rs.size());
      for (std::size_t i = 0; i < rs.size(); ++i) {
        expect_identical(rs[i], fs[i]);
      }
    }
    const auto& fc = fair_handles[2].wait().campaign;
    const auto& rc = fifo_handles[2].wait().campaign;
    ASSERT_EQ(fc.size(), rc.size());
    for (std::size_t w = 0; w < rc.size(); ++w) {
      EXPECT_EQ(fc[w].workload, rc[w].workload);
      ASSERT_EQ(fc[w].outcomes.size(), rc[w].outcomes.size());
      for (std::size_t i = 0; i < rc[w].outcomes.size(); ++i) {
        expect_identical(rc[w].outcomes[i], fc[w].outcomes[i]);
      }
    }
    // And the FIFO reference is itself the direct sequential result.
    expect_identical(fifo_handles[0].wait().run, reference_systems()[0].run());
  }
}

TEST(JobSpec, ValidateRejectsMalformedSpecs) {
  Fixture fx(1);
  {
    JobSpec two_workloads = run_spec("crc-like");
    two_workloads.workloads.push_back("adpcm-like");
    EXPECT_THROW({ (void)fx.service.submit(two_workloads); },
                 apcc::CheckError);
  }
  {
    JobSpec run_with_grid = run_spec("crc-like");
    run_with_grid.tasks = test_grid();
    EXPECT_THROW({ (void)fx.service.submit(run_with_grid); },
                 apcc::CheckError);
  }
  {
    JobSpec no_workload;
    no_workload.kind = JobKind::kSweep;
    EXPECT_THROW({ (void)fx.service.submit(no_workload); },
                 apcc::CheckError);
  }
  EXPECT_THROW({ (void)fx.service.submit(run_spec("no-such-workload")); },
               apcc::CheckError);
  EXPECT_THROW({ (void)fx.service.submit(run_spec("@99")); },
               apcc::CheckError);
  EXPECT_THROW({ (void)fx.service.submit(run_spec("@banana")); },
               apcc::CheckError);
  {
    JobSpec bad_kind = run_spec("crc-like");
    bad_kind.kind = static_cast<JobKind>(250);
    EXPECT_THROW({ (void)fx.service.submit(std::move(bad_kind)); },
                 apcc::CheckError);
  }
  {
    // A run job has exactly one cell; a lockstep batch width has
    // nothing to apply to and is rejected, not silently ignored.
    JobSpec batched_run = run_spec("crc-like");
    batched_run.batch_cells = 4;
    EXPECT_THROW({ (void)fx.service.submit(std::move(batched_run)); },
                 apcc::CheckError);
  }
}

/// The CheckError message submitting `spec` throws, or "" if it is
/// accepted.
std::string submit_error(Service& service, JobSpec spec) {
  try {
    (void)service.submit(std::move(spec));
  } catch (const apcc::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(JobSpec, EngineKnobsOutOfRangeAreRejectedAtSubmit) {
  // An in-process spec meets the rule a wire record does: the knob is
  // refused at submit, by its wire key, before any cell runs.
  Fixture fx(1);
  JobSpec no_units = run_spec("crc-like");
  no_units.config.policy.decompress_units = 0;
  EXPECT_NE(submit_error(fx.service, no_units).find("units out of range"),
            std::string::npos);
  JobSpec deep_kd = run_spec("crc-like");
  deep_kd.config.policy.predecompress_k = 65;
  EXPECT_NE(submit_error(fx.service, deep_kd)
                .find("kd out of range: 65 (expected at most 64)"),
            std::string::npos);
  JobSpec slow_task = sweep_spec("crc-like", test_grid());
  slow_task.tasks[1].config.costs.cycles_per_instruction = -1;
  const std::string message = submit_error(fx.service, slow_task);
  EXPECT_NE(message.find("task '" + slow_task.tasks[1].label +
                         "': cpi out of range"),
            std::string::npos)
      << message;

  // A job with every knob at its bound runs, kd's under the profile
  // predictor that pays for it.
  core::SystemConfig edge;
  edge.policy.compress_k = 1;
  edge.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
  edge.policy.predecompress_k = 64;
  edge.policy.decompress_units = 64;
  edge.costs.cycles_per_instruction = 65536;
  edge.costs.exception_cycles = 4294967295;
  edge.costs.patch_branch_cycles = 4294967295;
  edge.costs.unpatch_branch_cycles = 4294967295;
  edge.costs.delete_block_cycles = 4294967295;
  edge.costs.alloc_block_cycles = 4294967295;
  edge.costs.dispatch_job_cycles = 4294967295;
  const auto edge_job = fx.service.submit(run_spec("crc-like", edge));
  const JobResult& result = edge_job.wait();
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_GT(result.run.total_cycles, result.run.baseline_cycles);
}

TEST(JobSpec, DeadlineIsBoundedAtTwoToTheFortyMs) {
  // Beyond 2^40 ms, submit time plus the deadline would overflow
  // steady_clock's nanoseconds (or, past 2^63, wrap negative and expire
  // at once). The bound itself is a deadline far in the future.
  constexpr std::uint64_t kBound = std::uint64_t{1} << 40;
  Fixture fx(1);
  for (const std::uint64_t deadline :
       {kBound + 1, std::uint64_t{10'000'000'000'000},
        std::uint64_t{18446744073709551615u}}) {
    JobSpec spec = run_spec("crc-like");
    spec.deadline_ms = deadline;
    EXPECT_NE(submit_error(fx.service, spec).find("deadline-ms out of range"),
              std::string::npos)
        << deadline;
  }
  JobSpec at_bound = run_spec("crc-like");
  at_bound.deadline_ms = kBound;
  const auto at_bound_job = fx.service.submit(at_bound);
  const JobResult& result = at_bound_job.wait();
  EXPECT_EQ(result.status, JobStatus::kOk) << result.error;

  // The service's default deadline is held to the same bound.
  ServiceOptions options;
  options.workers = 1;
  options.limits.default_deadline_ms = kBound + 1;
  EXPECT_THROW(Service{options}, apcc::CheckError);
  options.limits.default_deadline_ms = kBound;
  Service service(options);
  const auto id = service.register_workload(
      workloads::make_workload(workloads::WorkloadKind::kCrcLike));
  EXPECT_TRUE(service.submit(run_spec(ref(id))).wait().ok());
}

TEST(JobSpec, ResolveMapsIdsAndNames) {
  Fixture fx(1);
  EXPECT_EQ(fx.service.resolve("@0"), 0u);
  EXPECT_EQ(fx.service.resolve("crc-like"), fx.ids[0]);
  EXPECT_EQ(fx.service.resolve("adpcm-like"), fx.ids[1]);
  EXPECT_THROW({ (void)fx.service.resolve("gsm-like"); }, apcc::CheckError);
}

TEST(JobSpec, UnifiedHandleSharesStateWithCopies) {
  Fixture fx(1);
  const auto handle = fx.service.submit(run_spec("crc-like"));
  const auto copy = handle;
  EXPECT_EQ(handle.id(), copy.id());
  expect_identical(handle.wait().run, copy.wait().run);
  EXPECT_TRUE(copy.ready());
  EXPECT_FALSE(JobHandle<JobResult>{}.valid());
}

}  // namespace
}  // namespace apcc::serving
