// Service demo: the persistent job-submission API end to end.
//
//   $ ./example_service_demo
//
// Walks the serving lifecycle the one-shot quickstart skips: register a
// workload set once, submit a mixed bag of jobs (single runs, a policy
// grid, a suite campaign) that are all in flight on the Service's
// shared pool at once, then wait on the future-style handles and show
// what the artifact cache saved (each compressed image and each
// (workload, k) frontier geometry built exactly once, borrowed by every
// later cell).
#include <iostream>

#include "serving/service.hpp"
#include "support/strings.hpp"

int main() {
  using namespace apcc;

  // 1. One resident Service. Two pool workers: on a multicore host the
  //    jobs below genuinely overlap; on one vCPU the scheduling is
  //    still interleaved, and every outcome is byte-identical to the
  //    direct one-shot calls either way.
  serving::ServiceOptions options;
  options.workers = 2;
  serving::Service service(options);

  // 2. Register the workload set once. Registration is cheap -- no
  //    compression, no geometry -- artifacts are built lazily by the
  //    first job that needs them.
  const auto gsm = service.register_workload(
      workloads::make_workload(workloads::WorkloadKind::kGsmLike));
  const auto crc = service.register_workload(
      workloads::make_workload(workloads::WorkloadKind::kCrcLike));

  // 3. Submit everything before waiting on anything: a single run, the
  //    same run under LZSS (a second image artifact), a 6-point policy
  //    grid, and a two-workload campaign. Four jobs in flight on one
  //    pool. Every job is a JobSpec; "@<id>" names a registered
  //    workload.
  const auto ref = [](serving::WorkloadId id) {
    return "@" + std::to_string(id);
  };
  serving::JobSpec run;
  run.kind = serving::JobKind::kRun;
  run.workloads = {ref(gsm)};
  serving::JobSpec run_lzss = run;
  run_lzss.config.codec = compress::CodecKind::kLzss;

  std::vector<sweep::SweepTask> grid;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 2u, 4u}) {
      sweep::SweepTask task;
      task.label = std::string(runtime::strategy_name(strategy)) +
                   "/k=" + std::to_string(k);
      task.config.policy.strategy = strategy;
      task.config.policy.compress_k = k;
      task.config.policy.predecompress_k = k;
      grid.push_back(std::move(task));
    }
  }

  serving::JobSpec sweep;
  sweep.kind = serving::JobKind::kSweep;
  sweep.workloads = {ref(gsm)};
  sweep.tasks = grid;
  serving::JobSpec campaign;
  campaign.kind = serving::JobKind::kCampaign;
  campaign.workloads = {ref(gsm), ref(crc)};
  campaign.tasks = grid;

  const auto run_handle = service.submit(run);
  const auto lzss_handle = service.submit(run_lzss);
  const auto sweep_handle = service.submit(sweep);
  const auto campaign_handle = service.submit(campaign);

  // 4. Handles are futures: wait() blocks until the job retires and
  //    returns a reference to its JobResult; the job's kind names the
  //    member holding the outcome (.run, .sweep, or .campaign).
  std::cout << "single run (huffman-shared): slowdown "
            << run_handle.wait().run.slowdown() << "\n"
            << "single run (lzss):           slowdown "
            << lzss_handle.wait().run.slowdown() << "\n\n";

  std::cout << "sweep over " << service.workload(gsm).name << ":\n";
  for (const auto& outcome : sweep_handle.wait().sweep) {
    std::cout << "  " << outcome.label << ": slowdown "
              << outcome.result.slowdown() << "\n";
  }

  std::cout << "\ncampaign:\n";
  for (const auto& result : campaign_handle.wait().campaign) {
    std::cout << "  " << result.workload << ": " << result.outcomes.size()
              << " grid points, best slowdown ";
    double best = result.outcomes.front().result.slowdown();
    for (const auto& outcome : result.outcomes) {
      best = std::min(best, outcome.result.slowdown());
    }
    std::cout << best << "\n";
  }

  // 5. What the cache did: every later job borrowed instead of
  //    rebuilding. A one-shot API would have built an image and a
  //    geometry cache per engine.
  const auto stats = service.cache_stats();
  std::cout << "\nartifact cache: " << stats.images.built
            << " images built, " << stats.images.borrows << " borrowed; "
            << stats.frontiers.built << " frontier caches built, "
            << stats.frontiers.borrows << " borrowed\n";
  return 0;
}
