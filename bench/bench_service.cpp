// Service throughput: cold vs warm artifact cache on the persistent
// job-submission API.
//
// The one-shot entry points rebuild the compressed BlockImage (codec
// training + per-block compression) and frontier geometry on every
// call. serving::Service builds them once per (workload, codec) /
// (workload, k) key on its pool and serves every later job from the
// cache, so the steady-state cost of a submit is just the engine run.
// This bench measures exactly that delta: the direct one-shot path,
// a cold Service submit (first touch, artifacts built), and a warm
// Service submit (every artifact borrowed) -- the google-benchmark
// registrations emit the stable series for BENCH_service.json.
//
// Caveat (docs/PERFORMANCE.md): 1-vCPU CI box -- the pool cannot show
// parallel speedup; the cold/warm delta (cached codec training +
// compression + geometry) is visible even single-threaded, and the
// differential tests pin warm == cold == direct byte-identically.
#include <chrono>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "serving/service.hpp"
#include "serving/wire.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace apcc;

constexpr auto kKind = workloads::WorkloadKind::kGsmLike;

/// ServiceOptions pinned to one resident worker (this box's vCPU).
serving::ServiceOptions one_worker() {
  serving::ServiceOptions options;
  options.workers = 1;
  return options;
}

/// A kind=run job over registered workload `id`, default config.
serving::JobSpec run_spec(serving::WorkloadId id) {
  serving::JobSpec spec;
  spec.kind = serving::JobKind::kRun;
  spec.workloads = {"@" + std::to_string(id)};
  return spec;
}

/// A kind=sweep job of `tasks` over registered workload `id`.
serving::JobSpec sweep_spec(serving::WorkloadId id,
                            std::vector<sweep::SweepTask> tasks,
                            std::uint32_t batch_cells = 0) {
  serving::JobSpec spec;
  spec.kind = serving::JobKind::kSweep;
  spec.workloads = {"@" + std::to_string(id)};
  spec.tasks = std::move(tasks);
  spec.batch_cells = batch_cells;
  return spec;
}

/// FNV digest over the counters every mode must agree on.
std::uint64_t result_checksum(const sim::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(r.total_cycles);
  mix(r.exceptions);
  mix(r.predecompressions);
  mix(r.evictions);
  mix(r.peak_occupancy_bytes);
  return h;
}

void print_tables() {
  bench::print_header(
      "Service submit latency",
      "persistent Service vs one-shot CodeCompressionSystem;\n"
      "cold submit builds artifacts, warm submit borrows them");
  const auto& workload = bench::cached_workload(kKind);
  const int reps = bench::quick_mode() ? 5 : 20;

  TextTable table;
  table.row()
      .cell("mode")
      .cell("requests")
      .cell("total ms")
      .cell("ms/request")
      .cell("checksum");
  auto add_row = [&](const char* mode, int requests, double ms,
                     std::uint64_t checksum) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(checksum));
    table.row()
        .cell(mode)
        .cell(std::uint64_t{static_cast<std::uint64_t>(requests)})
        .cell(ms, 2)
        .cell(ms / requests, 3)
        .cell(digest);
  };

  {
    // The one-shot shape: every request rebuilds image + geometry.
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t checksum = 0;
    for (int i = 0; i < reps; ++i) {
      const auto system =
          core::CodeCompressionSystem::from_workload(workload, {});
      checksum = result_checksum(system.run());
    }
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    add_row("direct one-shot", reps, elapsed.count(), checksum);
  }
  {
    // Cold: a fresh Service per request -- registration plus the first
    // submit, which builds image and geometry on the pool.
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t checksum = 0;
    for (int i = 0; i < reps; ++i) {
      serving::Service service(one_worker());
      const auto id = service.register_workload(workload);
      checksum = result_checksum(service.submit(run_spec(id)).wait().run);
    }
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    add_row("service cold", reps, elapsed.count(), checksum);
  }
  {
    // Warm: one persistent Service, every request borrows the cache.
    serving::Service service(one_worker());
    const auto id = service.register_workload(workload);
    (void)service.submit(run_spec(id)).wait();  // prime
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t checksum = 0;
    for (int i = 0; i < reps; ++i) {
      checksum = result_checksum(service.submit(run_spec(id)).wait().run);
    }
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    add_row("service warm", reps, elapsed.count(), checksum);
    const auto stats = service.cache_stats();
    std::cout << table.render() << '\n';
    std::cout << serving::format_cache_stats(stats)
              << "(resident entries x bytes is the working set the\n"
                 "cache-budget eviction policy acts on -- see\n"
                 "bm_service_thrash for throughput under budget pressure)\n"
              << "Shape check: one checksum everywhere (cached artifacts\n"
                 "change nothing), and the warm cache serves every repeat\n"
                 "request from 1 image + 1 frontier build. On this box the\n"
                 "per-request wall numbers are scheduling-noise-grade (a\n"
                 "submit pays two context switches on one vCPU); the\n"
                 "steady-state bm_service_* series below is the signal.\n\n";
  }
}

void bm_direct_run(benchmark::State& state) {
  const auto& workload = bench::cached_workload(kKind);
  for (auto _ : state) {
    const auto system =
        core::CodeCompressionSystem::from_workload(workload, {});
    benchmark::DoNotOptimize(system.run());
  }
  state.SetLabel("one-shot from_workload + run");
}
BENCHMARK(bm_direct_run)->Unit(benchmark::kMillisecond);

void bm_service_cold_run(benchmark::State& state) {
  const auto& workload = bench::cached_workload(kKind);
  for (auto _ : state) {
    serving::Service service(one_worker());
    const auto id = service.register_workload(workload);
    benchmark::DoNotOptimize(service.submit(run_spec(id)).wait().run);
  }
  state.SetLabel("fresh Service per submit");
}
BENCHMARK(bm_service_cold_run)->Unit(benchmark::kMillisecond);

void bm_service_warm_run(benchmark::State& state) {
  const auto& workload = bench::cached_workload(kKind);
  serving::Service service(one_worker());
  const auto id = service.register_workload(workload);
  (void)service.submit(run_spec(id)).wait();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.submit(run_spec(id)).wait().run);
  }
  state.SetLabel("persistent Service, cached artifacts");
}
BENCHMARK(bm_service_warm_run)->Unit(benchmark::kMillisecond);

/// The 6-task strategy x k{1,4} grid the warm-path benches submit: two
/// frontier keys per job, so the resident working set is 1 image + 2
/// geometries.
std::vector<sweep::SweepTask> six_task_grid() {
  std::vector<sweep::SweepTask> tasks;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 4u}) {
      sweep::SweepTask task;
      task.label = std::to_string(k);
      task.config.policy.strategy = strategy;
      task.config.policy.compress_k = k;
      task.config.policy.predecompress_k = k;
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

void bm_service_warm_sweep(benchmark::State& state) {
  // A 6-task grid per submit: the per-job scheduling + sink overhead on
  // top of the cached-artifact engine runs.
  const auto& workload = bench::cached_workload(kKind);
  serving::Service service(one_worker());
  const auto id = service.register_workload(workload);
  // range(0) is the lockstep batch width (0 = width 1, one cell per
  // work item), so BENCH_service.json records which batch mode each
  // series ran under -- the label spells it out for consumers.
  const serving::JobSpec job = sweep_spec(
      id, six_task_grid(), static_cast<std::uint32_t>(state.range(0)));
  (void)service.submit(job).wait();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    cells += service.submit(job).wait().sweep.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetLabel(std::string("6-task grid, cached artifacts, ") +
                 (state.range(0) == 0
                      ? "width-1"
                      : "batch-" + std::to_string(state.range(0))));
}
BENCHMARK(bm_service_warm_sweep)
    ->Arg(0)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

/// The unbounded resident footprint (images + geometry) after one warm
/// 6-task grid job -- the 100% mark the thrash series scales against.
/// Computed once; google-benchmark re-enters each bench body many
/// times.
std::uint64_t warm_working_set_bytes() {
  static const std::uint64_t bytes = [] {
    serving::Service service(one_worker());
    const auto id =
        service.register_workload(bench::cached_workload(kKind));
    (void)service.submit(sweep_spec(id, six_task_grid())).wait();
    const auto stats = service.cache_stats();
    return stats.images.bytes + stats.frontiers.bytes;
  }();
  return bytes;
}

void bm_service_thrash(benchmark::State& state) {
  // Warm-sweep throughput under cache-budget pressure: the same 6-task
  // grid, with the artifact cache capped at range(0) percent of the
  // unbounded working set (0 = unbounded baseline). Outcomes are
  // byte-identical at any budget (tests/serving/eviction_test.cpp pins
  // it); what a tight budget costs is rebuild work, and this series
  // prices it. The eviction counters land in BENCH_service.json so CI
  // can assert the budget machinery actually ran.
  const auto& workload = bench::cached_workload(kKind);
  const std::int64_t pct = state.range(0);
  serving::ServiceOptions options = one_worker();
  options.cache_budget.total_bytes =
      pct == 0 ? 0 : warm_working_set_bytes() * static_cast<std::uint64_t>(pct) / 100;
  serving::Service service(options);
  const auto id = service.register_workload(workload);
  const serving::JobSpec job = sweep_spec(id, six_task_grid());
  (void)service.submit(job).wait();  // prime
  std::uint64_t cells = 0;
  for (auto _ : state) {
    cells += service.submit(job).wait().sweep.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  const auto stats = service.cache_stats();
  state.counters["evictions"] = static_cast<double>(
      stats.images.evictions + stats.frontiers.evictions);
  state.counters["evicted_bytes"] = static_cast<double>(
      stats.images.evicted_bytes + stats.frontiers.evicted_bytes);
  state.SetLabel(pct == 0
                     ? "6-task grid, unbounded cache (baseline)"
                     : "6-task grid, budget " + std::to_string(pct) +
                           "% of warm working set");
}
BENCHMARK(bm_service_thrash)
    ->Arg(0)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void bm_wire_roundtrip_sweep_result(benchmark::State& state) {
  // The serve front door's steady-state codec cost: one 12-outcome
  // sweep result record through serialize -> parse -> serialize.
  const auto& workload = bench::cached_workload(kKind);
  serving::Service service(one_worker());
  const auto id = service.register_workload(workload);
  serving::JobSpec spec;
  spec.kind = serving::JobKind::kSweep;
  spec.workloads = {"@" + std::to_string(id)};
  spec.tasks = serving::strategy_k_grid(core::engine_config({}));
  serving::wire::ResultRecord record;
  record.job = 1;
  record.client = "bench";
  record.result = service.submit(std::move(spec)).wait();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = serving::wire::serialize_result(record);
    const auto reparsed = serving::wire::parse_result(text);
    benchmark::DoNotOptimize(serving::wire::serialize_result(reparsed));
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetLabel("12-outcome sweep result record");
}
BENCHMARK(bm_wire_roundtrip_sweep_result)->Unit(benchmark::kMicrosecond);

}  // namespace

APCC_BENCH_MAIN(print_tables)
