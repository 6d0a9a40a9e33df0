// Sweep scaling: sharded policy-grid throughput across worker counts.
//
// The fig3 / E10 grids are embarrassingly parallel -- every grid point
// is an independent engine cell over the same immutable BlockImage -- and
// a serving::Service sweep job shards them across the Service's resident
// pool. This bench builds a fig3-style grid (strategy x k x budget x
// fit, 72 points) on the gsm-like workload and reports, per pool width,
// the median and quartiles of the job's wall clock over repetitions and
// the speedup of the medians; the google-benchmark registrations below
// emit the stable series for BENCH_sweep.json. Parallel outcomes are
// byte-identical to the sequential grid (tests/sweep/sweep_test.cpp
// pins that); the table's checksum column makes a divergence visible
// here too.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "runtime/block_image.hpp"
#include "serving/service.hpp"
#include "sim/trace_gen.hpp"
#include "support/table.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace apcc;

const workloads::Workload& sweep_workload() {
  static const auto* workload = new workloads::Workload(
      workloads::make_workload(workloads::WorkloadKind::kGsmLike));
  return *workload;
}

const core::CodeCompressionSystem& sweep_system() {
  static const auto* system = new core::CodeCompressionSystem(
      core::CodeCompressionSystem::from_workload(sweep_workload()));
  return *system;
}

/// A resident Service of `workers` pool threads with the gsm-like
/// workload registered, warmed by one run of `tasks`: its image and
/// geometry are cached before anything is timed, so a timed run is the
/// grid's cells on the pool.
class WarmService {
 public:
  WarmService(unsigned workers, const std::vector<sweep::SweepTask>& tasks)
      : service_(options(workers)),
        workload_(service_.register_workload(sweep_workload())) {
    (void)run(tasks);
  }

  /// One sweep job of `tasks`; outcomes in task order.
  std::vector<sweep::SweepOutcome> run(
      const std::vector<sweep::SweepTask>& tasks) {
    serving::JobSpec spec;
    spec.kind = serving::JobKind::kSweep;
    spec.workloads = {"@" + std::to_string(workload_)};
    spec.tasks = tasks;
    return service_.submit(std::move(spec)).wait().sweep;
  }

 private:
  static serving::ServiceOptions options(unsigned workers) {
    serving::ServiceOptions options;
    options.workers = workers;
    return options;
  }

  serving::Service service_;
  serving::WorkloadId workload_;
};

/// The grid on the calling thread: each sweep::chunk_cells chunk of
/// `batch` cells stepped by one BatchEngine, which builds its own
/// setup -- geometry included -- as every one-thread run does. That
/// per-chunk setup is what the batch width amortizes, and what a warm
/// Service would cache away.
std::vector<sweep::SweepOutcome> run_chunks(
    const cfg::Cfg& cfg, const runtime::BlockImage& image,
    const cfg::BlockTrace& trace, const std::vector<sweep::SweepTask>& tasks,
    std::uint32_t batch) {
  sweep::ResultSink sink;
  for (const sweep::CellChunk& chunk :
       sweep::chunk_cells(1, tasks.size(), batch)) {
    std::vector<std::size_t> cells;
    std::vector<sim::EngineConfig> configs;
    for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
      cells.push_back(t);
      configs.push_back(tasks[t].config);
    }
    sweep::run_chunk(cfg, image, trace, tasks, cells, std::move(configs),
                     sink);
  }
  return sink.take_sorted();
}

/// The fig3-style grid: every decompression strategy x a k sweep x
/// {unbounded, tight} budget x {first, best} fit.
std::vector<sweep::SweepTask> make_grid() {
  const auto& system = sweep_system();
  std::uint64_t largest = 0;
  for (const auto b : system.default_trace()) {
    largest = std::max(largest, system.cfg().block(b).size_bytes());
  }
  std::vector<sweep::SweepTask> tasks;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
      for (const bool tight_budget : {false, true}) {
        for (const auto fit :
             {memory::FitPolicy::kFirstFit, memory::FitPolicy::kBestFit}) {
          sweep::SweepTask task;
          task.config = sweep_system().engine_config();
          task.config.policy.strategy = strategy;
          task.config.policy.compress_k = k;
          task.config.policy.predecompress_k = k;
          task.config.fit = fit;
          if (tight_budget) {
            task.config.policy.memory_budget = largest * 3 + 32;
          }
          task.label = std::string(runtime::strategy_name(strategy)) +
                       "/k=" + std::to_string(k) +
                       (tight_budget ? "/tight" : "/unbounded") +
                       (fit == memory::FitPolicy::kBestFit ? "/best-fit"
                                                           : "/first-fit");
          tasks.push_back(std::move(task));
        }
      }
    }
  }
  return tasks;
}

/// Order-sensitive digest of the grid outcomes: any divergence between
/// worker counts (ordering, dropped task, differing counters) changes it.
std::uint64_t grid_checksum(const std::vector<sweep::SweepOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& o : outcomes) {
    mix(o.index);
    mix(o.result.total_cycles);
    mix(o.result.exceptions);
    mix(o.result.predecompressions);
    mix(o.result.evictions);
    mix(o.result.peak_occupancy_bytes);
  }
  return h;
}

/// The p-quantile of `sorted` by nearest rank (p in [0, 1]).
double quantile(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[rank];
}

void print_tables() {
  bench::print_header(
      "Sweep scaling",
      "sharded policy-grid sweep (fig3-style grid, gsm-like workload)\n"
      "wall clock of a warm Service sweep job per pool width, over\n"
      "repetitions: median and quartiles, speedup of the medians");
  const auto tasks = make_grid();
  const std::size_t repetitions = bench::quick_mode() ? 5 : 21;
  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << " (speedup saturates there; on one vCPU the pool can only\n"
               "add scheduling overhead, so expect ~1.0 or slightly below)\n"
            << "repetitions per width: " << repetitions
            << " (bm_sweep_grid times the same job for the JSON series)\n\n";

  TextTable table;
  table.row()
      .cell("workers")
      .cell("tasks")
      .cell("median ms")
      .cell("p25 ms")
      .cell("p75 ms")
      .cell("speedup")
      .cell("checksum");
  double sequential_ms = 0.0;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    WarmService warm(workers, tasks);
    std::vector<double> ms;
    std::uint64_t checksum = 0;
    std::size_t cells = 0;
    for (std::size_t r = 0; r < repetitions; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const auto outcomes = warm.run(tasks);
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - start;
      ms.push_back(elapsed.count());
      const std::uint64_t sum = grid_checksum(outcomes);
      // Every repetition must produce the same bytes; a zero checksum
      // column marks one that did not.
      checksum = r == 0 ? sum : (sum == checksum ? checksum : 0);
      cells = outcomes.size();
    }
    std::sort(ms.begin(), ms.end());
    const double median = quantile(ms, 0.5);
    if (workers == 1) sequential_ms = median;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(checksum));
    table.row()
        .cell(std::uint64_t{workers})
        .cell(std::uint64_t{cells})
        .cell(median, 1)
        .cell(quantile(ms, 0.25), 1)
        .cell(quantile(ms, 0.75), 1)
        .cell(median > 0 ? sequential_ms / median : 1.0, 2)
        .cell(hex);
  }
  std::cout << table.render() << '\n';
  std::cout << "Shape check: identical checksums across worker counts\n"
               "(deterministic sharding), speedup approaching the worker\n"
               "count until the grid runs out of tasks per worker. Read\n"
               "the speedup against the quartiles: host load moves a\n"
               "single ~10 ms job by more than a worker's gain.\n\n";

  // Lockstep batching on one thread. On this grid the traces are long
  // relative to the CFG, so the amortized setup is small and the
  // column is expected to be ~flat; the regime where batching wins
  // outright is the wide-CFG/short-trace series below
  // (bm_sweep_batch_widecfg). Checksums must match the batch=1 row --
  // batching is a scheduling knob, never a results knob.
  TextTable batched;
  batched.row()
      .cell("batch")
      .cell("cells")
      .cell("wall ms")
      .cell("cells/s")
      .cell("vs batch=1")
      .cell("checksum");
  double unbatched_ms = 0.0;
  const auto& system = sweep_system();
  for (const std::uint32_t batch : {1u, 2u, 4u, 8u, 16u}) {
    const auto start = std::chrono::steady_clock::now();
    const auto outcomes = run_chunks(system.cfg(), system.image(),
                                     system.default_trace(), tasks, batch);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    if (batch == 1) unbatched_ms = elapsed.count();
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(grid_checksum(outcomes)));
    batched.row()
        .cell(std::uint64_t{batch})
        .cell(std::uint64_t{outcomes.size()})
        .cell(elapsed.count(), 1)
        .cell(elapsed.count() > 0
                  ? static_cast<double>(outcomes.size()) * 1000.0 /
                        elapsed.count()
                  : 0.0,
              1)
        .cell(unbatched_ms > 0 ? unbatched_ms / elapsed.count() : 1.0, 2)
        .cell(checksum);
  }
  std::cout << batched.render() << '\n';
  std::cout << "Shape check: identical checksums down the column (the\n"
               "determinism claim); wall clock ~flat here -- long traces\n"
               "dwarf the amortized setup. bm_sweep_batch_widecfg is the\n"
               "series where the batch width pays for itself.\n\n";
}

void bm_sweep_grid(benchmark::State& state) {
  const auto tasks = make_grid();
  const auto workers = static_cast<unsigned>(state.range(0));
  WarmService warm(workers, tasks);
  std::uint64_t grid_points = 0;
  for (auto _ : state) {
    const auto outcomes = warm.run(tasks);
    benchmark::DoNotOptimize(outcomes.data());
    grid_points += outcomes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(grid_points));
  state.SetLabel(std::to_string(workers) + "-worker");
}
BENCHMARK(bm_sweep_grid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The batching trend for BENCH_sweep.json: grid cells stepped per
/// second on one thread as the lockstep batch width grows.
/// items_per_second IS cells-stepped/sec, so real hardware can read the
/// series past the 1-vCPU container this repo's CI runs on.
void bm_sweep_batch(benchmark::State& state) {
  const auto& system = sweep_system();
  const auto tasks = make_grid();
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t cells_stepped = 0;
  for (auto _ : state) {
    const auto outcomes = run_chunks(system.cfg(), system.image(),
                                     system.default_trace(), tasks, batch);
    benchmark::DoNotOptimize(outcomes.data());
    cells_stepped += outcomes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells_stepped));
  state.SetLabel("batch-" + std::to_string(batch));
}
BENCHMARK(bm_sweep_batch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Wide-CFG / short-trace workload: the regime where batching's shared
/// setup dominates. Per cell the width-1 path pays O(B + T) setup --
/// trace validation, slot layout, size + execution-cost tables, a
/// profile-predictor trace pass, and for planning strategies one
/// bounded frontier BFS per block (the frontier cache) -- before an
/// O(T) run; with B large and T short that setup is the bulk of the
/// cell, and a batch pays it once instead of once per cell. The suite
/// workloads above are the opposite regime (tiny B, long T), which is
/// why their batching delta sits in the noise.
struct WideCfgWorkload {
  cfg::Cfg graph;
  std::unique_ptr<runtime::BlockImage> image;
  cfg::BlockTrace trace;
};

const WideCfgWorkload& wide_cfg_workload() {
  static auto* cached = []() {
    auto* w = new WideCfgWorkload();
    const std::size_t blocks = bench::quick_mode() ? 256 : 2048;
    for (std::size_t b = 0; b < blocks; ++b) {
      w->graph.add_block(static_cast<std::uint32_t>(b * 8),
                         4 + static_cast<std::uint32_t>(b % 13));
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto from = static_cast<cfg::BlockId>(b);
      const auto next = static_cast<cfg::BlockId>((b + 1) % blocks);
      const auto far = static_cast<cfg::BlockId>((b * 7919 + 13) % blocks);
      w->graph.add_edge(from, next, cfg::EdgeKind::kFallThrough, 0.9);
      if (far != next && far != from) {
        w->graph.add_edge(from, far, cfg::EdgeKind::kJump, 0.1);
      }
    }
    w->graph.set_entry(0);
    w->graph.normalize_probabilities();
    w->image = std::make_unique<runtime::BlockImage>(
        runtime::make_block_image(
            w->graph,
            [](const cfg::BasicBlock& b) {
              return compress::Bytes(b.size_bytes(), 0x90);
            },
            compress::CodecKind::kNull));
    sim::TraceGenOptions options;
    options.seed = 20260808;
    options.max_blocks = blocks * 2;  // short: ~2 visits per block
    w->trace = sim::generate_trace(w->graph, options);
    return w;
  }();
  return *cached;
}

/// A 16-cell planning-heavy grid over the wide CFG (the on-demand rows
/// are excluded on purpose: they skip the geometry setup whose
/// amortization this series measures).
std::vector<sweep::SweepTask> wide_cfg_grid() {
  std::vector<sweep::SweepTask> tasks;
  for (const auto strategy : {runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {2u, 4u, 6u, 8u}) {
      for (const auto fit :
           {memory::FitPolicy::kFirstFit, memory::FitPolicy::kBestFit}) {
        sweep::SweepTask task;
        task.config.policy.strategy = strategy;
        task.config.policy.compress_k = k;
        task.config.policy.predecompress_k = k;
        task.config.fit = fit;
        task.label = std::string(runtime::strategy_name(strategy)) +
                     "/k=" + std::to_string(k) +
                     (fit == memory::FitPolicy::kBestFit ? "/best-fit"
                                                         : "/first-fit");
        tasks.push_back(std::move(task));
      }
    }
  }
  return tasks;
}

void bm_sweep_batch_widecfg(benchmark::State& state) {
  const auto& w = wide_cfg_workload();
  const auto tasks = wide_cfg_grid();
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t cells_stepped = 0;
  for (auto _ : state) {
    const auto outcomes = run_chunks(w.graph, *w.image, w.trace, tasks, batch);
    benchmark::DoNotOptimize(outcomes.data());
    cells_stepped += outcomes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells_stepped));
  state.SetLabel("wide-cfg batch-" + std::to_string(batch));
}
BENCHMARK(bm_sweep_batch_widecfg)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

APCC_BENCH_MAIN(print_tables)
