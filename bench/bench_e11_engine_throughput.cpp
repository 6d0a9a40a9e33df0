// E11: engine hot-path throughput on a design-sweep-scale workload.
//
// The paper's evaluation sweeps many policy configurations over long
// block traces; the engine's per-step cost decides how large a design
// space is explorable. This bench builds a large synthetic CFG (10k
// basic blocks, loop-heavy with cross-region jumps, like inlined
// embedded codecs), drives a 1M-step trace through it, and reports the
// engine's steps/sec.
//
// The table prints a direct wall-clock rate (the number quoted in
// docs/PERFORMANCE.md); the google-benchmark registrations below give
// the stable timed series for BENCH_engine.json. Every row runs one
// configuration as a width-1 sim::BatchEngine -- the per-cell run, whose
// planner reads the frontier cache the engine materializes for its k.
// Two rows run pre-decompress-single: the profile predictor on a
// 2,444-block program, where its per-block ranking is most of the cell,
// and the oracle predictor on mpeg2-like's 94k-entry scale-16 trace.
// bm_frontier_build times one planner geometry build on that program,
// every block's lists against only those of the blocks its trace exits,
// bm_workload_build one build of the program itself, from its
// generator options to its block bytes, and bm_workload_stage each
// stage of that build alone.
#include <chrono>
#include <map>
#include <string>

#include "bench/bench_common.hpp"
#include "isa/assembler.hpp"
#include "runtime/frontier_cache.hpp"
#include "sim/batch_engine.hpp"
#include "sim/trace_gen.hpp"
#include "support/table.hpp"
#include "workloads/random_program.hpp"

namespace {

using namespace apcc;

/// Synthetic sweep workload: `blocks` basic blocks, mostly sequential
/// flow with a ~10% jump to a far region, so execution loops locally
/// (small resident set) while still churning decompressions.
struct SweepWorkload {
  cfg::Cfg graph;
  std::unique_ptr<runtime::BlockImage> image;
  cfg::BlockTrace trace;
};

const SweepWorkload& sweep_workload(std::size_t blocks,
                                    std::uint64_t steps) {
  static auto* cache = new std::map<std::pair<std::size_t, std::uint64_t>,
                                    SweepWorkload>();
  const auto key = std::make_pair(blocks, steps);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  SweepWorkload w;
  for (std::size_t b = 0; b < blocks; ++b) {
    w.graph.add_block(static_cast<std::uint32_t>(b * 8),
                      4 + static_cast<std::uint32_t>(b % 13));
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto from = static_cast<cfg::BlockId>(b);
    const auto next = static_cast<cfg::BlockId>((b + 1) % blocks);
    const auto far =
        static_cast<cfg::BlockId>((b * 7919 + 13) % blocks);
    w.graph.add_edge(from, next, cfg::EdgeKind::kFallThrough, 0.9);
    if (far != next && far != from) {
      w.graph.add_edge(from, far, cfg::EdgeKind::kJump, 0.1);
    }
  }
  w.graph.set_entry(0);
  w.graph.normalize_probabilities();

  // Null codec: the engine only consumes the codec's *cost model*, so an
  // identity codec keeps the (one-off) image build instant at 10k blocks.
  w.image = std::make_unique<runtime::BlockImage>(runtime::make_block_image(
      w.graph,
      [](const cfg::BasicBlock& b) {
        return compress::Bytes(b.size_bytes(), 0x90);
      },
      compress::CodecKind::kNull));

  sim::TraceGenOptions options;
  options.seed = 20260730;
  options.max_blocks = steps;
  w.trace = sim::generate_trace(w.graph, options);

  return cache->emplace(key, std::move(w)).first->second;
}

/// The sweep configuration every row runs: pre-all with a short
/// frontier, so each exit plans and the k-edge walk churns copies.
sim::EngineConfig sweep_config() {
  sim::EngineConfig config;
  config.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  config.policy.compress_k = 8;
  config.policy.predecompress_k = 1;
  return config;
}

void print_tables() {
  bench::print_header(
      "E11", "engine hot-path throughput\n"
             "(10k-block synthetic CFG; steps/sec = trace entries/sec)");
  TextTable table;
  table.row().cell("engine").cell("blocks").cell("steps").cell("steps/sec");
  const auto& w = sweep_workload(10'000, 1'000'000);
  sim::BatchEngine engine(w.graph, *w.image, {sweep_config()});
  const auto start = std::chrono::steady_clock::now();
  const sim::RunResult r = engine.run(w.trace).front().value();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  table.row()
      .cell("indexed+memoized")
      .cell(std::uint64_t{10'000})
      .cell(std::uint64_t{r.block_entries})
      .cell(static_cast<double>(r.block_entries) / elapsed.count(), 0);
  std::cout << table.render() << '\n';
}

void bm_engine_steps(benchmark::State& state) {
  const auto blocks = static_cast<std::size_t>(state.range(0));
  const auto& w = sweep_workload(blocks, 1'000'000);
  sim::BatchEngine engine(w.graph, *w.image, {sweep_config()});
  std::uint64_t total_steps = 0;
  for (auto _ : state) {
    const sim::RunResult r = engine.run(w.trace).front().value();
    benchmark::DoNotOptimize(r.total_cycles);
    total_steps += r.block_entries;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_steps));
}
BENCHMARK(bm_engine_steps)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

void bm_engine_budget_evictions(benchmark::State& state) {
  // Eviction-heavy variant: the unbounded run keeps up to ~17 copies of
  // 16-64 B resident, so a 512 B budget forces LRU victim selection on
  // most placements (about one eviction per step). `evictions_per_step`
  // proves the row evicts; a budget above the resident set reads 0.
  const auto& w = sweep_workload(10'000, 500'000);
  sim::EngineConfig config = sweep_config();
  config.policy.memory_budget = 512;
  config.policy.victim_policy = runtime::VictimPolicy::kLru;
  sim::BatchEngine engine(w.graph, *w.image, {config});
  std::uint64_t total_steps = 0;
  std::uint64_t total_evictions = 0;
  for (auto _ : state) {
    const sim::RunResult r = engine.run(w.trace).front().value();
    benchmark::DoNotOptimize(r.evictions);
    total_steps += r.block_entries;
    total_evictions += r.evictions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_steps));
  state.counters["evictions_per_step"] =
      static_cast<double>(total_evictions) / static_cast<double>(total_steps);
}
BENCHMARK(bm_engine_budget_evictions)->Unit(benchmark::kMillisecond);

/// A workload with its own trace, in a huffman-shared image.
struct ImagedWorkload {
  workloads::Workload workload;
  std::unique_ptr<runtime::BlockImage> image;
};

const ImagedWorkload* with_image(workloads::Workload w) {
  auto* p = new ImagedWorkload{std::move(w), {}};
  p->image = std::make_unique<runtime::BlockImage>(
      p->workload.cfg, p->workload.block_bytes,
      compress::make_codec(compress::CodecKind::kSharedHuffman,
                           p->workload.block_bytes));
  return p;
}

/// artifact-churn's first program (perfbench's plan: seed 9001, 2,444
/// blocks).
workloads::RandomProgramOptions churn_program_options() {
  workloads::RandomProgramOptions options;
  options.seed = 9001;
  options.max_depth = 3;
  options.statements_per_body = 40;
  options.leaf_functions = 16;
  options.loop_iters_max = 6;
  return options;
}

const ImagedWorkload& churn_program() {
  static const ImagedWorkload* program = [] {
    return with_image(workloads::make_random_workload(churn_program_options()));
  }();
  return *program;
}

/// mpeg2-like at scale 16: a 94k-entry trace.
const ImagedWorkload& mpeg2_scale16() {
  static const ImagedWorkload* program = [] {
    workloads::WorkloadOptions options;
    options.scale = 16;
    return with_image(
        workloads::make_workload(workloads::WorkloadKind::kMpeg2Like, options));
  }();
  return *program;
}

/// Time one width-1 pre-single cell at k = 8 over `p`'s trace.
void run_presingle(benchmark::State& state, const ImagedWorkload& p,
                   runtime::PredictorKind predictor) {
  sim::EngineConfig config;
  config.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
  config.policy.predictor = predictor;
  config.policy.compress_k = 8;
  config.policy.predecompress_k = 8;
  sim::BatchEngine engine(p.workload.cfg, *p.image, {config});
  std::uint64_t total_steps = 0;
  for (auto _ : state) {
    const sim::RunResult r = engine.run(p.workload.trace).front().value();
    benchmark::DoNotOptimize(r.total_cycles);
    total_steps += r.block_entries;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_steps));
}

void bm_engine_presingle(benchmark::State& state) {
  // Profile predictor on the churn program: each run builds its
  // frontier cache and ranks every block the trace exits with
  // reach_scores, so the row tracks the ranking's cost on a large CFG.
  // No gated perfbench workload runs pre-single on one.
  run_presingle(state, churn_program(), runtime::PredictorKind::kProfile);
}
BENCHMARK(bm_engine_presingle)->Unit(benchmark::kMillisecond);

void bm_engine_presingle_oracle(benchmark::State& state) {
  // Oracle predictor on a long trace: each run indexes the trace's
  // positions per block, and each prediction binary-searches them, so
  // the row grows with the trace only through that O(T) index.
  run_presingle(state, mpeg2_scale16(), runtime::PredictorKind::kOracle);
}
BENCHMARK(bm_engine_presingle_oracle)->Unit(benchmark::kMillisecond);

void bm_frontier_build(benchmark::State& state) {
  // One k = 8 geometry build on the churn program: arg 0 builds every
  // block's list (materialize(), what perfbench's isolated pass lends),
  // arg 1 only the lists of the blocks its trace exits
  // (materialize(trace), what BatchEngine::run and the Service build).
  const workloads::Workload& w = churn_program().workload;
  const bool trace_exits = state.range(0) != 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    runtime::FrontierCache cache(w.cfg, 8);
    if (trace_exits) {
      cache.materialize(w.trace);
    } else {
      cache.materialize();
    }
    bytes = cache.resident_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetLabel(trace_exits ? "trace-exits" : "every-block");
  state.counters["resident_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(bm_frontier_build)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void bm_workload_build(benchmark::State& state) {
  // One build of the churn program from its options, as perfbench's
  // setup builds each of artifact-churn's 16: generate the source,
  // assemble, build the CFG, interpret for the trace, apply the profile
  // and cut the block bytes.
  const workloads::RandomProgramOptions options = churn_program_options();
  std::size_t blocks = 0;
  std::size_t edges = 0;
  std::size_t labels = 0;
  for (auto _ : state) {
    const workloads::Workload w = workloads::make_random_workload(options);
    blocks = w.cfg.block_count();
    edges = w.cfg.edge_count();
    labels = w.program.label_count();
    benchmark::DoNotOptimize(blocks);
  }
  state.counters["blocks"] = static_cast<double>(blocks);
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["labels"] = static_cast<double>(labels);
}
BENCHMARK(bm_workload_build)->Unit(benchmark::kMillisecond);

void bm_workload_stage(benchmark::State& state) {
  // bm_workload_build's stages, one row each, so a build regression
  // names its stage: /0 generates the churn program's source, /1
  // assembles it (input MB/s), /2 builds its CFG, and /3 runs it --
  // interpret for the trace, check it, apply the profile and cut the
  // block bytes, as workloads::build_workload does.
  const workloads::RandomProgramOptions options = churn_program_options();
  const std::string source = workloads::random_program_source(options);
  const isa::Program program = isa::assemble(source);
  const cfg::BuildResult built = cfg::build_cfg(program);
  cfg::Cfg graph = built.cfg;  // the profile is applied to it each run
  const isa::InterpreterOptions interpreter{.max_steps = options.max_steps};
  static constexpr const char* kStages[] = {"source", "assemble", "cfg",
                                            "run"};
  const auto stage = state.range(0);
  for (auto _ : state) {
    switch (stage) {
      case 0:
        benchmark::DoNotOptimize(workloads::random_program_source(options));
        break;
      case 1:
        benchmark::DoNotOptimize(isa::assemble(source));
        break;
      case 2:
        benchmark::DoNotOptimize(cfg::build_cfg(program));
        break;
      default: {
        isa::Interpreter interp(program, interpreter);
        cfg::BlockTraceBuilder tracer(graph, built.word_to_block);
        interp.set_trace_hook(
            [&tracer](std::uint32_t pc) { tracer.on_pc(pc); });
        (void)interp.run();
        cfg::BlockTrace trace = tracer.take();
        trace.shrink_to_fit();
        cfg::validate_trace(graph, trace);
        cfg::EdgeProfile profile(graph);
        profile.add_trace(trace);
        profile.apply_to(graph);
        benchmark::DoNotOptimize(workloads::cut_block_bytes(program, graph));
        break;
      }
    }
  }
  state.SetLabel(kStages[stage]);
  if (stage == 1) {
    state.counters["input_mb_per_s"] = benchmark::Counter(
        static_cast<double>(source.size()) / 1e6 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
  }
}
BENCHMARK(bm_workload_stage)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

APCC_BENCH_MAIN(print_tables)
