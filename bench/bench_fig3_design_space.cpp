// Figure 3 reproduction: the decompression design space.
//
// The paper's Figure 3 is the taxonomy {on-demand} vs {k-edge pre-
// decompress-all, k-edge pre-decompress-single}; this bench instantiates
// every point of that space (x a k sweep) on one workload and prints the
// memory/performance grid, which is the quantitative content the taxonomy
// implies. Compression always uses the k-edge algorithm, as in the paper.
#include "bench/bench_common.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace apcc;

void print_tables() {
  bench::print_header("Figure 3",
                      "the decompression design space, instantiated on the\n"
                      "gsm-like workload (codec: shared huffman)");
  const auto& workload =
      bench::cached_workload(workloads::WorkloadKind::kGsmLike);

  // One system (one compressed image), the whole grid sharded across
  // worker threads; outcomes come back in task order, identical to the
  // sequential loop this replaced.
  const auto system = core::CodeCompressionSystem::from_workload(workload);
  std::vector<sweep::SweepTask> tasks;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
      sweep::SweepTask task;
      task.label = std::string(runtime::strategy_name(strategy)) +
                   "/k=" + std::to_string(k);
      task.config = system.engine_config();
      task.config.policy.strategy = strategy;
      task.config.policy.compress_k = k;
      task.config.policy.predecompress_k = k;
      tasks.push_back(std::move(task));
    }
  }
  std::vector<core::ReportRow> rows;
  for (auto& outcome : system.run_sweep(tasks)) {
    rows.push_back({std::move(outcome.label), outcome.result});
  }
  std::cout << core::render_comparison(rows) << '\n';
  std::cout << "Shape check (paper S4): on-demand pays the most\n"
               "critical-path decompression. Not reproduced (see\n"
               "docs/REPRODUCTION.md): the paper has pre-all favour\n"
               "performance and pre-single favour memory; under this\n"
               "cost regime pre-single is faster than pre-all at every k.\n\n";
}

void bm_strategy(benchmark::State& state) {
  const auto& workload =
      bench::cached_workload(workloads::WorkloadKind::kGsmLike);
  core::SystemConfig config;
  config.policy.strategy =
      static_cast<runtime::DecompressionStrategy>(state.range(0));
  config.policy.compress_k = 2;
  config.policy.predecompress_k = 2;
  const auto system =
      core::CodeCompressionSystem::from_workload(workload, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.run());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(workload.trace.size()));
}
BENCHMARK(bm_strategy)
    ->Arg(0)   // on-demand
    ->Arg(1)   // pre-all
    ->Arg(2);  // pre-single

}  // namespace

APCC_BENCH_MAIN(print_tables)
