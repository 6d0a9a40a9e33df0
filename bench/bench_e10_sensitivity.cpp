// E10 (extension): cost-model sensitivity.
//
// Absolute slowdowns in every experiment scale with two platform
// parameters the paper never fixes: the memory-protection exception cost
// and the decoder speed. This bench sweeps both so readers can map the
// reproduction's numbers onto their own platform (e.g. a bare-metal MMU
// fault handler at ~50 cycles vs a full OS path at ~1000).
#include "bench/bench_common.hpp"
#include "support/table.hpp"

namespace {

using namespace apcc;

void print_tables() {
  bench::print_header("E10 (extension)",
                      "sensitivity of slowdown to exception cost and\n"
                      "decoder speed (gsm-like, on-demand, k_c = 16)");
  const auto& workload =
      bench::cached_workload(workloads::WorkloadKind::kGsmLike);

  TextTable table;
  table.row()
      .cell("codec")
      .cell("exception=50")
      .cell("exception=250")
      .cell("exception=1000")
      .cell("exceptions/1k entries");
  for (const auto codec :
       {compress::CodecKind::kSharedHuffman, compress::CodecKind::kLzss,
        compress::CodecKind::kCodePack}) {
    auto& row = table.row().cell(compress::codec_kind_name(codec));
    sim::RunResult last;
    for (const std::uint64_t fault_cost : {50u, 250u, 1000u}) {
      core::SystemConfig config;
      config.codec = codec;
      config.policy.compress_k = 16;
      config.costs.exception_cycles = fault_cost;
      last = bench::run_config(workload, config);
      row.cell(last.slowdown(), 3);
    }
    row.cell(1000.0 * static_cast<double>(last.exceptions) /
                 static_cast<double>(last.block_entries),
             1);
  }
  std::cout << table.render() << '\n';

  std::cout << "CPI sensitivity (codepack, exception=250):\n";
  TextTable cpi_table;
  cpi_table.row().cell("cycles/instr").cell("slowdown").cell("note");
  for (const double cpi : {1.0, 2.0, 4.0}) {
    core::SystemConfig config;
    config.codec = compress::CodecKind::kCodePack;
    config.policy.compress_k = 16;
    config.costs.cycles_per_instruction = cpi;
    const auto r = bench::run_config(workload, config);
    cpi_table.row()
        .cell(cpi, 1)
        .cell(r.slowdown(), 3)
        .cell(cpi > 1.0 ? "slower core hides overheads" : "");
  }
  std::cout << cpi_table.render() << '\n';
  std::cout << "Shape check: relative overhead shrinks as the fault cost\n"
               "drops or the core slows -- the paper's viability window.\n\n";
}

void bm_sensitivity(benchmark::State& state) {
  const auto& workload =
      bench::cached_workload(workloads::WorkloadKind::kGsmLike);
  core::SystemConfig config;
  config.policy.compress_k = 16;
  config.costs.exception_cycles =
      static_cast<std::uint64_t>(state.range(0));
  const auto system =
      core::CodeCompressionSystem::from_workload(workload, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.run());
  }
}
BENCHMARK(bm_sensitivity)->Arg(50)->Arg(1000);

}  // namespace

APCC_BENCH_MAIN(print_tables)
