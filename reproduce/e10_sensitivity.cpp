// E10 (extension): cost-model sensitivity.
//
// Absolute slowdowns in every experiment scale with two platform
// parameters the paper never fixes: the memory-protection exception cost
// and the decoder speed. This table sweeps both so readers can map the
// reproduction's numbers onto their own platform (e.g. a bare-metal MMU
// fault handler at ~50 cycles vs a full OS path at ~1000).
#include "reproduce/common.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

E10Rows e10_rows() {
  const auto& workload = cached_workload(workloads::WorkloadKind::kGsmLike);
  E10Rows rows;
  for (const auto codec :
       {compress::CodecKind::kSharedHuffman, compress::CodecKind::kLzss,
        compress::CodecKind::kCodePack}) {
    E10Rows::Codec row{codec, {}};
    for (const std::uint64_t fault_cost : kE10ExceptionCycles) {
      core::SystemConfig config;
      config.codec = codec;
      config.policy.compress_k = 16;
      config.costs.exception_cycles = fault_cost;
      row.results.push_back(run_config(workload, config));
    }
    rows.codecs.push_back(std::move(row));
  }
  for (const double cpi : {1.0, 2.0, 4.0}) {
    core::SystemConfig config;
    config.codec = compress::CodecKind::kCodePack;
    config.policy.compress_k = 16;
    config.costs.cycles_per_instruction = cpi;
    rows.cpi.push_back({cpi, run_config(workload, config)});
  }
  return rows;
}

void print_e10_sensitivity(std::ostream& out) {
  print_header(out, "E10 (extension)",
               "sensitivity of slowdown to exception cost and\n"
               "decoder speed (gsm-like, on-demand, k_c = 16)");
  const E10Rows rows = e10_rows();

  TextTable table;
  auto& header = table.row().cell("codec");
  for (const std::uint64_t fault_cost : kE10ExceptionCycles) {
    header.cell("exception=" + std::to_string(fault_cost));
  }
  header.cell("exceptions/1k entries");
  for (const E10Rows::Codec& codec : rows.codecs) {
    auto& row = table.row().cell(compress::codec_kind_name(codec.codec));
    for (const sim::RunResult& r : codec.results) {
      row.cell(r.slowdown(), 3);
    }
    const sim::RunResult& last = codec.results.back();
    row.cell(1000.0 * static_cast<double>(last.exceptions) /
                 static_cast<double>(last.block_entries),
             1);
  }
  out << table.render() << '\n';

  out << "CPI sensitivity (codepack, exception=250):\n";
  TextTable cpi_table;
  cpi_table.row().cell("cycles/instr").cell("slowdown").cell("note");
  for (const E10Rows::Cpi& row : rows.cpi) {
    cpi_table.row()
        .cell(row.cycles_per_instruction, 1)
        .cell(row.result.slowdown(), 3)
        .cell(row.cycles_per_instruction > 1.0 ? "slower core hides overheads"
                                               : "");
  }
  out << cpi_table.render() << '\n';
  out << "Shape check: relative overhead shrinks as the fault cost\n"
         "drops or the core slows -- the paper's viability window.\n\n";
}

}  // namespace apcc::reproduce
