// The paper-reproduction tables: Figures 1-5 and the experiments they
// imply (E1-E10), one printer per table.
//
// `apcc_reproduce <table>` prints one of them, and every table's text is
// pinned byte for byte in tests/golden/reproduction/<table>.txt
// (docs/REPRODUCTION.md). A table whose rows a test asserts over also
// exposes them here -- a row builder, or the labelled cell configs it
// runs -- so the test reads the same rows the table prints instead of a
// copy of its grid.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "core/system.hpp"
#include "sim/result.hpp"
#include "workloads/suite.hpp"

namespace apcc::reproduce {

// One printer per table, each defined in reproduce/<table>.cpp;
// `apcc_reproduce <table>` calls it.
void print_fig1_kedge(std::ostream& out);
void print_fig2_predecomp(std::ostream& out);
void print_fig3_design_space(std::ostream& out);
void print_fig4_threads(std::ostream& out);
void print_fig5_walkthrough(std::ostream& out);
void print_e1_k_sweep_memory(std::ostream& out);
void print_e2_k_sweep_cycles(std::ostream& out);
void print_e3_strategy_table(std::ostream& out);
void print_e4_codecs(std::ostream& out);
void print_e5_budget_lru(std::ostream& out);
void print_e6_ablation(std::ostream& out);
void print_e7_predictor(std::ostream& out);
void print_e8_bandwidth(std::ostream& out);
void print_e9_eviction(std::ostream& out);
void print_e10_sensitivity(std::ostream& out);

/// One labelled row of a table: the full system configuration it runs.
struct Cell {
  std::string label;
  core::SystemConfig config;
};

/// Figure 3's grid on gsm-like: every decompression strategy at
/// k_c = k_d = k for k in {1, 2, 4, 8}, all with the default
/// (shared-Huffman) codec.
inline constexpr workloads::WorkloadKind kFig3Workload =
    workloads::WorkloadKind::kGsmLike;
[[nodiscard]] std::vector<Cell> fig3_cells();

/// E3's APCC rows, run on every suite kernel: codepack, k_c = 16,
/// k_d = 4, one row per decompression strategy.
[[nodiscard]] std::vector<Cell> e3_apcc_cells();

/// One E4 row: a codec trained over every suite basic block.
struct E4Row {
  compress::CodecKind codec;
  double ratio;                 // compressed / original, all suite blocks
  compress::CodecCosts costs;   // the simulator's cost model
  sim::RunResult gsm;           // gsm-like, on-demand, k_c = 2
};
[[nodiscard]] std::vector<E4Row> e4_rows();

/// E10's rows on gsm-like, on-demand, k_c = 16.
inline constexpr std::array<std::uint64_t, 3> kE10ExceptionCycles = {
    50, 250, 1000};
struct E10Rows {
  struct Codec {
    compress::CodecKind codec;
    std::vector<sim::RunResult> results;  // one per kE10ExceptionCycles
  };
  struct Cpi {
    double cycles_per_instruction;
    sim::RunResult result;  // codepack, exception cost 250
  };
  std::vector<Codec> codecs;
  std::vector<Cpi> cpi;
};
[[nodiscard]] E10Rows e10_rows();

}  // namespace apcc::reproduce
