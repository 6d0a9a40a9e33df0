// apcc_reproduce: print one of the paper-reproduction tables.
//
//   apcc_reproduce <table>
//
// The tables rebuild the paper's Figures 1-5 and the experiments they
// imply (E1-E10). Each one's text is pinned byte for byte in
// tests/golden/reproduction/<table>.txt, and its shape claims are
// discussed in docs/REPRODUCTION.md. A missing or unknown name prints
// the table names and exits nonzero.
#include <algorithm>
#include <exception>
#include <iostream>
#include <string_view>

#include "reproduce/tables.hpp"

namespace {

struct Table {
  std::string_view name;  // the golden's file stem
  void (*print)(std::ostream& out);
};

// Figures first, in paper order.
constexpr Table kTables[] = {
    {"fig1_kedge", apcc::reproduce::print_fig1_kedge},
    {"fig2_predecomp", apcc::reproduce::print_fig2_predecomp},
    {"fig3_design_space", apcc::reproduce::print_fig3_design_space},
    {"fig4_threads", apcc::reproduce::print_fig4_threads},
    {"fig5_walkthrough", apcc::reproduce::print_fig5_walkthrough},
    {"e1_k_sweep_memory", apcc::reproduce::print_e1_k_sweep_memory},
    {"e2_k_sweep_cycles", apcc::reproduce::print_e2_k_sweep_cycles},
    {"e3_strategy_table", apcc::reproduce::print_e3_strategy_table},
    {"e4_codecs", apcc::reproduce::print_e4_codecs},
    {"e5_budget_lru", apcc::reproduce::print_e5_budget_lru},
    {"e6_ablation", apcc::reproduce::print_e6_ablation},
    {"e7_predictor", apcc::reproduce::print_e7_predictor},
    {"e8_bandwidth", apcc::reproduce::print_e8_bandwidth},
    {"e9_eviction", apcc::reproduce::print_e9_eviction},
    {"e10_sensitivity", apcc::reproduce::print_e10_sensitivity},
};

}  // namespace

int main(int argc, char** argv) {
  const Table* table = std::end(kTables);
  if (argc == 2) {
    const std::string_view name = argv[1];
    table = std::find_if(std::begin(kTables), std::end(kTables),
                         [name](const Table& t) { return t.name == name; });
  }
  if (table == std::end(kTables)) {
    std::cerr << "usage: apcc_reproduce <table>\ntables:";
    for (const Table& t : kTables) std::cerr << ' ' << t.name;
    std::cerr << '\n';
    return 2;
  }
  try {
    table->print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
