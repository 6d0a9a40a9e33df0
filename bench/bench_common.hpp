// Shared plumbing for the APCC benchmark binaries.
//
// The benches time the library's hot paths; tools/run_benches.sh
// collects their rows into BENCH_{engine,codecs,sweep}.json. E11 and
// sweep scaling also print a wall-clock table before the timings. The
// paper-reproduction tables are not here: `apcc_reproduce` prints them
// (reproduce/, docs/REPRODUCTION.md).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/system.hpp"
#include "workloads/suite.hpp"

namespace apcc::bench {

/// CI smoke mode: when APCC_BENCH_QUICK is set (tools/run_benches.sh
/// --quick), benches shrink their scales -- fewer workloads, smaller
/// grids -- so the per-PR artifact job finishes in seconds. The JSON
/// series keep the same benchmark names; only ranges/table sizes shrink.
inline bool quick_mode() {
  const char* env = std::getenv("APCC_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Banner separating a bench's table from its benchmark timing rows.
inline void print_header(const std::string& artifact,
                         const std::string& what) {
  std::cout << "==================================================\n"
            << "APCC reproduction -- " << artifact << '\n'
            << what << '\n'
            << "==================================================\n\n";
}

/// Main body of a bench with a table: print it, then run the timings.
#define APCC_BENCH_MAIN(print_tables_fn)                       \
  int main(int argc, char** argv) {                            \
    print_tables_fn();                                         \
    ::benchmark::Initialize(&argc, argv);                      \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {\
      return 1;                                                \
    }                                                          \
    ::benchmark::RunSpecifiedBenchmarks();                     \
    return 0;                                                  \
  }

}  // namespace apcc::bench
