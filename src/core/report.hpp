// Standardised experiment reporting: one row per (label, RunResult).
//
// The reproduction tables print through this so they stay comparable
// across experiments (and with docs/REPRODUCTION.md).
#pragma once

#include <string>
#include <vector>

#include "sim/result.hpp"

namespace apcc::core {

/// One labelled result row.
struct ReportRow {
  std::string label;
  sim::RunResult result;
};

/// Render the standard comparison table:
/// label | cycles | slowdown | peak mem | peak saving | avg saving |
/// exceptions | decompressions | deletions | stalls.
[[nodiscard]] std::string render_comparison(const std::vector<ReportRow>& rows);

/// Render a compact memory-focused table (for the k-sweep experiments).
[[nodiscard]] std::string render_memory_sweep(
    const std::vector<ReportRow>& rows);

}  // namespace apcc::core
