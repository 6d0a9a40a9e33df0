// Shared plumbing for the reproduction tables (private to reproduce/).
//
// Each table prints through the library's own renderers (TextTable,
// core::render_comparison), so its text is what the pinned golden in
// tests/golden/reproduction/ holds and docs/REPRODUCTION.md quotes.
#pragma once

#include <map>
#include <ostream>
#include <string>

#include "core/report.hpp"
#include "core/system.hpp"
#include "reproduce/tables.hpp"
#include "support/strings.hpp"
#include "workloads/suite.hpp"

namespace apcc::reproduce {

/// Build-once cache of the suite workloads (the interpreter runs are the
/// expensive part; a table and the row builders a test calls reuse
/// them). Not thread-safe: tables build their rows on one thread.
inline const workloads::Workload& cached_workload(
    workloads::WorkloadKind kind) {
  static auto* cache = new std::map<workloads::WorkloadKind,
                                    workloads::Workload>();
  auto it = cache->find(kind);
  if (it == cache->end()) {
    it = cache->emplace(kind, workloads::make_workload(kind)).first;
  }
  return it->second;
}

/// Run one system configuration on a workload.
inline sim::RunResult run_config(const workloads::Workload& workload,
                                 const core::SystemConfig& config) {
  return core::CodeCompressionSystem::from_workload(workload, config).run();
}

/// The banner every table opens with.
inline void print_header(std::ostream& out, const std::string& artifact,
                         const std::string& what) {
  out << "==================================================\n"
      << "APCC reproduction -- " << artifact << '\n'
      << what << '\n'
      << "==================================================\n\n";
}

}  // namespace apcc::reproduce
