// Run metrics: what every reproduction table reports (docs/REPRODUCTION.md).
#pragma once

#include <cstdint>
#include <string>

#include "memory/allocator.hpp"

namespace apcc::sim {

/// Aggregate outcome of simulating one trace under one policy.
struct RunResult {
  // -- time ----------------------------------------------------------
  std::uint64_t total_cycles = 0;     // execution thread finish time
  std::uint64_t baseline_cycles = 0;  // same trace, no compression at all
  std::uint64_t busy_cycles = 0;      // pure instruction execution
  std::uint64_t stall_cycles = 0;     // waiting for in-flight decompression
  std::uint64_t exception_cycles = 0; // handler entry/exit time
  std::uint64_t critical_decompress_cycles = 0;  // on-demand, in path
  std::uint64_t patch_cycles = 0;     // branch patching in path

  // -- event counts ---------------------------------------------------
  std::uint64_t block_entries = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t demand_decompressions = 0;
  std::uint64_t predecompressions = 0;       // issued to the helper
  std::uint64_t predecompress_hits = 0;      // entered fully ready
  std::uint64_t predecompress_partial = 0;   // entered while in flight
  std::uint64_t wasted_predecompressions = 0;// deleted before any use
  std::uint64_t deletions = 0;               // k-edge "compressions"
  std::uint64_t evictions = 0;               // budget-mode LRU victims
  std::uint64_t patches = 0;
  std::uint64_t unpatches = 0;
  std::uint64_t dropped_requests = 0;        // no room, no victim

  // -- helper threads (Figure 4) --------------------------------------
  std::uint64_t decomp_helper_busy_cycles = 0;
  std::uint64_t comp_helper_busy_cycles = 0;

  // -- memory ----------------------------------------------------------
  std::uint64_t original_image_bytes = 0;   // uncompressed code size
  std::uint64_t compressed_area_bytes = 0;  // fixed area incl. index
  std::uint64_t peak_occupancy_bytes = 0;
  double avg_occupancy_bytes = 0.0;
  double codec_ratio = 0.0;                 // compressed/original
  memory::AllocatorStats allocator{};

  // -- derived ----------------------------------------------------------
  /// Execution-time dilation vs an uncompressed image (1.0 = free).
  [[nodiscard]] double slowdown() const;
  /// Peak memory saved vs the uncompressed image (positive = saving).
  [[nodiscard]] double peak_saving() const;
  /// Time-average memory saved vs the uncompressed image.
  [[nodiscard]] double avg_saving() const;
  /// Fraction of block entries that raised an exception.
  [[nodiscard]] double exception_rate() const;

  /// Multi-line human-readable report.
  [[nodiscard]] std::string summary() const;
};

}  // namespace apcc::sim
