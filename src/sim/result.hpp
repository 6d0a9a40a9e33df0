// Run metrics: what every reproduction table reports (docs/REPRODUCTION.md).
#pragma once

#include <cstddef>
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

/// RunResult's field table: calls f(wire key, that field of each run)
/// once per field, in wire order. The wire codec writes and reads every
/// field through it and the engine differentials compare them, so a
/// field listed here crosses the wire and is checked.
template <typename F, typename... Runs>
constexpr void for_each_field(F&& f, Runs&... runs) {
  f("total-cycles", runs.total_cycles...);
  f("baseline-cycles", runs.baseline_cycles...);
  f("busy-cycles", runs.busy_cycles...);
  f("stall-cycles", runs.stall_cycles...);
  f("exception-cycles", runs.exception_cycles...);
  f("critical-decompress-cycles", runs.critical_decompress_cycles...);
  f("patch-cycles", runs.patch_cycles...);
  f("block-entries", runs.block_entries...);
  f("exceptions", runs.exceptions...);
  f("demand-decompressions", runs.demand_decompressions...);
  f("predecompressions", runs.predecompressions...);
  f("predecompress-hits", runs.predecompress_hits...);
  f("predecompress-partial", runs.predecompress_partial...);
  f("wasted-predecompressions", runs.wasted_predecompressions...);
  f("deletions", runs.deletions...);
  f("evictions", runs.evictions...);
  f("patches", runs.patches...);
  f("unpatches", runs.unpatches...);
  f("dropped-requests", runs.dropped_requests...);
  f("decomp-helper-busy", runs.decomp_helper_busy_cycles...);
  f("comp-helper-busy", runs.comp_helper_busy_cycles...);
  f("original-bytes", runs.original_image_bytes...);
  f("compressed-area-bytes", runs.compressed_area_bytes...);
  f("peak-bytes", runs.peak_occupancy_bytes...);
  f("avg-bytes", runs.avg_occupancy_bytes...);
  f("codec-ratio", runs.codec_ratio...);
  f("alloc-capacity", runs.allocator.capacity...);
  f("alloc-used", runs.allocator.used...);
  f("alloc-free", runs.allocator.free...);
  f("alloc-largest-run", runs.allocator.largest_free_run...);
  f("alloc-live", runs.allocator.live_allocations...);
  f("alloc-total", runs.allocator.total_allocations...);
  f("alloc-failed", runs.allocator.failed_allocations...);
}

// Every field is one eight-byte slot with one row above, so a member
// added without a row changes the size and fails the build.
static_assert(sizeof(RunResult) == 8 * [] {
  std::size_t rows = 0;
  RunResult run;
  for_each_field([&rows](const char*, auto&) { ++rows; }, run);
  return rows;
}(), "each RunResult member needs one row in for_each_field");

}  // namespace apcc::sim
