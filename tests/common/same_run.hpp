// Field-by-field equality of two simulated runs -- every RunResult
// field, the allocator statistics and the codec ratio included -- and
// of their event streams, for the engine differentials.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/result.hpp"
#include "sim/step_policy.hpp"

namespace apcc::testref {

inline void expect_same_result(const sim::RunResult& want,
                               const sim::RunResult& got) {
  EXPECT_EQ(want.total_cycles, got.total_cycles);
  EXPECT_EQ(want.baseline_cycles, got.baseline_cycles);
  EXPECT_EQ(want.busy_cycles, got.busy_cycles);
  EXPECT_EQ(want.stall_cycles, got.stall_cycles);
  EXPECT_EQ(want.exception_cycles, got.exception_cycles);
  EXPECT_EQ(want.critical_decompress_cycles, got.critical_decompress_cycles);
  EXPECT_EQ(want.patch_cycles, got.patch_cycles);
  EXPECT_EQ(want.block_entries, got.block_entries);
  EXPECT_EQ(want.exceptions, got.exceptions);
  EXPECT_EQ(want.demand_decompressions, got.demand_decompressions);
  EXPECT_EQ(want.predecompressions, got.predecompressions);
  EXPECT_EQ(want.predecompress_hits, got.predecompress_hits);
  EXPECT_EQ(want.predecompress_partial, got.predecompress_partial);
  EXPECT_EQ(want.wasted_predecompressions, got.wasted_predecompressions);
  EXPECT_EQ(want.deletions, got.deletions);
  EXPECT_EQ(want.evictions, got.evictions);
  EXPECT_EQ(want.patches, got.patches);
  EXPECT_EQ(want.unpatches, got.unpatches);
  EXPECT_EQ(want.dropped_requests, got.dropped_requests);
  EXPECT_EQ(want.decomp_helper_busy_cycles, got.decomp_helper_busy_cycles);
  EXPECT_EQ(want.comp_helper_busy_cycles, got.comp_helper_busy_cycles);
  EXPECT_EQ(want.original_image_bytes, got.original_image_bytes);
  EXPECT_EQ(want.compressed_area_bytes, got.compressed_area_bytes);
  EXPECT_EQ(want.peak_occupancy_bytes, got.peak_occupancy_bytes);
  EXPECT_EQ(want.avg_occupancy_bytes, got.avg_occupancy_bytes);
  EXPECT_EQ(want.codec_ratio, got.codec_ratio);
  EXPECT_EQ(want.allocator.capacity, got.allocator.capacity);
  EXPECT_EQ(want.allocator.used, got.allocator.used);
  EXPECT_EQ(want.allocator.free, got.allocator.free);
  EXPECT_EQ(want.allocator.largest_free_run, got.allocator.largest_free_run);
  EXPECT_EQ(want.allocator.live_allocations, got.allocator.live_allocations);
  EXPECT_EQ(want.allocator.total_allocations,
            got.allocator.total_allocations);
  EXPECT_EQ(want.allocator.failed_allocations,
            got.allocator.failed_allocations);
}

/// Fails at the first event that differs, naming both sides.
inline void expect_same_events(const std::vector<sim::Event>& want,
                               const std::vector<sim::Event>& got) {
  const auto show = [](const sim::Event& e) {
    return std::string(sim::event_kind_name(e.kind)) + "@" +
           std::to_string(e.time) + " block " + std::to_string(e.block) +
           " aux " + std::to_string(e.aux) + " value " +
           std::to_string(e.value);
  };
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    const sim::Event& a = want[i];
    const sim::Event& b = got[i];
    ASSERT_TRUE(a.kind == b.kind && a.time == b.time && a.block == b.block &&
                a.aux == b.aux && a.value == b.value)
        << "event " << i << " diverged: want " << show(a) << ", got "
        << show(b);
  }
  ASSERT_EQ(want.size(), got.size()) << "event streams differ in length";
}

}  // namespace apcc::testref
