// MemoryLayout tests: the image footprint, occupancy accounting, and
// the peak / time-average series.
#include <gtest/gtest.h>

#include <array>

#include "memory/layout.hpp"

namespace apcc::memory {
namespace {

/// Three blocks' original sizes; the layout's callers pass them to
/// place_decompressed.
constexpr std::array<std::uint64_t, 3> kOriginal{40, 60, 80};

ImageFootprint three_blocks() {
  // (compressed, original): 10->40, 20->60, 30->80.
  ImageFootprint image;
  image.add_block(10, kOriginal[0]);
  image.add_block(20, kOriginal[1]);
  image.add_block(30, kOriginal[2]);
  return image;
}

TEST(ImageFootprint, SlotsAndCopiesAreAlignedAndTheIndexCounted) {
  // Unaligned sizes round up to 4 bytes in both areas: 13 -> 16 in the
  // compressed area, 41 -> 44 decompressed. Each block adds one
  // kIndexEntryBytes entry to the compressed area; the original bytes
  // are summed unrounded.
  ImageFootprint image;
  image.add_block(13, 41);
  EXPECT_EQ(image.compressed_area_bytes, 16u + kIndexEntryBytes);
  EXPECT_EQ(image.original_bytes, 41u);
  EXPECT_EQ(image.all_decompressed_bytes, 44u);
  image.add_block(0, 8);  // an empty slot still has an index entry
  image.add_block(20, 60);
  EXPECT_EQ(image.compressed_area_bytes, 16u + 0u + 20u + 3 * kIndexEntryBytes);
  EXPECT_EQ(image.original_bytes, 41u + 8u + 60u);
  EXPECT_EQ(image.all_decompressed_bytes, 44u + 8u + 60u);
}

TEST(Layout, CompressedAreaIncludesIndex) {
  const MemoryLayout layout(three_blocks(), MemoryLayout::kUnbounded);
  // Slot bytes: 12 + 20 + 32 = 64, plus 3 * 4 index bytes.
  EXPECT_EQ(layout.compressed_area_bytes(), 64u + 12u);
  EXPECT_EQ(layout.original_image_bytes(), 180u);
}

TEST(Layout, OccupancyTracksPlacements) {
  MemoryLayout layout(three_blocks(), MemoryLayout::kUnbounded);
  const std::uint64_t base = layout.occupancy_bytes();
  const auto a = layout.place_decompressed(kOriginal[0], 10);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(layout.decompressed_bytes(), 40u);
  EXPECT_EQ(layout.occupancy_bytes(), base + 40);
  layout.drop_decompressed(*a, 20);
  EXPECT_EQ(layout.occupancy_bytes(), base);
}

TEST(Layout, PeakIsMonotone) {
  MemoryLayout layout(three_blocks(), MemoryLayout::kUnbounded);
  const auto a = layout.place_decompressed(kOriginal[2], 5).value();
  const std::uint64_t peak_with_block = layout.peak_occupancy_bytes();
  layout.drop_decompressed(a, 10);
  EXPECT_EQ(layout.peak_occupancy_bytes(), peak_with_block)
      << "peak must not decrease on drop";
  EXPECT_GT(peak_with_block, layout.occupancy_bytes());
}

TEST(Layout, BudgetLimitsPlacements) {
  // Budget below the largest block: placement of block 2 must fail.
  MemoryLayout layout(three_blocks(), 64);
  EXPECT_TRUE(layout.place_decompressed(kOriginal[0], 1).has_value());
  EXPECT_FALSE(layout.place_decompressed(kOriginal[2], 2).has_value())
      << "80 bytes > 24 left";
}

TEST(Layout, AverageOccupancyTimeWeighted) {
  MemoryLayout layout(three_blocks(), MemoryLayout::kUnbounded);
  const std::uint64_t base = layout.occupancy_bytes();
  const auto a = layout.place_decompressed(kOriginal[0], 0).value();  // +40
  layout.drop_decompressed(a, 50);  // back to base
  // [0,50): base+40, [50,100): base -> average = base + 20.
  EXPECT_NEAR(layout.average_occupancy_bytes(100),
              static_cast<double>(base) + 20.0, 1e-6);
}

TEST(Layout, UnboundedFitsWholeImage) {
  MemoryLayout layout(three_blocks(), MemoryLayout::kUnbounded);
  std::vector<std::uint64_t> addrs;
  for (std::size_t b = 0; b < 3; ++b) {
    const auto a = layout.place_decompressed(kOriginal[b], b);
    ASSERT_TRUE(a.has_value()) << "unbounded layout must fit every block";
    addrs.push_back(*a);
  }
  EXPECT_EQ(layout.decompressed_bytes(), 180u);
}

}  // namespace
}  // namespace apcc::memory
