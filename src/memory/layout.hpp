// Memory image layout for the paper's compressed-code scheme (§5).
//
// The image has two regions:
//  * the compressed code area -- every basic block's compressed bytes at a
//    fixed location, plus a per-block index entry (address + length + the
//    compressed/uncompressed state bit the paper requires); this region
//    never changes during execution, and
//  * the decompressed block area -- transient decompressed copies managed
//    by a FreeListAllocator.
//
// Total occupancy at any instant = compressed area + live decompressed
// copies + runtime metadata. MemoryLayout tracks the time series so the
// engine can report peak and time-averaged footprints. It reads three
// sums of the image (an ImageFootprint), never a per-block table: the
// caller passes each block's size when it places the block's copy.
#pragma once

#include <cstdint>
#include <optional>

#include "memory/allocator.hpp"
#include "support/stats.hpp"

namespace apcc::memory {

/// Per-block index entry overhead, modelling the paper's bookkeeping: the
/// §4 "bit per basic block" state flag, the §5 k-edge counter, and the
/// compressed slot length (slot addresses are prefix sums recomputed from
/// lengths, CodePack-LAT style), packed into 4 bytes per block. The paper
/// itself never charges this cost; APCC includes it in every occupancy
/// number so reported savings are conservative.
inline constexpr std::uint64_t kIndexEntryBytes = 4;

/// The three sums of a compressed image that a MemoryLayout needs. The
/// compressed code area packs each block's compressed bytes back to back
/// from offset 0, each slot 4-byte aligned, and adds one index entry per
/// block; a block's slot address is the prefix sum of the aligned slots
/// before it, so no per-block table is kept. runtime::BlockImage sums
/// its footprint once, when it is built.
struct ImageFootprint {
  std::uint64_t compressed_area_bytes = 0;  // aligned slots + the index
  std::uint64_t original_bytes = 0;         // the uncompressed image
  /// Every block decompressed at once, each copy 4-byte aligned: what an
  /// unbounded decompressed area must be able to hold.
  std::uint64_t all_decompressed_bytes = 0;

  /// Count one more block, with its compressed and original sizes.
  void add_block(std::uint64_t compressed_size, std::uint64_t original_size);
};

/// Layout + occupancy tracker.
class MemoryLayout {
 public:
  /// `decompressed_capacity` bounds the decompressed area (the §2 budget);
  /// pass kUnbounded for the paper's default unrestricted mode.
  static constexpr std::uint64_t kUnbounded = UINT64_MAX;

  MemoryLayout(const ImageFootprint& image,
               std::uint64_t decompressed_capacity,
               FitPolicy fit = FitPolicy::kFirstFit);

  /// Fixed size of the compressed code area (sum of slots, 4-byte aligned
  /// each) plus the block index.
  [[nodiscard]] std::uint64_t compressed_area_bytes() const {
    return compressed_area_bytes_;
  }

  /// Original (uncompressed) image size.
  [[nodiscard]] std::uint64_t original_image_bytes() const {
    return original_image_bytes_;
  }

  /// Allocate room for a decompressed copy of a block of `size` bytes;
  /// nullopt if the area is full (caller evicts and retries). `now`
  /// timestamps the occupancy sample.
  [[nodiscard]] std::optional<std::uint64_t> place_decompressed(
      std::uint64_t size, std::uint64_t now);

  /// Release the decompressed copy previously placed at `address`.
  void drop_decompressed(std::uint64_t address, std::uint64_t now);

  /// Live bytes in the decompressed area.
  [[nodiscard]] std::uint64_t decompressed_bytes() const {
    return allocator_.used_bytes();
  }

  /// Total live occupancy: compressed area + index + decompressed copies.
  [[nodiscard]] std::uint64_t occupancy_bytes() const;

  [[nodiscard]] const FreeListAllocator& allocator() const {
    return allocator_;
  }

  /// Peak total occupancy observed.
  [[nodiscard]] std::uint64_t peak_occupancy_bytes() const {
    return peak_occupancy_;
  }
  /// Time-weighted average occupancy up to `now`.
  [[nodiscard]] double average_occupancy_bytes(std::uint64_t now) const {
    return occupancy_series_.average(now);
  }

 private:
  void sample(std::uint64_t now);

  std::uint64_t compressed_area_bytes_;
  std::uint64_t original_image_bytes_;
  FreeListAllocator allocator_;
  std::uint64_t peak_occupancy_ = 0;
  apcc::TimeWeightedAverage occupancy_series_;
};

}  // namespace apcc::memory
