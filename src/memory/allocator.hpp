// Free-list allocator for the decompressed-block area.
//
// The paper's implementation (§5) keeps compressed originals at fixed
// locations and places decompressed copies in a separate region precisely
// to avoid fragmenting the main image. This allocator manages that region
// and *measures* the fragmentation the design avoids elsewhere: external
// fragmentation is reported so the E-series ablations can quantify it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/assert.hpp"
#include "support/names.hpp"

namespace apcc::memory {

/// Placement policy for free-list search.
enum class FitPolicy : std::uint8_t { kFirstFit, kBestFit };

inline constexpr NamedValue<FitPolicy> kFitNames[] = {
    {FitPolicy::kFirstFit, "first-fit"},
    {FitPolicy::kBestFit, "best-fit"},
};

/// Snapshot of allocator health.
struct AllocatorStats {
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;
  std::uint64_t free = 0;
  std::uint64_t largest_free_run = 0;
  std::uint64_t live_allocations = 0;
  std::uint64_t total_allocations = 0;
  std::uint64_t failed_allocations = 0;

  /// 0 = free space is one contiguous run; 1 = maximally shattered.
  [[nodiscard]] double external_fragmentation() const {
    if (free == 0) return 0.0;
    return 1.0 - static_cast<double>(largest_free_run) /
                     static_cast<double>(free);
  }
};

/// Byte-granular allocator over [0, capacity) with 4-byte alignment.
/// Addresses are offsets within the managed region. It keeps one flat
/// vector of the live allocations, sorted by address; the free runs are
/// the gaps between them and the region's two ends, so they are never
/// stored and never need coalescing. The area holds only the few
/// resident copies, so placement is one scan of the gaps and release is
/// one binary search and one erase. Once the vector has grown to its
/// peak size, allocate() and release() do no heap allocation.
class FreeListAllocator {
 public:
  explicit FreeListAllocator(std::uint64_t capacity,
                             FitPolicy policy = FitPolicy::kFirstFit);

  /// Allocate `size` bytes; nullopt when no free run fits. First fit
  /// takes the lowest fitting run; best fit the smallest, ties to the
  /// lowest address.
  [[nodiscard]] std::optional<std::uint64_t> allocate(std::uint64_t size);

  /// Release an allocation previously returned by allocate().
  void release(std::uint64_t address);

  /// Size of the allocation at `address`.
  [[nodiscard]] std::uint64_t allocation_size(std::uint64_t address) const;

  [[nodiscard]] AllocatorStats stats() const;
  [[nodiscard]] std::uint64_t used_bytes() const { return used_; }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  /// Internal consistency check (live allocations sorted, disjoint,
  /// inside the region, and summing to the used bytes).
  void validate() const;

 private:
  static constexpr std::uint64_t kAlignment = 4;

  struct Allocation {
    std::uint64_t address;
    std::uint64_t size;
  };

  std::uint64_t capacity_;
  FitPolicy policy_;
  std::vector<Allocation> live_;  // sorted by address, disjoint
  std::uint64_t used_ = 0;
  std::uint64_t total_allocations_ = 0;
  std::uint64_t failed_allocations_ = 0;
};

}  // namespace apcc::memory
