// Free-list allocator tests: placement, alignment, coalescing,
// fragmentation metrics, and a randomized invariant property.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "memory/allocator.hpp"
#include "support/rng.hpp"

namespace apcc::memory {
namespace {

TEST(Allocator, FirstAllocationAtZero) {
  FreeListAllocator a(1024);
  EXPECT_EQ(a.allocate(100).value(), 0u);
}

TEST(Allocator, SizesAlignedToFour) {
  FreeListAllocator a(1024);
  (void)a.allocate(5);
  EXPECT_EQ(a.used_bytes(), 8u);
  EXPECT_EQ(a.allocation_size(0), 8u);
}

TEST(Allocator, SequentialPlacement) {
  FreeListAllocator a(1024);
  EXPECT_EQ(a.allocate(16).value(), 0u);
  EXPECT_EQ(a.allocate(16).value(), 16u);
  EXPECT_EQ(a.allocate(16).value(), 32u);
}

TEST(Allocator, ExhaustionReturnsNullopt) {
  FreeListAllocator a(64);
  EXPECT_TRUE(a.allocate(64).has_value());
  EXPECT_FALSE(a.allocate(4).has_value());
  EXPECT_EQ(a.stats().failed_allocations, 1u);
}

TEST(Allocator, ReleaseMakesRoom) {
  FreeListAllocator a(64);
  const auto addr = a.allocate(64).value();
  a.release(addr);
  EXPECT_TRUE(a.allocate(64).has_value());
}

TEST(Allocator, ReleaseUnknownThrows) {
  FreeListAllocator a(64);
  EXPECT_THROW(a.release(12), apcc::CheckError);
  // A released address is unknown again: releasing it twice throws.
  const auto x = a.allocate(16).value();
  (void)a.allocate(16);
  a.release(x);
  EXPECT_THROW(a.release(x), apcc::CheckError);
  a.validate();
  EXPECT_EQ(a.stats().live_allocations, 1u);
}

TEST(Allocator, ZeroCapacityFailsEveryRequest) {
  for (const FitPolicy policy : {FitPolicy::kFirstFit, FitPolicy::kBestFit}) {
    FreeListAllocator a(0, policy);
    for (const std::uint64_t size : {1u, 4u, 64u}) {
      EXPECT_FALSE(a.allocate(size).has_value()) << size;
    }
    const AllocatorStats s = a.stats();
    EXPECT_EQ(s.free, 0u);
    EXPECT_EQ(s.largest_free_run, 0u);
    EXPECT_EQ(s.failed_allocations, 3u);
    EXPECT_EQ(s.total_allocations, 0u);
    a.validate();
  }
}

TEST(Allocator, ZeroSizeRejected) {
  FreeListAllocator a(64);
  EXPECT_THROW((void)a.allocate(0), apcc::CheckError);
}

TEST(Allocator, CoalescingWithNextAndPrevious) {
  FreeListAllocator a(96);
  const auto x = a.allocate(32).value();
  const auto y = a.allocate(32).value();
  const auto z = a.allocate(32).value();
  a.release(x);
  a.release(z);
  a.release(y);  // merges with both neighbours
  a.validate();
  // One fully coalesced free run: a full-size allocation must succeed.
  EXPECT_TRUE(a.allocate(96).has_value());
}

TEST(Allocator, FirstFitChoosesLowestAddress) {
  FreeListAllocator a(256, FitPolicy::kFirstFit);
  const auto x = a.allocate(64).value();
  (void)a.allocate(32);
  const auto z = a.allocate(64).value();
  (void)a.allocate(32);
  a.release(x);
  a.release(z);  // two holes: 64 at low address, 64 higher up
  EXPECT_EQ(a.allocate(16).value(), x);
}

TEST(Allocator, BestFitChoosesTightestHole) {
  FreeListAllocator a(256, FitPolicy::kBestFit);
  const auto x = a.allocate(64).value();
  (void)a.allocate(16);
  const auto z = a.allocate(32).value();
  (void)a.allocate(16);
  a.release(x);  // 64-byte hole at low address
  a.release(z);  // 32-byte hole higher up
  // Best fit for 32 bytes is the 32-byte hole even though it is higher.
  EXPECT_EQ(a.allocate(32).value(), z);
}

TEST(Allocator, FragmentationMetric) {
  FreeListAllocator a(128);
  const auto x = a.allocate(32).value();
  (void)a.allocate(32);
  const auto z = a.allocate(32).value();
  (void)a.allocate(32);
  a.release(x);
  a.release(z);
  const auto s = a.stats();
  EXPECT_EQ(s.free, 64u);
  EXPECT_EQ(s.largest_free_run, 32u);
  EXPECT_NEAR(s.external_fragmentation(), 0.5, 1e-9);
}

TEST(Allocator, NoFreeSpaceMeansZeroFragmentation) {
  FreeListAllocator a(64);
  (void)a.allocate(64);
  EXPECT_DOUBLE_EQ(a.stats().external_fragmentation(), 0.0);
}

TEST(Allocator, StatsTrackCounts) {
  FreeListAllocator a(1024);
  const auto x = a.allocate(10).value();
  (void)a.allocate(20);
  a.release(x);
  const auto s = a.stats();
  EXPECT_EQ(s.total_allocations, 2u);
  EXPECT_EQ(s.live_allocations, 1u);
  EXPECT_EQ(s.capacity, 1024u);
}

TEST(Allocator, FragmentationBlocksLargeAllocation) {
  FreeListAllocator a(128);
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 8; ++i) {
    addrs.push_back(a.allocate(16).value());
  }
  // Free every other allocation: 64 free bytes but max run 16.
  for (std::size_t i = 0; i < addrs.size(); i += 2) {
    a.release(addrs[i]);
  }
  EXPECT_FALSE(a.allocate(32).has_value())
      << "external fragmentation must prevent a 32-byte allocation";
  EXPECT_TRUE(a.allocate(16).has_value());
}

/// Placement oracle over the test's own record of live allocations
/// (address -> requested size): the free gaps between them, and where
/// each fit policy must place the next request.
struct PlacementOracle {
  struct Gap {
    std::uint64_t address;
    std::uint64_t size;
  };

  static std::uint64_t aligned(std::uint64_t size) {
    return (size + 3) / 4 * 4;
  }

  static std::vector<Gap> gaps(
      const std::map<std::uint64_t, std::uint64_t>& live,
      std::uint64_t capacity) {
    std::vector<Gap> out;
    std::uint64_t cursor = 0;
    for (const auto& [addr, size] : live) {
      if (addr > cursor) out.push_back({cursor, addr - cursor});
      cursor = addr + aligned(size);
    }
    if (capacity > cursor) out.push_back({cursor, capacity - cursor});
    return out;
  }

  /// First fit: the lowest fitting gap. Best fit: the smallest fitting
  /// gap, ties to the lowest address.
  static std::optional<std::uint64_t> place(const std::vector<Gap>& free,
                                            std::uint64_t size,
                                            FitPolicy policy) {
    const std::uint64_t need = aligned(size);
    const Gap* chosen = nullptr;
    for (const Gap& gap : free) {
      if (gap.size < need) continue;
      if (policy == FitPolicy::kFirstFit) return gap.address;
      if (chosen == nullptr || gap.size < chosen->size) chosen = &gap;
    }
    if (chosen == nullptr) return std::nullopt;
    return chosen->address;
  }
};

// Property: random alloc/free interleavings preserve all invariants, and
// every placement, failure and stats() snapshot is exactly what the
// placement oracle derives from the live set.
TEST(Allocator, RandomOperationInvariantProperty) {
  constexpr std::uint64_t kCapacity = 4096;
  apcc::Rng rng(4242);
  for (const FitPolicy policy : {FitPolicy::kFirstFit, FitPolicy::kBestFit}) {
    SCOPED_TRACE(policy == FitPolicy::kFirstFit ? "first-fit" : "best-fit");
    FreeListAllocator a(kCapacity, policy);
    std::map<std::uint64_t, std::uint64_t> live;  // addr -> requested size
    std::uint64_t total = 0;
    std::uint64_t failed = 0;
    for (int op = 0; op < 2000; ++op) {
      if (live.empty() || rng.next_bool(0.6)) {
        const std::uint64_t size = 1 + rng.next_below(256);
        const auto expected = PlacementOracle::place(
            PlacementOracle::gaps(live, kCapacity), size, policy);
        const auto addr = a.allocate(size);
        ASSERT_EQ(addr, expected) << "op " << op << ", size " << size;
        if (addr) {
          // New allocation must not overlap any live one.
          const std::uint64_t aligned = (size + 3) / 4 * 4;
          for (const auto& [la, ls] : live) {
            const std::uint64_t lal = (ls + 3) / 4 * 4;
            EXPECT_TRUE(*addr + aligned <= la || la + lal <= *addr)
                << "overlap at " << *addr;
          }
          live[*addr] = size;
          ++total;
        } else {
          ++failed;
        }
      } else {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(live.size())));
        a.release(it->first);
        live.erase(it);
      }
      if (op % 100 == 0) a.validate();

      std::uint64_t used = 0;
      for (const auto& [addr, size] : live) {
        used += PlacementOracle::aligned(size);
      }
      std::uint64_t largest = 0;
      for (const auto& gap : PlacementOracle::gaps(live, kCapacity)) {
        largest = std::max(largest, gap.size);
      }
      const AllocatorStats s = a.stats();
      ASSERT_EQ(s.capacity, kCapacity);
      ASSERT_EQ(s.used, used) << "op " << op;
      ASSERT_EQ(s.free, kCapacity - used) << "op " << op;
      ASSERT_EQ(s.largest_free_run, largest) << "op " << op;
      ASSERT_EQ(s.live_allocations, live.size()) << "op " << op;
      ASSERT_EQ(s.total_allocations, total) << "op " << op;
      ASSERT_EQ(s.failed_allocations, failed) << "op " << op;
    }
    EXPECT_GT(failed, 0u) << "the run should exercise failed placements";
    a.validate();
    // Releasing everything must coalesce back to a single run.
    for (const auto& [addr, size] : live) a.release(addr);
    a.validate();
    const auto s = a.stats();
    EXPECT_EQ(s.used, 0u);
    EXPECT_EQ(s.largest_free_run, 4096u);
  }
}

}  // namespace
}  // namespace apcc::memory
