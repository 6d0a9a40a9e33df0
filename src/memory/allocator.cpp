#include "memory/allocator.hpp"

#include <algorithm>

namespace apcc::memory {

namespace {
std::uint64_t align_up(std::uint64_t v, std::uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}
}  // namespace

FreeListAllocator::FreeListAllocator(std::uint64_t capacity, FitPolicy policy)
    : capacity_(capacity), policy_(policy) {}

std::optional<std::uint64_t> FreeListAllocator::allocate(std::uint64_t size) {
  APCC_CHECK(size > 0, "cannot allocate zero bytes");
  const std::uint64_t need = align_up(size, kAlignment);

  // Gap i runs from the end of live allocation i - 1 (or the region's
  // start) to the start of allocation i (or the region's end). A fitting
  // gap is never empty, so chosen_size 0 means none fits.
  std::size_t chosen = 0;
  std::uint64_t address = 0;
  std::uint64_t chosen_size = 0;
  std::uint64_t start = 0;
  for (std::size_t i = 0; i <= live_.size(); ++i) {
    const std::uint64_t end = i < live_.size() ? live_[i].address : capacity_;
    const std::uint64_t gap = end - start;
    if (gap >= need && (chosen_size == 0 || gap < chosen_size)) {
      chosen = i;
      address = start;
      chosen_size = gap;
      if (policy_ == FitPolicy::kFirstFit) break;
    }
    if (i < live_.size()) start = end + live_[i].size;
  }
  if (chosen_size == 0) {
    ++failed_allocations_;
    return std::nullopt;
  }
  live_.insert(live_.begin() + static_cast<std::ptrdiff_t>(chosen),
               Allocation{address, need});
  used_ += need;
  ++total_allocations_;
  return address;
}

void FreeListAllocator::release(std::uint64_t address) {
  const auto it =
      std::ranges::lower_bound(live_, address, {}, &Allocation::address);
  APCC_CHECK(it != live_.end() && it->address == address,
             "release of unknown address");
  used_ -= it->size;
  live_.erase(it);
}

std::uint64_t FreeListAllocator::allocation_size(std::uint64_t address) const {
  const auto it =
      std::ranges::lower_bound(live_, address, {}, &Allocation::address);
  APCC_CHECK(it != live_.end() && it->address == address,
             "unknown allocation address");
  return it->size;
}

AllocatorStats FreeListAllocator::stats() const {
  AllocatorStats s;
  s.capacity = capacity_;
  s.used = used_;
  s.free = capacity_ - used_;
  std::uint64_t start = 0;
  for (const auto& [address, size] : live_) {
    s.largest_free_run = std::max(s.largest_free_run, address - start);
    start = address + size;
  }
  s.largest_free_run = std::max(s.largest_free_run, capacity_ - start);
  s.live_allocations = live_.size();
  s.total_allocations = total_allocations_;
  s.failed_allocations = failed_allocations_;
  return s;
}

void FreeListAllocator::validate() const {
  std::uint64_t used_total = 0;
  std::uint64_t prev_end = 0;
  for (const auto& [address, size] : live_) {
    APCC_ASSERT(size > 0 && size % kAlignment == 0, "unaligned allocation");
    APCC_ASSERT(address >= prev_end, "allocations overlap or out of order");
    APCC_ASSERT(address + size <= capacity_, "allocation outside region");
    prev_end = address + size;
    used_total += size;
  }
  APCC_ASSERT(used_total == used_, "used-byte accounting drift");
}

}  // namespace apcc::memory
