#include "memory/allocator.hpp"

#include <algorithm>
#include <iterator>

namespace apcc::memory {

namespace {
std::uint64_t align_up(std::uint64_t v, std::uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}
}  // namespace

FreeListAllocator::FreeListAllocator(std::uint64_t capacity, FitPolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity_ > 0) {
    free_runs_.push_back(Run{0, capacity_});
  }
}

std::optional<std::uint64_t> FreeListAllocator::allocate(std::uint64_t size) {
  APCC_CHECK(size > 0, "cannot allocate zero bytes");
  const std::uint64_t need = align_up(size, kAlignment);

  auto chosen = free_runs_.end();
  if (policy_ == FitPolicy::kFirstFit) {
    chosen = std::find_if(free_runs_.begin(), free_runs_.end(),
                          [need](const Run& run) { return run.size >= need; });
  } else {
    std::uint64_t best_size = UINT64_MAX;
    for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
      if (it->size >= need && it->size < best_size) {
        best_size = it->size;
        chosen = it;
      }
    }
  }
  if (chosen == free_runs_.end()) {
    ++failed_allocations_;
    return std::nullopt;
  }

  const std::uint64_t address = chosen->address;
  if (chosen->size > need) {
    chosen->address += need;  // the run's tail stays free, in place
    chosen->size -= need;
  } else {
    free_runs_.erase(chosen);
  }
  allocations_.insert(
      std::ranges::lower_bound(allocations_, address, {}, &Run::address),
      Run{address, need});
  used_ += need;
  ++total_allocations_;
  return address;
}

void FreeListAllocator::release(std::uint64_t address) {
  const auto it =
      std::ranges::lower_bound(allocations_, address, {}, &Run::address);
  APCC_CHECK(it != allocations_.end() && it->address == address,
             "release of unknown address");
  const std::uint64_t size = it->size;
  allocations_.erase(it);
  used_ -= size;

  // The free runs either side of [address, address + size), coalesced
  // with it in place.
  const auto next =
      std::ranges::lower_bound(free_runs_, address, {}, &Run::address);
  const bool join_next =
      next != free_runs_.end() && next->address == address + size;
  const bool join_prev =
      next != free_runs_.begin() &&
      std::prev(next)->address + std::prev(next)->size == address;
  if (join_prev) {
    std::prev(next)->size += size + (join_next ? next->size : 0);
    if (join_next) free_runs_.erase(next);
  } else if (join_next) {
    next->address = address;
    next->size += size;
  } else {
    free_runs_.insert(next, Run{address, size});
  }
}

std::uint64_t FreeListAllocator::allocation_size(std::uint64_t address) const {
  const auto it =
      std::ranges::lower_bound(allocations_, address, {}, &Run::address);
  APCC_CHECK(it != allocations_.end() && it->address == address,
             "unknown allocation address");
  return it->size;
}

AllocatorStats FreeListAllocator::stats() const {
  AllocatorStats s;
  s.capacity = capacity_;
  s.used = used_;
  s.free = capacity_ - used_;
  for (const auto& [addr, size] : free_runs_) {
    s.largest_free_run = std::max(s.largest_free_run, size);
  }
  s.live_allocations = allocations_.size();
  s.total_allocations = total_allocations_;
  s.failed_allocations = failed_allocations_;
  return s;
}

void FreeListAllocator::validate() const {
  std::uint64_t free_total = 0;
  std::uint64_t prev_end = 0;
  bool first = true;
  for (const auto& [addr, size] : free_runs_) {
    APCC_ASSERT(size > 0, "empty free run");
    APCC_ASSERT(addr + size <= capacity_, "free run outside region");
    if (!first) {
      APCC_ASSERT(addr > prev_end, "free runs not coalesced/disjoint");
    }
    prev_end = addr + size;
    first = false;
    free_total += size;
  }
  std::uint64_t used_total = 0;
  for (const auto& [addr, size] : allocations_) {
    APCC_ASSERT(addr + size <= capacity_, "allocation outside region");
    used_total += size;
  }
  APCC_ASSERT(used_total == used_, "used-byte accounting drift");
  APCC_ASSERT(free_total + used_total == capacity_,
              "free+used does not cover the region");
}

}  // namespace apcc::memory
