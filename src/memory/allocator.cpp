#include "memory/allocator.hpp"

namespace apcc::memory {

namespace {
std::uint64_t align_up(std::uint64_t v, std::uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}
}  // namespace

FreeListAllocator::FreeListAllocator(std::uint64_t capacity, FitPolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity_ > 0) {
    free_runs_[0] = capacity_;
  }
}

void FreeListAllocator::put(Runs& runs, std::uint64_t address,
                            std::uint64_t size) {
  if (spare_nodes_.empty()) {
    runs.emplace(address, size);
    return;
  }
  Runs::node_type node = std::move(spare_nodes_.back());
  spare_nodes_.pop_back();
  node.key() = address;
  node.mapped() = size;
  runs.insert(std::move(node));
}

void FreeListAllocator::drop(Runs& runs, Runs::iterator it) {
  spare_nodes_.push_back(runs.extract(it));
}

std::optional<std::uint64_t> FreeListAllocator::allocate(std::uint64_t size) {
  APCC_CHECK(size > 0, "cannot allocate zero bytes");
  const std::uint64_t need = align_up(size, kAlignment);

  auto chosen = free_runs_.end();
  if (policy_ == FitPolicy::kFirstFit) {
    for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
      if (it->second >= need) {
        chosen = it;
        break;
      }
    }
  } else {
    std::uint64_t best_size = UINT64_MAX;
    for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
      if (it->second >= need && it->second < best_size) {
        best_size = it->second;
        chosen = it;
      }
    }
  }
  if (chosen == free_runs_.end()) {
    ++failed_allocations_;
    return std::nullopt;
  }

  const std::uint64_t address = chosen->first;
  const std::uint64_t run_size = chosen->second;
  drop(free_runs_, chosen);
  if (run_size > need) {
    put(free_runs_, address + need, run_size - need);
  }
  put(allocations_, address, need);
  used_ += need;
  ++total_allocations_;
  return address;
}

void FreeListAllocator::release(std::uint64_t address) {
  const auto it = allocations_.find(address);
  APCC_CHECK(it != allocations_.end(), "release of unknown address");
  std::uint64_t start = address;
  std::uint64_t size = it->second;
  drop(allocations_, it);
  used_ -= size;

  // Coalesce with the following free run.
  const auto next = free_runs_.find(start + size);
  if (next != free_runs_.end()) {
    size += next->second;
    drop(free_runs_, next);
  }
  // Coalesce with the preceding free run.
  if (!free_runs_.empty()) {
    auto prev = free_runs_.lower_bound(start);
    if (prev != free_runs_.begin()) {
      --prev;
      if (prev->first + prev->second == start) {
        start = prev->first;
        size += prev->second;
        drop(free_runs_, prev);
      }
    }
  }
  put(free_runs_, start, size);
}

std::uint64_t FreeListAllocator::allocation_size(std::uint64_t address) const {
  const auto it = allocations_.find(address);
  APCC_CHECK(it != allocations_.end(), "unknown allocation address");
  return it->second;
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
