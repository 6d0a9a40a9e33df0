#include "runtime/frontier_cache.hpp"

#include <climits>

#include "support/assert.hpp"

namespace apcc::runtime {

FrontierCache::FrontierCache(const cfg::Cfg& cfg, unsigned k)
    : cfg_(cfg),
      k_(k),
      entries_(cfg.block_count()),
      computed_(cfg.block_count(), false) {}

std::span<const cfg::FrontierEntry> FrontierCache::candidates(
    cfg::BlockId block) const {
  APCC_CHECK(block < computed_.size(), "block id out of range");
  if (!computed_[block]) {
    if (dist_scratch_.empty()) dist_scratch_.assign(computed_.size(), UINT_MAX);
    cfg::frontier_distances(cfg_, block, k_, dist_scratch_, entries_[block]);
    computed_[block] = true;
  }
  return entries_[block];
}

void FrontierCache::materialize() {
  for (cfg::BlockId b = 0; b < computed_.size(); ++b) {
    (void)candidates(b);
  }
  dist_scratch_ = {};  // a frozen cache never computes again
  materialized_ = true;
}

void FrontierCache::reset() {
  // assign (not clear) releases the per-block vectors' heap storage --
  // the point of evicting -- while keeping the per-CFG shape.
  entries_.assign(cfg_.block_count(), {});
  computed_.assign(cfg_.block_count(), false);
  dist_scratch_ = {};
  materialized_ = false;
}

std::uint64_t FrontierCache::approx_bytes() const {
  std::uint64_t bytes = 0;
  for (cfg::BlockId b = 0; b < computed_.size(); ++b) {
    if (!computed_[b]) continue;
    bytes += entries_[b].size() * sizeof(cfg::FrontierEntry) +
             sizeof(entries_[b]);
  }
  return bytes;
}

const FrontierCache* SharedFrontier::acquire(bool* built_this_call) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (state_ == State::kReady) {
      ++pins_;
      if (built_this_call != nullptr) *built_this_call = false;
      return &cache_;
    }
    if (state_ == State::kIdle) {
      state_ = State::kBuilding;
      builder_ = std::this_thread::get_id();
      lock.unlock();
      // The expensive part (one bounded BFS per block) runs off the
      // lock: only callers wanting *this* key wait, everyone else keeps
      // going. No one reads cache_ until state_ flips to kReady below,
      // and that flip happens-before every waiter's (and later
      // acquirer's) read via the mutex, so the off-lock writes are safe.
      try {
        cache_.materialize();
      } catch (...) {
        // Roll the claim back and wake waiters so they re-claim (and
        // surface the build failure themselves) instead of blocking on
        // a ready flip that will never come.
        lock.lock();
        state_ = State::kIdle;
        ready_cv_.notify_all();
        throw;
      }
      lock.lock();
      state_ = State::kReady;
      // The builder pins itself before anyone can observe the ready
      // flip, so a publish-time eviction pass can never reclaim an
      // artifact out from under the cell that just built it.
      ++pins_;
      ready_cv_.notify_all();
      if (built_this_call != nullptr) *built_this_call = true;
      return &cache_;
    }
    ready_cv_.wait(lock, [&] { return state_ != State::kBuilding; });
  }
}

void SharedFrontier::unpin() {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(pins_ > 0, "SharedFrontier::unpin() without a pin");
  --pins_;
}

std::size_t SharedFrontier::pins() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pins_;
}

bool SharedFrontier::evict() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kReady || pins_ != 0) return false;
  cache_.reset();
  state_ = State::kIdle;
  builder_ = {};
  return true;
}

bool SharedFrontier::ready() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_ == State::kReady;
}

std::thread::id SharedFrontier::builder() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return builder_;
}

}  // namespace apcc::runtime
