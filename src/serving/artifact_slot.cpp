#include "serving/artifact_slot.hpp"

#include "support/assert.hpp"

namespace apcc::serving {

const Artifact& ArtifactSlot::acquire(const sweep::CancelToken* token,
                                      const std::function<Artifact()>& build,
                                      Claim& claim) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // A cancelled job stops resolving artifacts: before its first claim,
    // and before every re-claim after a rolled-back build.
    if (token && token->cancelled()) throw Cancelled{};
    if (state_ == State::kReady) {
      ++pins_;
      return artifact_;
    }
    if (state_ == State::kIdle) {
      claim = Claim{true, failed_before_};
      state_ = State::kBuilding;
      builder_ = std::this_thread::get_id();
      lock.unlock();
      // No one reads artifact_ until state_ flips to kReady below, and
      // that flip happens-before every later borrow through the mutex,
      // so the off-lock build is safe.
      Artifact built;
      try {
        if (token && token->cancelled()) throw Cancelled{};
        built = build();
      } catch (...) {
        // Roll the claim back and wake the waiters, so they re-claim
        // (and meet the failure themselves, or build afresh after a
        // cancelled builder) instead of waiting for a flip that never
        // comes.
        lock.lock();
        state_ = State::kIdle;
        failed_before_ = true;
        ready_cv_.notify_all();
        throw;
      }
      lock.lock();
      artifact_ = std::move(built);
      state_ = State::kReady;
      failed_before_ = false;
      // The builder pins what it built before anyone can see the flip,
      // so the publish-time eviction pass can never take it from under
      // the cell that built it.
      ++pins_;
      ready_cv_.notify_all();
      return artifact_;
    }
    ready_cv_.wait(lock, [&] { return state_ != State::kBuilding; });
  }
}

void ArtifactSlot::unpin() {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(pins_ > 0, "ArtifactSlot::unpin() without a pin");
  --pins_;
}

bool ArtifactSlot::evict() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kReady || pins_ != 0) return false;
  artifact_ = Artifact();
  state_ = State::kIdle;
  builder_ = {};
  return true;
}

bool ArtifactSlot::ready() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_ == State::kReady;
}

std::size_t ArtifactSlot::pins() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pins_;
}

std::thread::id ArtifactSlot::builder() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return builder_;
}

}  // namespace apcc::serving
