// serving::ArtifactSlot -- one cached artifact's life cycle: the
// claim-build / wait handshake, the borrow pins, and the eviction-ledger
// entry. Both of the Service's artifact kinds live in this one slot type.
//
// The paper's runtime moves every block between its compressed and
// decompressed form through one mechanism: decompress it when it is
// needed, keep it while it is in use, evict it under a byte budget once
// it is not. The Service's artifact cache applies the same discipline to
// the compressed BlockImage of a (workload, codec) and the materialized
// FrontierCache of a (workload, predecompress_k):
//
//   idle --claim--> building --publish--> ready --evict--> idle
//                      |                                    ^
//                      +------ throw or cancel: roll back ---+
//
//  * The first caller that finds the slot idle claims it and runs the
//    build on its own (pool) thread, off the slot lock, so cells over
//    other keys keep simulating. Callers that find it building wait.
//    Every caller that finds it ready pins it and borrows the artifact,
//    which is immutable from then on: engines read it with no locking.
//  * A build that throws, or whose job is cancelled, rolls the claim
//    back to idle and marks the slot failed. Waiters wake and re-claim
//    instead of deadlocking, and the next claim counts as a rebuild.
//  * A pin lasts until the borrowing cell retires (Service::CellLease).
//    evict() takes only a ready, unpinned slot; the next claim rebuilds
//    the artifact bit-identically (an ordinary miss).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>

#include "runtime/block_image.hpp"
#include "runtime/frontier_cache.hpp"
#include "sweep/pool.hpp"

namespace apcc::serving {

/// A cached artifact: a compressed image or materialized frontier
/// geometry. Null while its slot is idle or building.
using Artifact = std::variant<std::unique_ptr<const runtime::BlockImage>,
                              std::unique_ptr<const runtime::FrontierCache>>;

class ArtifactSlot {
 public:
  /// Thrown by acquire() when the caller's job is cancelled.
  struct Cancelled {};

  /// What one acquire() call did; set before it returns or throws.
  struct Claim {
    bool claimed = false;  // this call claimed the build: a miss
    bool rebuild = false;  // ...and the slot's last build had failed
  };

  /// The slot's entry in the eviction ledger. Guarded by the owner's
  /// lock (Service::mutex_), not by the slot's own.
  struct Ledger {
    std::uint64_t bytes = 0;         // resident bytes; 0 = not resident
    std::uint64_t rebuild_cost = 0;  // estimate at publish (cache.hpp)
    std::uint64_t last_use = 0;      // newest admitted job needing it
  };

  ArtifactSlot() = default;
  ArtifactSlot(const ArtifactSlot&) = delete;
  ArtifactSlot& operator=(const ArtifactSlot&) = delete;

  /// Claim-build or wait, then pin and return the ready artifact.
  ///
  /// `token` (may be null) is checked before every claim attempt and
  /// again at the start of the build; a cancelled job throws Cancelled,
  /// and a claim it held rolls back as failed. `build` runs on this
  /// thread, off the slot lock, only when this call claims the slot; if
  /// it throws, the claim rolls back and the exception propagates. The
  /// ready check (or the builder's own publish) and the pin happen in
  /// one lock hold, so evict() can never slip between them. The caller
  /// balances the pin with unpin() when its cell retires.
  const Artifact& acquire(const sweep::CancelToken* token,
                          const std::function<Artifact()>& build,
                          Claim& claim);

  /// Release one acquire() pin. Takes only the slot's own lock.
  void unpin();

  /// Drop a ready, unpinned artifact and return to idle. Returns false,
  /// doing nothing, when the slot is not ready or is pinned.
  bool evict();

  /// True once a build has published and no eviction has dropped it.
  [[nodiscard]] bool ready() const;

  /// Live borrows: cells holding the artifact through acquire().
  [[nodiscard]] std::size_t pins() const;

  /// The thread that built the resident artifact; meaningful once
  /// ready(). Tests pin that this is a pool worker.
  [[nodiscard]] std::thread::id builder() const;

  Ledger ledger;

 private:
  enum class State : std::uint8_t { kIdle, kBuilding, kReady };

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  State state_ = State::kIdle;
  bool failed_before_ = false;
  std::size_t pins_ = 0;
  std::thread::id builder_{};
  Artifact artifact_;
};

}  // namespace apcc::serving
