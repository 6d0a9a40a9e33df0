// Memoized k-edge frontiers for the decompression planner.
//
// The planner's candidate set at a block exit -- every block within k
// edges of the exit, with its minimum edge distance -- is static given
// (CFG, predecompress_k). The seed re-ran a bounded BFS per frontier
// block per exit; this cache computes each block's candidate list once
// and hands out a span the planner filters by the *dynamic* part of the
// query, the current BlockForm. Entries are pre-sorted by (distance, id),
// the planner's request order, so the filter preserves ordering for free.
//
// Storage is flat: one cfg::FrontierEntry array holds every computed
// list back to back. A lazy cache appends each list the first time it is
// requested and records its bounds per block; materialize() computes
// every list in block order into CSR form (compressed sparse row: the
// array plus a (B+1)-entry offset table, list b at [offsets[b],
// offsets[b+1])) and drops the lazy bookkeeping. resident_bytes() is the
// exact heap size of these arrays.
//
// Ownership and thread-safety: a lazily-filled cache is not thread-safe
// and is owned by one DecompressionPlanner / StaticPredictor inside one
// engine cell, stepped on one thread. But the geometry is keyed on
// (CFG, k) alone, so the Service's artifact cache and a BatchEngine
// whose cells share a k build one cache per (workload, k), call
// materialize() -- which freezes the cache -- and hand a
// `const FrontierCache*` to every cell sharing that key. A materialized
// cache is immutable, so concurrent candidates() calls are pure reads;
// the borrowed lists are the exact values an owned cache would compute,
// which keeps borrowed and owned runs bit-identical (pinned by
// tests/runtime and the engine equivalence grid).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "cfg/analysis.hpp"

namespace apcc::runtime {

class FrontierCache {
 public:
  FrontierCache(const cfg::Cfg& cfg, unsigned k);

  /// Candidate list for the exit of `block`: every block within k edges,
  /// with its distance, sorted by (distance, id). Computed on first use,
  /// O(1) afterwards.
  ///
  /// On a materialized cache the span stays valid until reset(). On a
  /// lazy cache, computing a list appends to the shared entry array and
  /// may move it, so a span is valid only until the next candidates()
  /// call on the same cache (or reset()).
  [[nodiscard]] std::span<const cfg::FrontierEntry> candidates(
      cfg::BlockId block) const;

  /// Compute every block's candidate list into CSR form. After this the
  /// cache is immutable: candidates() never writes, so the cache may be
  /// shared read-only across threads (the contract EngineConfig::
  /// shared_frontiers relies on).
  void materialize();

  /// Drop every computed candidate list and return to the lazy, empty
  /// state (artifact eviction), releasing the arrays' storage. A later
  /// materialize() recomputes lists bit-identical to the first build --
  /// the geometry is a pure function of (CFG, k) -- which is what keeps
  /// eviction invisible to job outcomes. Only SharedFrontier::evict()
  /// calls this, and only while no reader holds a borrow.
  void reset();

  [[nodiscard]] bool materialized() const { return materialized_; }

  [[nodiscard]] unsigned k() const { return k_; }

  /// Exact heap size of the cache's arrays: the entry array and offset
  /// table, plus a lazy cache's per-block bounds and BFS scratch (empty
  /// once materialized). A pure read on a materialized cache, which is
  /// what serving::Service budgets against.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  /// The CFG this geometry was computed on; borrowers check identity.
  [[nodiscard]] const cfg::Cfg& cfg() const { return cfg_; }

 private:
  /// A lazy cache's bounds for one block's list in entries_; begin is
  /// kUncomputed until the list is computed.
  struct Bounds {
    static constexpr std::uint32_t kUncomputed = UINT32_MAX;
    std::uint32_t begin = kUncomputed;
    std::uint32_t end = 0;
  };

  const cfg::Cfg& cfg_;
  unsigned k_;
  bool materialized_ = false;
  // Every computed list, back to back: in block order once materialized
  // (indexed by offsets_), in first-request order while lazy (indexed
  // by lazy_).
  mutable std::vector<cfg::FrontierEntry> entries_;
  std::vector<std::uint32_t> offsets_;  // materialized: block_count() + 1
  // Lazy state, sized on the first candidates() call and released by
  // materialize(): per-block bounds, the bounded BFS's all-UINT_MAX
  // distance scratch, and the list frontier_distances() writes.
  mutable std::vector<Bounds> lazy_;
  mutable std::vector<unsigned> dist_scratch_;
  mutable std::vector<cfg::FrontierEntry> list_scratch_;
};

/// The geometry cache key: frontier candidate lists depend on the CFG
/// (by identity -- registered workloads hold their Cfg at a stable
/// address) and predecompress_k, nothing else. This is the key
/// serving::Service deduplicates geometry artifacts under.
struct FrontierKey {
  const cfg::Cfg* cfg = nullptr;
  unsigned k = 0;

  [[nodiscard]] bool operator==(const FrontierKey&) const = default;
  /// Ordered so the key works in std::map (deterministic iteration).
  [[nodiscard]] bool operator<(const FrontierKey& other) const {
    return cfg != other.cfg ? cfg < other.cfg : k < other.k;
  }
};

/// Async materialize handshake around one (CFG, k) FrontierCache.
///
/// Pool workers that need a key's geometry race on acquire(): the first
/// caller claims the build and runs materialize() on its own thread
/// (off the handshake lock, so cells over other keys keep simulating);
/// concurrent callers block until the builder flips the slot to ready.
/// Afterwards every acquire() is a lock-free-in-spirit read of an
/// immutable, materialized cache. This is how geometry materialization
/// moves off the submitting thread and overlaps with simulation: the
/// submitter only creates empty slots, the pool builds on demand.
class SharedFrontier {
 public:
  SharedFrontier(const cfg::Cfg& cfg, unsigned k) : cache_(cfg, k) {}

  SharedFrontier(const SharedFrontier&) = delete;
  SharedFrontier& operator=(const SharedFrontier&) = delete;

  /// Claim-build or wait, pin, then return the materialized cache. The
  /// mutex acquire/release pair orders the builder's writes before every
  /// reader's first borrow, so the returned cache is safe for concurrent
  /// candidates() reads. When `built_this_call` is non-null it is set to
  /// whether *this* call ran the build (artifact-cache accounting). If a
  /// build throws, the claim is rolled back and waiters wake to re-claim
  /// -- every caller either returns a ready cache or propagates a build
  /// failure; none deadlocks.
  ///
  /// The borrow refcount is incremented atomically with the acquire
  /// (ready-check and pin under one lock hold, so an evictor can never
  /// slip between them); the caller balances it with unpin() when its
  /// cell retires.
  [[nodiscard]] const FrontierCache* acquire(bool* built_this_call = nullptr);

  /// Release one acquire() borrow.
  void unpin();

  /// Live borrows (cells holding the cache via acquire()).
  [[nodiscard]] std::size_t pins() const;

  /// Evict the materialized geometry: a ready, unpinned slot drops its
  /// candidate lists and returns to idle, so the next acquire()
  /// re-claims and rebuilds bit-identically. Returns false -- and does
  /// nothing -- when the slot is not ready (nothing resident to evict)
  /// or pinned (an in-flight cell still borrows it).
  bool evict();

  /// True once a builder has finished (never blocks).
  [[nodiscard]] bool ready() const;

  /// The thread that ran materialize(); meaningful once ready(). Tests
  /// pin that this is a pool worker, not the submitting thread.
  [[nodiscard]] std::thread::id builder() const;

 private:
  enum class State : std::uint8_t { kIdle, kBuilding, kReady };

  FrontierCache cache_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  State state_ = State::kIdle;
  /// Borrow refcount (guarded by mutex_): cells pin on acquire and
  /// unpin at retirement; evict() refuses while nonzero, which is the
  /// whole pinned-artifacts-survive guarantee.
  std::size_t pins_ = 0;
  std::thread::id builder_{};
};

}  // namespace apcc::runtime
