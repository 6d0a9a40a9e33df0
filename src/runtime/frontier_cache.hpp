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
// (CFG, k) alone, so the Service's artifact cache (one
// serving::ArtifactSlot per (workload, k)) and a BatchEngine whose cells
// share a k build one cache per key, call materialize() -- which freezes
// the cache -- and hand a `const FrontierCache*` to every cell sharing
// that key. A materialized cache is immutable, so concurrent
// candidates() calls are pure reads; the borrowed lists are the exact
// values an owned cache would compute, which keeps borrowed and owned
// runs bit-identical (pinned by tests/runtime and the engine
// equivalence grid).
#pragma once

#include <cstdint>
#include <span>
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
  /// On a materialized cache the span stays valid for the cache's
  /// lifetime. On a lazy cache, computing a list appends to the shared
  /// entry array and may move it, so a span is valid only until the next
  /// candidates() call on the same cache.
  [[nodiscard]] std::span<const cfg::FrontierEntry> candidates(
      cfg::BlockId block) const;

  /// Compute every block's candidate list into CSR form. After this the
  /// cache is immutable: candidates() never writes, so the cache may be
  /// shared read-only across threads (the contract EngineConfig::
  /// shared_frontiers relies on).
  void materialize();

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

}  // namespace apcc::runtime
