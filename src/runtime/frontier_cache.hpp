// Materialized k-edge frontiers for the decompression planner.
//
// The planner's candidate set at a block exit -- every block within k
// edges of the exit, ordered by minimum edge distance -- is static given
// (CFG, predecompress_k). The seed re-ran a bounded BFS per frontier
// block per exit; this cache computes each block's candidate list once
// and hands out a span the planner filters by the *dynamic* part of the
// query, the current BlockForm. Lists are pre-sorted by (distance, id),
// the planner's request order, so the filter preserves ordering for free;
// the distances themselves are dropped, since no reader needs them.
//
// A run plans only at the blocks its trace exits (every entry but the
// last), so an owner that knows the trace builds only those lists:
// materialize(trace). materialize() builds every block's list and so
// serves any trace on the CFG. Both are one build loop.
//
// Storage is flat: the build computes each list, in block order, into
// CSR form (compressed sparse row: one cfg::BlockId array plus a
// (B+1)-entry offset table, list b at [offsets[b], offsets[b+1])). A
// block whose list was not built has the top bit of its offset entry
// set, so a read of it throws CheckError instead of returning an empty
// plan, and costs no table beyond the offsets. Each list costs
// O(frontier), so the build is O(total frontier size).
// resident_bytes() is the exact heap size of the two arrays.
//
// Ownership: whoever runs cells over a (CFG, trace) builds one cache
// per predecompress_k and lends a `const FrontierCache*` to every
// planner at that k -- the Service's artifact cache (one
// serving::ArtifactSlot per (workload, k), over the workload's trace)
// for served cells, sim::BatchEngine for the cells of one run
// otherwise. A materialized cache never changes again, so concurrent
// candidates() calls are pure reads and every borrower sees the same
// lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/analysis.hpp"
#include "cfg/trace.hpp"

namespace apcc::runtime {

class FrontierCache {
 public:
  /// O(1): nothing is computed until materialize().
  FrontierCache(const cfg::Cfg& cfg, unsigned k);

  /// Candidate list for the exit of `block`: every block within k edges,
  /// sorted by (distance, id). The span stays valid for the cache's
  /// lifetime. The cache must be materialized, and must hold `block`'s
  /// list: a read of a block its trace never exits throws CheckError.
  [[nodiscard]] std::span<const cfg::BlockId> candidates(
      cfg::BlockId block) const;

  /// Compute every block's candidate list into CSR form; a no-op once
  /// done. The one build step: afterwards the cache is read-only and
  /// may be shared across threads. Serves any trace on the CFG.
  void materialize();

  /// The same build for only the blocks `trace` exits
  /// (cfg::exited_blocks), the blocks a run over `trace` plans at; also
  /// a no-op once done. Each list built equals materialize()'s; every
  /// other block's read throws.
  void materialize(const cfg::BlockTrace& trace);

  [[nodiscard]] bool materialized() const { return !offsets_.empty(); }

  [[nodiscard]] unsigned k() const { return k_; }

  /// Exact heap size of the id array and offset table (0 until
  /// materialized), what serving::Service budgets against.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  /// The CFG this geometry was computed on; borrowers check identity.
  [[nodiscard]] const cfg::Cfg& cfg() const { return cfg_; }

 private:
  /// Build the lists of the blocks `exited` flags, or of every block
  /// when it is null.
  void build(const std::vector<bool>* exited);

  const cfg::Cfg& cfg_;
  unsigned k_;
  std::vector<cfg::BlockId> ids_;       // the built lists, in block order
  std::vector<std::uint32_t> offsets_;  // block_count() + 1 once built
};

}  // namespace apcc::runtime
