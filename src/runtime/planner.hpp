// Decompression planning: which blocks to pre-decompress and when.
//
// Implements the decompression side of Figure 3's design space. The
// planner runs at every block exit (the trigger point Figure 2 fixes:
// "when the execution thread exits basic block B1, the decompression
// thread starts decompressing B7") and emits an ordered request list for
// the decompression helper.
//
// The candidate geometry (which blocks are within k edges, and how far)
// is static given (CFG, predecompress_k), so the planner reads it from a
// materialized FrontierCache that its owner builds once per k, for the
// blocks its trace exits, and lends to every planner at that k (the
// Service per workload, BatchEngine per run); each exit only filters the
// cached list by the dynamic BlockForm.
#pragma once

#include "cfg/analysis.hpp"
#include "runtime/frontier_cache.hpp"
#include "runtime/policy.hpp"
#include "runtime/predictor.hpp"
#include "runtime/state.hpp"

namespace apcc::runtime {

class DecompressionPlanner {
 public:
  /// `predictor` may be null unless the strategy is kPreSingle.
  /// `frontiers` may be null only for kOnDemand; otherwise it must be a
  /// materialized cache built on `cfg` with k == policy.predecompress_k,
  /// holding the list of every block plan_on_exit is called at, and it
  /// must outlive the planner.
  DecompressionPlanner(const cfg::Cfg& cfg, const StateTable& states,
                       const Policy& policy, const Predictor* predictor,
                       const FrontierCache* frontiers);

  /// Called when the execution thread exits `block` (trace position
  /// `trace_index`). Returns the blocks to request, nearest-first, all
  /// currently in compressed form. The list is a buffer this planner
  /// owns and reuses: the next call invalidates the returned reference
  /// (copy it with `auto` to keep it).
  [[nodiscard]] const std::vector<cfg::BlockId>& plan_on_exit(
      cfg::BlockId block, std::size_t trace_index) const;

 private:
  /// Compressed blocks within the k-edge frontier of `block`, sorted by
  /// (min edge distance, id) so the most imminent request runs first;
  /// written into `out`.
  void compressed_frontier(cfg::BlockId block,
                           std::vector<cfg::BlockId>& out) const;

  const StateTable& states_;
  Policy policy_;
  const Predictor* predictor_;
  const FrontierCache* frontiers_;  // borrowed; null for on-demand
  // Reused per-exit buffers: the returned plan and pre-single's
  // candidate list.
  mutable std::vector<cfg::BlockId> plan_;
  mutable std::vector<cfg::BlockId> candidates_;
};

}  // namespace apcc::runtime
