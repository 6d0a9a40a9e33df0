// The k-edge compression algorithm (paper §3, implementation per §5).
//
// "For each basic block, we maintain a counter, which is reset to zero
//  when the basic block is executed. At each branch, the counter of each
//  (uncompressed) basic block is increased by 1 and (the decompressed
//  versions of) the basic blocks whose counter reaches k are deleted."
//
// The §5 walkthrough (Figure 5) additionally fixes two details the prose
// leaves implicit, and this implementation follows them exactly:
//  * the block being *entered* by the traversed edge is not incremented
//    (otherwise B0' would be deleted at step (5) of Figure 5 instead of
//    surviving until step (9)), and
//  * a block's counter resets when it begins executing, so revisits
//    restart its k-edge window.
#pragma once

#include "runtime/policy.hpp"
#include "runtime/state.hpp"

namespace apcc::runtime {

/// Stateless-ish manager: owns the counter discipline, not the deletion
/// mechanics (the engine applies the returned deletions with costs).
class KEdgeCompressionManager {
 public:
  /// Each edge walks only the table's decompressed-id list, O(D) in
  /// the resident-copy count. Returned deletions are ascending by block
  /// id.
  KEdgeCompressionManager(StateTable& states, std::uint32_t k);

  /// The execution thread began executing `block`: reset its counter.
  void on_block_executed(cfg::BlockId block);

  /// An edge into `target` was traversed. Increments every decompressed
  /// block's counter except `target`'s; returns the blocks whose counter
  /// reached k, i.e. whose decompressed copies must now be deleted
  /// ("compressed back"). Currently-executing blocks are never returned.
  /// The list is a buffer this manager owns and reuses: the next call
  /// invalidates the returned reference (copy it with `auto` to keep it).
  [[nodiscard]] const std::vector<cfg::BlockId>& on_edge_traversed(
      cfg::BlockId target);

  [[nodiscard]] std::uint32_t k() const { return k_; }

 private:
  StateTable& states_;
  std::uint32_t k_;
  std::vector<cfg::BlockId> to_delete_;  // on_edge_traversed's result
};

}  // namespace apcc::runtime
