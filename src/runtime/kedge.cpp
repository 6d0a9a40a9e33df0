#include "runtime/kedge.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace apcc::runtime {

KEdgeCompressionManager::KEdgeCompressionManager(StateTable& states,
                                                 std::uint32_t k)
    : states_(states), k_(k) {
  APCC_CHECK(k >= 1, "k-edge requires k >= 1");
}

void KEdgeCompressionManager::on_block_executed(cfg::BlockId block) {
  states_[block].kedge_counter = 0;
}

const std::vector<cfg::BlockId>& KEdgeCompressionManager::on_edge_traversed(
    cfg::BlockId target) {
  to_delete_.clear();
  for (const cfg::BlockId b : states_.decompressed_unordered()) {
    if (b == target) continue;
    BlockState& s = states_[b];
    ++s.kedge_counter;
    if (s.kedge_counter >= k_ && !s.executing()) {
      to_delete_.push_back(b);
    }
  }
  // The id list is maintained in arbitrary order; deletions are applied
  // (and their events emitted) in ascending block id.
  std::sort(to_delete_.begin(), to_delete_.end());
  return to_delete_;
}

}  // namespace apcc::runtime
