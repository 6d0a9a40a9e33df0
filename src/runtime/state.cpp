#include "runtime/state.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace apcc::runtime {

const char* block_form_name(BlockForm f) {
  switch (f) {
    case BlockForm::kCompressed: return "compressed";
    case BlockForm::kDecompressing: return "decompressing";
    case BlockForm::kDecompressed: return "decompressed";
  }
  return "?";
}

StateTable::StateTable(std::size_t block_count) : blocks_(block_count) {
  form_counts_[static_cast<std::size_t>(BlockForm::kCompressed)] = block_count;
}

std::vector<cfg::BlockId> StateTable::decompressed_blocks() const {
  std::vector<cfg::BlockId> out(resident_.begin(), resident_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void StateTable::add_patch(cfg::BlockId block, cfg::BlockId pred) {
  std::uint32_t& head = (*this)[block].remember_head_;
  std::uint32_t tail = RememberSet::kEnd;
  for (std::uint32_t at = head; at != RememberSet::kEnd;
       at = nodes_[at].next) {
    if (nodes_[at].pred == pred) return;
    tail = at;
  }
  std::uint32_t node = free_;
  if (node != RememberSet::kEnd) {
    free_ = nodes_[node].next;
    nodes_[node] = {pred, RememberSet::kEnd};
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({pred, RememberSet::kEnd});
  }
  (tail == RememberSet::kEnd ? head : nodes_[tail].next) = node;
}

void StateTable::clear_patches(cfg::BlockId block) {
  std::uint32_t& head = (*this)[block].remember_head_;
  if (head == RememberSet::kEnd) return;
  std::uint32_t tail = head;
  while (nodes_[tail].next != RememberSet::kEnd) tail = nodes_[tail].next;
  nodes_[tail].next = free_;
  free_ = head;
  head = RememberSet::kEnd;
}

}  // namespace apcc::runtime
