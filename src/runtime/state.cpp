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

namespace detail {

void RememberPool::add(cfg::BlockId block, cfg::BlockId pred) {
  std::uint32_t tail = RememberSet::kEnd;
  for (std::uint32_t at = head_[block]; at != RememberSet::kEnd;
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
  (tail == RememberSet::kEnd ? head_[block] : nodes_[tail].next) = node;
}

void RememberPool::clear(cfg::BlockId block) {
  const std::uint32_t head = head_[block];
  if (head == RememberSet::kEnd) return;
  std::uint32_t tail = head;
  while (nodes_[tail].next != RememberSet::kEnd) tail = nodes_[tail].next;
  nodes_[tail].next = free_;
  free_ = head;
  head_[block] = RememberSet::kEnd;
}

}  // namespace detail

StateBatch::StateBatch(std::size_t block_count, std::size_t cell_count)
    : blocks_(block_count),
      cell_count_(cell_count),
      form_(block_count * cell_count, BlockForm::kCompressed),
      executing_(block_count * cell_count, 0),
      address_(block_count * cell_count, 0),
      ready_time_(block_count * cell_count, 0),
      last_use_(block_count * cell_count, 0),
      kedge_(block_count * cell_count, 0),
      sizes_(block_count * cell_count, 0),
      views_(cell_count) {
  APCC_CHECK(cell_count > 0, "state batch needs at least one cell");
}

StateBatch::~StateBatch() = default;

StateTable& StateBatch::cell(std::size_t c) {
  APCC_CHECK(c < cell_count_, "cell index out of range");
  if (!views_[c]) views_[c].reset(new StateTable(*this, c));
  return *views_[c];
}

StateTable::StateTable(std::size_t block_count)
    : owned_(std::make_unique<StateBatch>(block_count, 1)),
      batch_(owned_.get()),
      base_(0),
      blocks_(block_count),
      decomp_pos_(block_count, kNotInList),
      remember_(block_count) {
  form_counts_[static_cast<std::size_t>(BlockForm::kCompressed)] = block_count;
}

StateTable::StateTable(StateBatch& batch, std::size_t cell)
    : batch_(&batch),
      base_(cell * batch.blocks_),
      blocks_(batch.blocks_),
      decomp_pos_(batch.blocks_, kNotInList),
      remember_(batch.blocks_) {
  form_counts_[static_cast<std::size_t>(BlockForm::kCompressed)] = blocks_;
}

void StateTable::set_block_sizes(std::span<const std::uint64_t> sizes) {
  APCC_CHECK(sizes.size() == blocks_, "size table does not match block count");
  std::copy(sizes.begin(), sizes.end(), batch_->sizes_.begin() + base_);
}

std::vector<cfg::BlockId> StateTable::decompressed_blocks() const {
  std::vector<cfg::BlockId> out(decomp_list_.begin(), decomp_list_.end());
  std::sort(out.begin(), out.end());
  return out;
}

// The victim scans compare (key, id) explicitly: the list's order comes
// from swap-removes, so the lowest-id tie rule must not depend on it.

cfg::BlockId StateTable::lru_victim(cfg::BlockId protect) const {
  const std::uint64_t* last_use = batch_->last_use_.data() + base_;
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t oldest = UINT64_MAX;
  for (const cfg::BlockId id : decomp_list_) {
    if (!eligible(id, protect)) continue;
    const std::uint64_t t = last_use[id];
    if (t < oldest || (t == oldest && id < victim)) {
      oldest = t;
      victim = id;
    }
  }
  return victim;
}

cfg::BlockId StateTable::mru_victim(cfg::BlockId protect) const {
  const std::uint64_t* last_use = batch_->last_use_.data() + base_;
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t newest = 0;
  for (const cfg::BlockId id : decomp_list_) {
    if (!eligible(id, protect)) continue;
    const std::uint64_t t = last_use[id];
    if (t > newest || (t == newest && id < victim)) {
      newest = t;
      victim = id;
    }
  }
  return victim;
}

cfg::BlockId StateTable::largest_victim(cfg::BlockId protect) const {
  const std::uint64_t* sizes = batch_->sizes_.data() + base_;
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t biggest = 0;
  for (const cfg::BlockId id : decomp_list_) {
    const std::uint64_t size = sizes[id];
    if (size == 0 || !eligible(id, protect)) continue;
    if (size > biggest || (size == biggest && id < victim)) {
      biggest = size;
      victim = id;
    }
  }
  return victim;
}

}  // namespace apcc::runtime
