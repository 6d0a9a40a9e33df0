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

bool PatchSet::contains(cfg::BlockId pred) const {
  return std::binary_search(sorted.begin(), sorted.end(), pred);
}

void PatchSet::add(cfg::BlockId pred) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), pred);
  if (it != sorted.end() && *it == pred) return;
  sorted.insert(it, pred);
  order.push_back(pred);
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
      patches_(block_count * cell_count),
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
      decomp_pos_(block_count, kNotInList) {
  form_counts_[static_cast<std::size_t>(BlockForm::kCompressed)] = block_count;
}

StateTable::StateTable(StateBatch& batch, std::size_t cell)
    : batch_(&batch),
      base_(cell * batch.blocks_),
      blocks_(batch.blocks_),
      decomp_pos_(batch.blocks_, kNotInList) {
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
