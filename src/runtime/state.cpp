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

BlockRef StateTable::operator[](cfg::BlockId id) {
  APCC_CHECK(id < blocks_, "block id out of range");
  const std::size_t i = at(id);
  return BlockRef(batch_->address_[i], batch_->ready_time_[i],
                  batch_->kedge_[i], batch_->form_[i], batch_->last_use_[i],
                  batch_->executing_[i], batch_->patches_[i]);
}

ConstBlockRef StateTable::operator[](cfg::BlockId id) const {
  APCC_CHECK(id < blocks_, "block id out of range");
  const std::size_t i = at(id);
  return ConstBlockRef(batch_->address_[i], batch_->ready_time_[i],
                       batch_->kedge_[i], batch_->form_[i],
                       batch_->last_use_[i], batch_->executing_[i],
                       batch_->patches_[i]);
}

bool StateTable::eligible(cfg::BlockId id, cfg::BlockId protect) const {
  return id != protect && batch_->executing_[at(id)] == 0;
}

void StateTable::index_put(std::set<Key>& index, Key key) {
  if (spare_nodes_.empty()) {
    index.insert(key);
    return;
  }
  std::set<Key>::node_type node = std::move(spare_nodes_.back());
  spare_nodes_.pop_back();
  node.value() = key;
  index.insert(std::move(node));
}

void StateTable::index_drop(std::set<Key>& index, Key key) {
  std::set<Key>::node_type node = index.extract(key);
  APCC_ASSERT(!node.empty(), "victim index out of sync with block forms");
  spare_nodes_.push_back(std::move(node));
}

void StateTable::index_insert(cfg::BlockId id) {
  decomp_pos_[id] = static_cast<std::uint32_t>(decomp_list_.size());
  decomp_list_.push_back(id);
  index_put(lru_index_, Key{batch_->last_use_[at(id)], id});
  index_put(size_index_, Key{batch_->sizes_[at(id)], id});
}

void StateTable::index_erase(cfg::BlockId id) {
  const std::uint32_t pos = decomp_pos_[id];
  const cfg::BlockId moved = decomp_list_.back();
  decomp_list_[pos] = moved;
  decomp_pos_[moved] = pos;
  decomp_list_.pop_back();
  decomp_pos_[id] = kNotInList;
  index_drop(lru_index_, Key{batch_->last_use_[at(id)], id});
  index_drop(size_index_, Key{batch_->sizes_[at(id)], id});
}

void StateTable::set_form(cfg::BlockId id, BlockForm form) {
  APCC_CHECK(id < blocks_, "block id out of range");
  BlockForm& current = batch_->form_[at(id)];
  if (current == form) return;
  if (current == BlockForm::kDecompressed) index_erase(id);
  --form_counts_[static_cast<std::size_t>(current)];
  ++form_counts_[static_cast<std::size_t>(form)];
  current = form;
  if (form == BlockForm::kDecompressed) index_insert(id);
}

void StateTable::touch(cfg::BlockId id, std::uint64_t time) {
  APCC_CHECK(id < blocks_, "block id out of range");
  const std::size_t i = at(id);
  std::uint64_t& last_use = batch_->last_use_[i];
  if (batch_->form_[i] == BlockForm::kDecompressed && last_use != time) {
    // Re-key the entry in place. Uses come at the advancing clock, so the
    // new key usually sorts last: end() is the insertion hint.
    std::set<Key>::node_type node = lru_index_.extract(Key{last_use, id});
    APCC_ASSERT(!node.empty(), "victim index out of sync with block forms");
    node.value().first = time;
    lru_index_.insert(lru_index_.end(), std::move(node));
  }
  last_use = time;
}

void StateTable::set_executing(cfg::BlockId id, bool executing) {
  APCC_CHECK(id < blocks_, "block id out of range");
  batch_->executing_[at(id)] = executing ? 1 : 0;
}

void StateTable::set_block_sizes(std::vector<std::uint64_t> sizes) {
  APCC_CHECK(sizes.size() == blocks_, "size table does not match block count");
  // Re-key the size index for any currently decompressed blocks.
  for (const cfg::BlockId id : decomp_list_) {
    index_drop(size_index_, Key{batch_->sizes_[at(id)], id});
  }
  std::copy(sizes.begin(), sizes.end(), batch_->sizes_.begin() + base_);
  for (const cfg::BlockId id : decomp_list_) {
    index_put(size_index_, Key{batch_->sizes_[at(id)], id});
  }
}

std::vector<cfg::BlockId> StateTable::decompressed_blocks() const {
  std::vector<cfg::BlockId> out(decomp_list_.begin(), decomp_list_.end());
  std::sort(out.begin(), out.end());
  return out;
}

cfg::BlockId StateTable::lru_victim(cfg::BlockId protect) const {
  for (const auto& [time, id] : lru_index_) {
    if (eligible(id, protect)) return id;
  }
  return cfg::kInvalidBlock;
}

cfg::BlockId StateTable::max_key_victim(const std::set<Key>& index,
                                        cfg::BlockId protect,
                                        bool require_positive_key) const {
  auto group_end = index.end();
  while (group_end != index.begin()) {
    const std::uint64_t key = std::prev(group_end)->first;
    if (require_positive_key && key == 0) break;
    // Entries share keys; the historical scan breaks ties toward the
    // lowest id, so walk the whole max-key group in id order.
    const auto group_begin = index.lower_bound(Key{key, 0});
    for (auto it = group_begin; it != group_end; ++it) {
      if (eligible(it->second, protect)) return it->second;
    }
    group_end = group_begin;
  }
  return cfg::kInvalidBlock;
}

cfg::BlockId StateTable::mru_victim(cfg::BlockId protect) const {
  return max_key_victim(lru_index_, protect, /*require_positive_key=*/false);
}

cfg::BlockId StateTable::largest_victim(cfg::BlockId protect) const {
  return max_key_victim(size_index_, protect, /*require_positive_key=*/true);
}

cfg::BlockId StateTable::lru_victim_reference(cfg::BlockId protect) const {
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t oldest = UINT64_MAX;
  for (std::size_t i = 0; i < blocks_; ++i) {
    const std::size_t f = base_ + i;
    if (batch_->form_[f] != BlockForm::kDecompressed || batch_->executing_[f]) {
      continue;
    }
    if (static_cast<cfg::BlockId>(i) == protect) continue;
    if (batch_->last_use_[f] < oldest) {
      oldest = batch_->last_use_[f];
      victim = static_cast<cfg::BlockId>(i);
    }
  }
  return victim;
}

cfg::BlockId StateTable::mru_victim_reference(cfg::BlockId protect) const {
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t newest = 0;
  bool found = false;
  for (std::size_t i = 0; i < blocks_; ++i) {
    const std::size_t f = base_ + i;
    if (batch_->form_[f] != BlockForm::kDecompressed ||
        batch_->executing_[f] || static_cast<cfg::BlockId>(i) == protect) {
      continue;
    }
    if (!found || batch_->last_use_[f] > newest) {
      newest = batch_->last_use_[f];
      victim = static_cast<cfg::BlockId>(i);
      found = true;
    }
  }
  return victim;
}

cfg::BlockId StateTable::largest_victim_reference(cfg::BlockId protect) const {
  cfg::BlockId victim = cfg::kInvalidBlock;
  std::uint64_t biggest = 0;
  for (std::size_t i = 0; i < blocks_; ++i) {
    const std::size_t f = base_ + i;
    if (batch_->form_[f] != BlockForm::kDecompressed ||
        batch_->executing_[f] || static_cast<cfg::BlockId>(i) == protect) {
      continue;
    }
    if (batch_->sizes_[f] > biggest) {
      biggest = batch_->sizes_[f];
      victim = static_cast<cfg::BlockId>(i);
    }
  }
  return victim;
}

}  // namespace apcc::runtime
