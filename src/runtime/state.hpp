// Dynamic per-block runtime state (paper §5 bookkeeping).
//
// For every basic block the runtime tracks: which form it is in (the
// "compressed bit" of §4 plus an in-flight state for background
// decompression), the k-edge counter, the decompressed copy's address,
// the LRU timestamp for budget mode, and the remember set of patched
// branch sites.
//
// Storage is a structure-of-arrays plane, StateBatch: one parallel
// array per fixed-size field, cell-major, so N grid cells stepping over
// the same trace share one allocation and keep each field's lane
// contiguous. StateTable is the *cell view* over one lane of that plane
// -- the interface every policy-side consumer (engine step logic,
// k-edge manager, planner, predictors) programs against. A standalone
// `StateTable(block_count)` owns a private single-cell batch, the same
// code as a batch with N == 1. The remember sets, which vary in length,
// are not in the plane: each view keeps its cell's sets as one linked
// list per block over one node pool, so a run allocates for them in
// proportion to its peak patch count, never per block.
//
// The view keeps the set of decompressed blocks -- the resident set, a
// handful of copies under k-edge deletion -- as a dense id list, so the
// k-edge walk and LRU / MRU / largest-victim selection are one
// O(resident) pass over it instead of an O(B) scan of the whole table.
// To keep the list consistent by construction, the fields it and the
// victim queries read (form, last_use_time, executing) are read-only on
// the block proxies and can only be mutated through
// StateTable::set_form / touch / set_executing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "cfg/cfg.hpp"
#include "support/assert.hpp"

namespace apcc::runtime {

/// Where a block currently lives.
enum class BlockForm : std::uint8_t {
  kCompressed,     // only the fixed compressed copy exists
  kDecompressing,  // a helper is producing the decompressed copy
  kDecompressed,   // decompressed copy resident and executable
};

[[nodiscard]] const char* block_form_name(BlockForm f);

class StateTable;
class StateBatch;

/// One block's remember set: the predecessor blocks whose branch to
/// this block has been patched to target the decompressed copy directly
/// (paper §5), in patch order (unpatch events replay it in that order).
/// A view into its cell's node pool, valid until the cell's remember
/// sets next change. Sets hold a handful of entries, so membership and
/// size() walk the list.
class RememberSet {
 public:
  static constexpr std::uint32_t kEnd = UINT32_MAX;

  struct Node {
    cfg::BlockId pred;
    std::uint32_t next;  // next node of the list, kEnd after the last
  };

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = cfg::BlockId;
    using difference_type = std::ptrdiff_t;
    using pointer = const cfg::BlockId*;
    using reference = cfg::BlockId;

    iterator() = default;
    iterator(std::uint32_t at, const Node* nodes) : at_(at), nodes_(nodes) {}

    cfg::BlockId operator*() const { return nodes_[at_].pred; }
    iterator& operator++() {
      at_ = nodes_[at_].next;
      return *this;
    }
    iterator operator++(int) {
      const iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& other) const { return at_ == other.at_; }

   private:
    std::uint32_t at_ = kEnd;
    const Node* nodes_ = nullptr;
  };

  RememberSet(std::uint32_t head, const Node* nodes)
      : head_(head), nodes_(nodes) {}

  [[nodiscard]] iterator begin() const { return {head_, nodes_}; }
  [[nodiscard]] iterator end() const { return {kEnd, nodes_}; }
  [[nodiscard]] bool empty() const { return head_ == kEnd; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::distance(begin(), end()));
  }
  [[nodiscard]] bool contains(cfg::BlockId pred) const {
    return std::find(begin(), end(), pred) != end();
  }

 private:
  std::uint32_t head_;
  const Node* nodes_;
};

namespace detail {

/// The remember sets of one cell: one list per block, threaded through
/// one node pool. clear() hands a block's nodes to the pool's free list,
/// so once the pool has grown to the cell's peak patch count, adding and
/// clearing do no heap allocation.
class RememberPool {
 public:
  explicit RememberPool(std::size_t block_count)
      : head_(block_count, RememberSet::kEnd) {}

  [[nodiscard]] RememberSet set(cfg::BlockId block) const {
    return RememberSet(head_[block], nodes_.data());
  }
  /// Append `pred` to `block`'s set unless it is already a member.
  void add(cfg::BlockId block, cfg::BlockId pred);
  void clear(cfg::BlockId block);

 private:
  std::vector<std::uint32_t> head_;  // first node per block
  std::vector<RememberSet::Node> nodes_;
  std::uint32_t free_ = RememberSet::kEnd;  // free-list head
};

}  // namespace detail

/// Mutable proxy for one block of one cell. Value type over references
/// into the backing StateBatch lanes -- copy it freely (`auto s = t[b]`),
/// the copies alias the same block. The directly assignable members are
/// exactly the fields no victim/decompressed index depends on.
class BlockRef {
 public:
  std::uint64_t& address;      // decompressed-area offset when resident
  std::uint64_t& ready_time;   // completion time while kDecompressing
  std::uint32_t& kedge_counter;

  [[nodiscard]] BlockForm form() const { return form_; }
  [[nodiscard]] std::uint64_t last_use_time() const { return last_use_time_; }
  [[nodiscard]] bool executing() const { return executing_ != 0; }

  /// Remember set in patch order; see RememberSet.
  [[nodiscard]] RememberSet remember_set() const {
    return remember_.set(id_);
  }
  [[nodiscard]] bool is_patched_for(cfg::BlockId pred) const {
    return remember_set().contains(pred);
  }
  void add_patch(cfg::BlockId pred) { remember_.add(id_, pred); }
  void clear_patches() { remember_.clear(id_); }

 private:
  friend class StateTable;
  BlockRef(std::uint64_t& address_in, std::uint64_t& ready_time_in,
           std::uint32_t& kedge_in, const BlockForm& form_in,
           const std::uint64_t& last_use_in, const std::uint8_t& executing_in,
           detail::RememberPool& remember_in, cfg::BlockId id_in)
      : address(address_in),
        ready_time(ready_time_in),
        kedge_counter(kedge_in),
        form_(form_in),
        last_use_time_(last_use_in),
        executing_(executing_in),
        remember_(remember_in),
        id_(id_in) {}

  const BlockForm& form_;
  const std::uint64_t& last_use_time_;
  const std::uint8_t& executing_;  // pinned: never delete mid-execution
  detail::RememberPool& remember_;
  cfg::BlockId id_;
};

/// Read-only counterpart of BlockRef.
class ConstBlockRef {
 public:
  const std::uint64_t& address;
  const std::uint64_t& ready_time;
  const std::uint32_t& kedge_counter;

  [[nodiscard]] BlockForm form() const { return form_; }
  [[nodiscard]] std::uint64_t last_use_time() const { return last_use_time_; }
  [[nodiscard]] bool executing() const { return executing_ != 0; }
  [[nodiscard]] RememberSet remember_set() const {
    return remember_.set(id_);
  }
  [[nodiscard]] bool is_patched_for(cfg::BlockId pred) const {
    return remember_set().contains(pred);
  }

 private:
  friend class StateTable;
  ConstBlockRef(const std::uint64_t& address_in,
                const std::uint64_t& ready_time_in,
                const std::uint32_t& kedge_in, const BlockForm& form_in,
                const std::uint64_t& last_use_in,
                const std::uint8_t& executing_in,
                const detail::RememberPool& remember_in, cfg::BlockId id_in)
      : address(address_in),
        ready_time(ready_time_in),
        kedge_counter(kedge_in),
        form_(form_in),
        last_use_time_(last_use_in),
        executing_(executing_in),
        remember_(remember_in),
        id_(id_in) {}

  const BlockForm& form_;
  const std::uint64_t& last_use_time_;
  const std::uint8_t& executing_;
  const detail::RememberPool& remember_;
  cfg::BlockId id_;
};

/// The cell view: per-block dynamic state of one cell plus aggregate
/// queries over the maintained indexes. Every view -- standalone or a
/// lane of a multi-cell StateBatch -- exposes the identical interface,
/// so policy code never knows whether it is batched.
class StateTable {
 public:
  /// Standalone table: owns a private single-cell StateBatch.
  explicit StateTable(std::size_t block_count);

  StateTable(const StateTable&) = delete;
  StateTable& operator=(const StateTable&) = delete;
  StateTable(StateTable&&) = default;
  StateTable& operator=(StateTable&&) = default;

  [[nodiscard]] BlockRef operator[](cfg::BlockId id);
  [[nodiscard]] ConstBlockRef operator[](cfg::BlockId id) const;

  [[nodiscard]] std::size_t size() const { return blocks_; }

  /// Move `id` to `form`, keeping the decompressed-id list in sync.
  void set_form(cfg::BlockId id, BlockForm form);

  /// Record a use of `id` at `time` (the budget-mode LRU timestamp).
  void touch(cfg::BlockId id, std::uint64_t time);

  /// Pin / unpin `id` as currently executing.
  void set_executing(cfg::BlockId id, bool executing);

  /// Provide per-block decompressed-copy sizes (copied into this cell's
  /// lane) for largest-victim selection. All sizes are zero (no largest
  /// victim) until this is called.
  void set_block_sizes(std::span<const std::uint64_t> sizes);

  /// Ids of blocks currently in decompressed form, ascending.
  [[nodiscard]] std::vector<cfg::BlockId> decompressed_blocks() const;

  /// Same set in list order (unspecified); O(1), no allocation.
  [[nodiscard]] std::span<const cfg::BlockId> decompressed_unordered() const {
    return decomp_list_;
  }

  /// Count of blocks in a given form.
  [[nodiscard]] std::size_t count(BlockForm form) const {
    return form_counts_[static_cast<std::size_t>(form)];
  }

  /// Victim queries among decompressed, non-executing blocks, excluding
  /// `protect`; kInvalidBlock if none exists. One pass over the
  /// decompressed-id list; ties on the key resolve to the lowest block
  /// id, whatever the list order.
  [[nodiscard]] cfg::BlockId lru_victim(cfg::BlockId protect) const;
  [[nodiscard]] cfg::BlockId mru_victim(cfg::BlockId protect) const;
  /// Blocks with size 0 are never largest-victims.
  [[nodiscard]] cfg::BlockId largest_victim(cfg::BlockId protect) const;

 private:
  friend class StateBatch;

  /// Lane view over cell `cell` of `batch`.
  StateTable(StateBatch& batch, std::size_t cell);

  /// Flat index of block `id` in the batch's cell-major lanes.
  [[nodiscard]] std::size_t at(cfg::BlockId id) const { return base_ + id; }

  void list_insert(cfg::BlockId id);
  void list_erase(cfg::BlockId id);
  [[nodiscard]] bool eligible(cfg::BlockId id, cfg::BlockId protect) const;

  static constexpr std::uint32_t kNotInList = UINT32_MAX;

  std::unique_ptr<StateBatch> owned_;  // standalone tables only
  StateBatch* batch_;                  // backing plane (owned_ or external)
  std::size_t base_;                   // cell * block_count lane offset
  std::size_t blocks_;
  std::vector<std::uint32_t> decomp_pos_;   // position in decomp_list_
  std::vector<cfg::BlockId> decomp_list_;   // dense decompressed-id list
  std::size_t form_counts_[3] = {0, 0, 0};
  detail::RememberPool remember_;
};

/// Structure-of-arrays state plane for `cell_count` cells over the same
/// CFG. Each dynamic field is one flat cell-major array (flat index
/// `cell * block_count + block`), so a batch of engines advancing in
/// lockstep touches contiguous storage instead of N pointer-chased
/// tables. Cells are exposed as StateTable views (see above); the views
/// are created lazily and remain stable for the batch's lifetime.
class StateBatch {
 public:
  StateBatch(std::size_t block_count, std::size_t cell_count);
  ~StateBatch();

  StateBatch(const StateBatch&) = delete;
  StateBatch& operator=(const StateBatch&) = delete;

  [[nodiscard]] std::size_t block_count() const { return blocks_; }
  [[nodiscard]] std::size_t cell_count() const { return cell_count_; }

  /// The StateTable view of cell `c`; stable across calls.
  [[nodiscard]] StateTable& cell(std::size_t c);

 private:
  friend class StateTable;
  friend class BlockRef;
  friend class ConstBlockRef;

  std::size_t blocks_;
  std::size_t cell_count_;
  // Cell-major parallel lanes, each of size blocks_ * cell_count_.
  std::vector<BlockForm> form_;
  std::vector<std::uint8_t> executing_;
  std::vector<std::uint64_t> address_;
  std::vector<std::uint64_t> ready_time_;
  std::vector<std::uint64_t> last_use_;
  std::vector<std::uint32_t> kedge_;
  std::vector<std::uint64_t> sizes_;  // largest-victim key per (cell, block)
  std::vector<std::unique_ptr<StateTable>> views_;  // lazy, stable
};

// The per-step accessors are inline: the engine calls several of them on
// every trace step.

inline BlockRef StateTable::operator[](cfg::BlockId id) {
  APCC_CHECK(id < blocks_, "block id out of range");
  const std::size_t i = at(id);
  return BlockRef(batch_->address_[i], batch_->ready_time_[i],
                  batch_->kedge_[i], batch_->form_[i], batch_->last_use_[i],
                  batch_->executing_[i], remember_, id);
}

inline ConstBlockRef StateTable::operator[](cfg::BlockId id) const {
  APCC_CHECK(id < blocks_, "block id out of range");
  const std::size_t i = at(id);
  return ConstBlockRef(batch_->address_[i], batch_->ready_time_[i],
                       batch_->kedge_[i], batch_->form_[i],
                       batch_->last_use_[i], batch_->executing_[i], remember_,
                       id);
}

inline bool StateTable::eligible(cfg::BlockId id, cfg::BlockId protect) const {
  return id != protect && batch_->executing_[at(id)] == 0;
}

inline void StateTable::list_insert(cfg::BlockId id) {
  decomp_pos_[id] = static_cast<std::uint32_t>(decomp_list_.size());
  decomp_list_.push_back(id);
}

inline void StateTable::list_erase(cfg::BlockId id) {
  const std::uint32_t pos = decomp_pos_[id];
  const cfg::BlockId moved = decomp_list_.back();
  decomp_list_[pos] = moved;
  decomp_pos_[moved] = pos;
  decomp_list_.pop_back();
  decomp_pos_[id] = kNotInList;
}

inline void StateTable::set_form(cfg::BlockId id, BlockForm form) {
  APCC_CHECK(id < blocks_, "block id out of range");
  BlockForm& current = batch_->form_[at(id)];
  if (current == form) return;
  if (current == BlockForm::kDecompressed) list_erase(id);
  --form_counts_[static_cast<std::size_t>(current)];
  ++form_counts_[static_cast<std::size_t>(form)];
  current = form;
  if (form == BlockForm::kDecompressed) list_insert(id);
}

inline void StateTable::touch(cfg::BlockId id, std::uint64_t time) {
  APCC_CHECK(id < blocks_, "block id out of range");
  batch_->last_use_[at(id)] = time;
}

inline void StateTable::set_executing(cfg::BlockId id, bool executing) {
  APCC_CHECK(id < blocks_, "block id out of range");
  batch_->executing_[at(id)] = executing ? 1 : 0;
}

}  // namespace apcc::runtime
