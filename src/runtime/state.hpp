// Dynamic per-block runtime state (paper §5 bookkeeping).
//
// For every basic block the runtime tracks: which form it is in (the
// "compressed bit" of §4 plus an in-flight state for background
// decompression), the k-edge counter, the decompressed copy's address,
// the LRU timestamp for budget mode, and the remember set of patched
// branch sites.
//
// Storage is a structure-of-arrays plane, StateBatch: one parallel
// array per field, cell-major, so N grid cells stepping over the same
// trace share one allocation and keep each field's lane contiguous.
// StateTable is the *cell view* over one lane of that plane -- the
// interface every policy-side consumer (engine step logic, k-edge
// manager, planner, predictors) programs against. A standalone
// `StateTable(block_count)` owns a private single-cell batch, the same
// code as a batch with N == 1.
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

#include <cstdint>
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

namespace detail {

/// Remember set of one (cell, block): predecessor blocks whose branch to
/// this block has been patched to target the decompressed copy directly
/// (paper §5), in patch order (unpatch events replay it in that order).
/// A sorted mirror backs contains(), so membership tests are O(log n)
/// instead of a linear scan.
struct PatchSet {
  std::vector<cfg::BlockId> order;   // insertion (patch) order
  std::vector<cfg::BlockId> sorted;  // sorted mirror for lookup

  [[nodiscard]] bool contains(cfg::BlockId pred) const;
  void add(cfg::BlockId pred);
  void clear() {
    order.clear();
    sorted.clear();
  }
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

  /// Remember set in patch order; see detail::PatchSet.
  [[nodiscard]] const std::vector<cfg::BlockId>& remember_set() const {
    return patches_.order;
  }
  [[nodiscard]] bool is_patched_for(cfg::BlockId pred) const {
    return patches_.contains(pred);
  }
  void add_patch(cfg::BlockId pred) { patches_.add(pred); }
  void clear_patches() { patches_.clear(); }

 private:
  friend class StateTable;
  BlockRef(std::uint64_t& address_in, std::uint64_t& ready_time_in,
           std::uint32_t& kedge_in, const BlockForm& form_in,
           const std::uint64_t& last_use_in, const std::uint8_t& executing_in,
           detail::PatchSet& patches_in)
      : address(address_in),
        ready_time(ready_time_in),
        kedge_counter(kedge_in),
        form_(form_in),
        last_use_time_(last_use_in),
        executing_(executing_in),
        patches_(patches_in) {}

  const BlockForm& form_;
  const std::uint64_t& last_use_time_;
  const std::uint8_t& executing_;  // pinned: never delete mid-execution
  detail::PatchSet& patches_;
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
  [[nodiscard]] const std::vector<cfg::BlockId>& remember_set() const {
    return patches_.order;
  }
  [[nodiscard]] bool is_patched_for(cfg::BlockId pred) const {
    return patches_.contains(pred);
  }

 private:
  friend class StateTable;
  ConstBlockRef(const std::uint64_t& address_in,
                const std::uint64_t& ready_time_in,
                const std::uint32_t& kedge_in, const BlockForm& form_in,
                const std::uint64_t& last_use_in,
                const std::uint8_t& executing_in,
                const detail::PatchSet& patches_in)
      : address(address_in),
        ready_time(ready_time_in),
        kedge_counter(kedge_in),
        form_(form_in),
        last_use_time_(last_use_in),
        executing_(executing_in),
        patches_(patches_in) {}

  const BlockForm& form_;
  const std::uint64_t& last_use_time_;
  const std::uint8_t& executing_;
  const detail::PatchSet& patches_;
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
  std::vector<detail::PatchSet> patches_;
  std::vector<std::unique_ptr<StateTable>> views_;  // lazy, stable
};

// The per-step accessors are inline: the engine calls several of them on
// every trace step.

inline BlockRef StateTable::operator[](cfg::BlockId id) {
  APCC_CHECK(id < blocks_, "block id out of range");
  const std::size_t i = at(id);
  return BlockRef(batch_->address_[i], batch_->ready_time_[i],
                  batch_->kedge_[i], batch_->form_[i], batch_->last_use_[i],
                  batch_->executing_[i], batch_->patches_[i]);
}

inline ConstBlockRef StateTable::operator[](cfg::BlockId id) const {
  APCC_CHECK(id < blocks_, "block id out of range");
  const std::size_t i = at(id);
  return ConstBlockRef(batch_->address_[i], batch_->ready_time_[i],
                       batch_->kedge_[i], batch_->form_[i],
                       batch_->last_use_[i], batch_->executing_[i],
                       batch_->patches_[i]);
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
