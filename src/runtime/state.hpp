// Dynamic per-block runtime state (paper §5 bookkeeping).
//
// For every basic block the runtime tracks: which form it is in (the
// "compressed bit" of §4 plus an in-flight state for background
// decompression), the k-edge counter, the decompressed copy's address,
// the LRU timestamp for budget mode, and the remember set of patched
// branch sites.
//
// Each engine cell owns one StateTable: one BlockState record per
// block, in one array. The engine steps a cell through a whole trace
// tile before the next cell runs, so a cell's records stay hot on
// their own. Facts every cell shares (block sizes, the compressed-area
// footprint) are not copied in: the engine reads them from the
// runtime::BlockImage in place. The remember sets, which vary in
// length, are one linked list per block over one node pool per table,
// so a run allocates for them in proportion to its peak patch count,
// never per block.
//
// The table keeps the set of decompressed blocks -- the resident set, a
// handful of copies under k-edge deletion -- as a dense id list, so the
// k-edge walk and victim selection are one O(resident) pass over it
// instead of an O(B) scan of the whole table. To keep the list
// consistent by type, the fields it and the victim query read (form,
// last use, executing, list position, remember-list head) are private
// to BlockState and change only through StateTable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <type_traits>
#include <vector>

#include "cfg/cfg.hpp"
#include "runtime/policy.hpp"
#include "support/assert.hpp"

namespace apcc::runtime {

/// Where a block currently lives.
enum class BlockForm : std::uint8_t {
  kCompressed,     // only the fixed compressed copy exists
  kDecompressing,  // a helper is producing the decompressed copy
  kDecompressed,   // decompressed copy resident and executable
};

[[nodiscard]] const char* block_form_name(BlockForm f);

/// One block's remember set: the predecessor blocks whose branch to
/// this block has been patched to target the decompressed copy directly
/// (paper §5), in patch order (unpatch events replay it in that order).
/// A view into its table's node pool, valid until the table's remember
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

/// One block's record in its cell's StateTable. The public fields are
/// the engine's to write. The private ones are written only by the
/// table, which keeps the resident list and the remember lists in step
/// with them. Not copyable: `table[b]` is the record itself, so
/// `auto s = table[b]` does not compile instead of writing to a copy.
class BlockState {
 public:
  BlockState() = default;
  BlockState(const BlockState&) = delete;
  BlockState& operator=(const BlockState&) = delete;

  [[nodiscard]] BlockForm form() const { return form_; }
  /// The budget-mode LRU timestamp.
  [[nodiscard]] std::uint64_t last_use_time() const { return last_use_; }
  /// Pinned: an executing block is never deleted.
  [[nodiscard]] bool executing() const { return executing_; }

  // The fields are grouped by size, so the record packs into 40 bytes.
 private:
  friend class StateTable;
  std::uint64_t last_use_ = 0;
  std::uint32_t remember_head_ = RememberSet::kEnd;  // first node
  std::uint32_t resident_pos_ = 0;  // in the resident list while there
  BlockForm form_ = BlockForm::kCompressed;
  bool executing_ = false;

 public:
  // Accounting of the current copy: whether a pre-decompression made
  // it, and whether it has been entered since it was made.
  bool from_predecomp = false;
  bool used_since_decomp = false;
  std::uint32_t kedge_counter = 0;
  std::uint64_t address = 0;     // decompressed-area offset when resident
  std::uint64_t ready_time = 0;  // completion time while kDecompressing
};

static_assert(!std::is_copy_constructible_v<BlockState>,
              "table[b] must be the record, never a copy of it");
static_assert(sizeof(BlockState) <= 40,
              "one block's record grew past 40 bytes");

/// The per-block dynamic state of one cell, plus aggregate queries over
/// the maintained resident list. Every policy-side consumer (engine
/// step logic, k-edge manager, planner) programs against it.
class StateTable {
 public:
  /// An empty table (a cell's before its run starts).
  StateTable() = default;
  /// Every block compressed, unpatched and unused.
  explicit StateTable(std::size_t block_count);

  StateTable(const StateTable&) = delete;
  StateTable& operator=(const StateTable&) = delete;
  StateTable(StateTable&&) = default;
  StateTable& operator=(StateTable&&) = default;

  [[nodiscard]] BlockState& operator[](cfg::BlockId id) {
    APCC_CHECK(id < blocks_.size(), "block id out of range");
    return blocks_[id];
  }
  [[nodiscard]] const BlockState& operator[](cfg::BlockId id) const {
    APCC_CHECK(id < blocks_.size(), "block id out of range");
    return blocks_[id];
  }

  [[nodiscard]] std::size_t size() const { return blocks_.size(); }

  /// Move `id` to `form`, keeping the resident list in sync.
  void set_form(cfg::BlockId id, BlockForm form);

  /// Record a use of `id` at `time` (the budget-mode LRU timestamp).
  void touch(cfg::BlockId id, std::uint64_t time) {
    (*this)[id].last_use_ = time;
  }

  /// Pin / unpin `id` as currently executing.
  void set_executing(cfg::BlockId id, bool executing) {
    (*this)[id].executing_ = executing;
  }

  /// Ids of blocks currently in decompressed form, ascending.
  [[nodiscard]] std::vector<cfg::BlockId> decompressed_blocks() const;

  /// Same set in list order (unspecified); O(1), no allocation.
  [[nodiscard]] std::span<const cfg::BlockId> decompressed_unordered() const {
    return resident_;
  }

  /// Count of blocks in a given form.
  [[nodiscard]] std::size_t count(BlockForm form) const {
    return form_counts_[static_cast<std::size_t>(form)];
  }

  /// `block`'s remember set in patch order; see RememberSet.
  [[nodiscard]] RememberSet remember_set(cfg::BlockId block) const {
    return RememberSet((*this)[block].remember_head_, nodes_.data());
  }
  [[nodiscard]] bool is_patched_for(cfg::BlockId block,
                                    cfg::BlockId pred) const {
    return remember_set(block).contains(pred);
  }
  /// Append `pred` to `block`'s set unless it is already a member.
  /// Cleared nodes are reused, so once the pool has grown to the cell's
  /// peak patch count, adding and clearing do no heap allocation.
  void add_patch(cfg::BlockId block, cfg::BlockId pred);
  void clear_patches(cfg::BlockId block);

  /// The budget victim under `policy` among decompressed, non-executing
  /// blocks other than `protect`: least recent use for LRU, most recent
  /// for MRU, the biggest `size_of(block)` for largest, where a block of
  /// size 0 is never largest. One pass over the resident list comparing
  /// (key, id), so ties go to the lowest id whatever the list order.
  /// kInvalidBlock if no block qualifies.
  template <typename SizeOf>
  [[nodiscard]] cfg::BlockId victim(VictimPolicy policy, cfg::BlockId protect,
                                    SizeOf&& size_of) const;

 private:
  std::vector<BlockState> blocks_;
  std::vector<cfg::BlockId> resident_;  // dense decompressed-id list
  std::size_t form_counts_[3] = {0, 0, 0};
  std::vector<RememberSet::Node> nodes_;    // every block's remember list
  std::uint32_t free_ = RememberSet::kEnd;  // free-list head in nodes_
};

// The per-step mutators are inline: the engine calls them on every
// trace step.

inline void StateTable::set_form(cfg::BlockId id, BlockForm form) {
  BlockState& s = (*this)[id];
  if (s.form_ == form) return;
  if (s.form_ == BlockForm::kDecompressed) {
    // Swap-remove: the victim query's tie rule never reads list order.
    const cfg::BlockId moved = resident_.back();
    resident_[s.resident_pos_] = moved;
    blocks_[moved].resident_pos_ = s.resident_pos_;
    resident_.pop_back();
  }
  --form_counts_[static_cast<std::size_t>(s.form_)];
  ++form_counts_[static_cast<std::size_t>(form)];
  s.form_ = form;
  if (form == BlockForm::kDecompressed) {
    s.resident_pos_ = static_cast<std::uint32_t>(resident_.size());
    resident_.push_back(id);
  }
}

template <typename SizeOf>
cfg::BlockId StateTable::victim(VictimPolicy policy, cfg::BlockId protect,
                                SizeOf&& size_of) const {
  cfg::BlockId best = cfg::kInvalidBlock;
  std::uint64_t best_key = 0;  // the smallest key wins
  for (const cfg::BlockId id : resident_) {
    const BlockState& s = blocks_[id];
    if (id == protect || s.executing_) continue;
    std::uint64_t key = 0;
    switch (policy) {
      case VictimPolicy::kLru: key = s.last_use_; break;
      case VictimPolicy::kMru: key = ~s.last_use_; break;
      case VictimPolicy::kLargest: {
        const std::uint64_t size = size_of(id);
        if (size == 0) continue;
        key = ~size;
        break;
      }
    }
    if (best == cfg::kInvalidBlock || key < best_key ||
        (key == best_key && id < best)) {
      best = id;
      best_key = key;
    }
  }
  return best;
}

}  // namespace apcc::runtime
