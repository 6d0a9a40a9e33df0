// BlockBytes: every basic block's original bytes in one arena.
//
// The paper starts from one memory image holding every basic block
// (§5). A workload keeps its blocks' original bytes the same way: one
// byte arena, block after block in id order, and a (B+1)-entry offset
// table, so block b is arena[offsets[b], offsets[b+1]). That is two heap
// arrays whatever the block count, where a vector per block cost a
// 56-byte header and malloc chunk around an 11-byte block. Codecs train
// on it and runtime::BlockImage compresses from it, in place.
//
// It converts from and to one vector per block. Both directions copy,
// and no served path takes either; they keep callers that build or read
// per-block vectors (tests, benches) compiling unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

namespace apcc::compress {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

class BlockBytes {
 public:
  /// Reads the blocks in id order as ByteViews.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ByteView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = ByteView;

    Iterator() = default;
    Iterator(const BlockBytes* owner, std::size_t block)
        : owner_(owner), block_(block) {}

    [[nodiscard]] ByteView operator*() const { return (*owner_)[block_]; }
    Iterator& operator++() {
      ++block_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++block_;
      return before;
    }
    [[nodiscard]] bool operator==(const Iterator& other) const {
      return block_ == other.block_;
    }

   private:
    const BlockBytes* owner_ = nullptr;
    std::size_t block_ = 0;
  };

  BlockBytes() = default;
  /// Copy one vector per block into the arena.
  BlockBytes(const std::vector<Bytes>& blocks);  // NOLINT: implicit by design
  /// Copy each block out into its own vector.
  operator std::vector<Bytes>() const;  // NOLINT: implicit by design

  /// Make room for `blocks` more blocks of `bytes` bytes in all, so the
  /// appends that follow allocate nothing.
  void reserve(std::size_t blocks, std::size_t bytes);
  /// Append `block` as the next block. Throws CheckError once the arena
  /// would pass 4 GiB.
  void push_back(ByteView block);

  [[nodiscard]] std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] bool empty() const { return offsets_.empty(); }

  /// Block `b`'s bytes: a view into the arena, valid until the next
  /// append. Unchecked, like std::vector's operator[].
  [[nodiscard]] ByteView operator[](std::size_t b) const {
    return ByteView(arena_).subspan(offsets_[b], offsets_[b + 1] - offsets_[b]);
  }

  /// Every block's bytes back to back, in id order.
  [[nodiscard]] ByteView arena() const { return arena_; }
  /// The sum of every block's size, in O(1).
  [[nodiscard]] std::size_t total_bytes() const { return arena_.size(); }

  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, size()}; }

 private:
  Bytes arena_;
  /// size() + 1 entries from 0 once a block is appended; empty before.
  std::vector<std::uint32_t> offsets_;
};

}  // namespace apcc::compress
