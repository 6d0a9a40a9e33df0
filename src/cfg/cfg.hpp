// Control flow graph representation (paper §2).
//
// Each node is a basic block: a straight-line run of instructions with a
// single entry (jump target) and single exit (jump). Directed edges model
// every potential control transfer; probabilities annotate edges for the
// profile-driven predictor used by pre-decompress-single.
//
// A Cfg can be built from an assembled isa::Program (cfg::build_cfg) or
// constructed directly for synthetic graphs (the paper's Figures 1/2/5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "support/assert.hpp"

namespace apcc::cfg {

using BlockId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr BlockId kInvalidBlock =
    std::numeric_limits<BlockId>::max();

/// What kind of control transfer an edge models.
enum class EdgeKind : std::uint8_t {
  kFallThrough,  // sequential flow / branch not taken
  kBranchTaken,  // conditional branch taken
  kJump,         // unconditional direct jump
  kCall,         // call-site block -> callee entry block
  kReturn,       // callee return block -> block after the call site
};

[[nodiscard]] const char* edge_kind_name(EdgeKind kind);

/// A directed CFG edge. Its kind lives in the Cfg (Cfg::edge_kind), so
/// an edge carries no padding.
struct Edge {
  BlockId from = kInvalidBlock;
  BlockId to = kInvalidBlock;
  /// Probability that control leaving `from` takes this edge. Out-edge
  /// probabilities of a block sum to 1 after normalize_probabilities().
  double probability = 0.0;
};
static_assert(sizeof(Edge) == 16);

/// A basic block node. Its edge lists and display name live in the Cfg
/// (Cfg::out_edges / in_edges / note), so a block owns no heap.
struct BasicBlock {
  BlockId id = kInvalidBlock;
  std::uint32_t first_word = 0;   // word index in the program image
  std::uint32_t word_count = 0;   // straight-line length
  bool has_indirect_successors = false;  // jr through unknown target
  bool is_exit = false;                  // ends in halt (program exit)

  [[nodiscard]] std::uint64_t size_bytes() const {
    return std::uint64_t{word_count} * 4;
  }
};
static_assert(sizeof(BasicBlock) <= 16);

/// The graph, in flat arrays; ids are stable. Each block's out-edge and
/// in-edge lists are threaded through the edge array as circular lists:
/// a block keeps only each list's last edge, each edge a next-out and a
/// next-in link, and a list's last edge links back to its first. A list
/// is walked in insertion order, which is ascending edge id; the
/// analyses' visit orders, and so every result built on them, depend on
/// it.
class Cfg {
 public:
  inline static constexpr EdgeId kNoEdge = std::numeric_limits<EdgeId>::max();

 private:
  /// Last edges of one block's two lists (kNoEdge when empty).
  struct Adjacency {
    EdgeId last_out = kNoEdge;
    EdgeId last_in = kNoEdge;
  };

  /// One edge's links to the next edge of its `from` block's out-list
  /// and of its `to` block's in-list; a list's last edge links to its
  /// first.
  struct EdgeLinks {
    EdgeId next_out = kNoEdge;
    EdgeId next_in = kNoEdge;
  };

 public:
  /// One block's out- or in-edge ids, in ascending order. A view into
  /// the graph, valid while the graph lives and gains no edge.
  class EdgeList {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = EdgeId;
      using difference_type = std::ptrdiff_t;
      using pointer = const EdgeId*;
      using reference = EdgeId;

      iterator() = default;
      iterator(EdgeId at, EdgeId last, const EdgeLinks* links,
               EdgeId EdgeLinks::*next)
          : at_(at), last_(last), links_(links), next_(next) {}

      EdgeId operator*() const { return at_; }
      iterator& operator++() {
        at_ = at_ == last_ ? kNoEdge : links_[at_].*next_;
        return *this;
      }
      iterator operator++(int) {
        const iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& other) const {
        return at_ == other.at_;
      }

     private:
      EdgeId at_ = kNoEdge;
      EdgeId last_ = kNoEdge;
      const EdgeLinks* links_ = nullptr;
      EdgeId EdgeLinks::*next_ = nullptr;
    };

    EdgeList(EdgeId last, const EdgeLinks* links, EdgeId EdgeLinks::*next)
        : last_(last), links_(links), next_(next) {}

    [[nodiscard]] iterator begin() const {
      return {empty() ? kNoEdge : links_[last_].*next_, last_, links_, next_};
    }
    [[nodiscard]] iterator end() const {
      return {kNoEdge, last_, links_, next_};
    }
    [[nodiscard]] bool empty() const { return last_ == kNoEdge; }
    /// Walks the list.
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(std::distance(begin(), end()));
    }

   private:
    EdgeId last_;
    const EdgeLinks* links_;
    EdgeId EdgeLinks::*next_;
  };

  /// Append a block; returns its id.
  BlockId add_block(std::uint32_t first_word, std::uint32_t word_count,
                    std::string_view note = {});

  /// Append an edge; returns its id. Duplicate (from,to,kind) pairs are
  /// rejected -- the builder must merge parallel edges itself.
  EdgeId add_edge(BlockId from, BlockId to, EdgeKind kind,
                  double probability = 0.0);

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const BasicBlock& block(BlockId id) const {
    APCC_CHECK(id < blocks_.size(), "block id out of range");
    return blocks_[id];
  }
  [[nodiscard]] BasicBlock& block(BlockId id) {
    APCC_CHECK(id < blocks_.size(), "block id out of range");
    return blocks_[id];
  }
  [[nodiscard]] const std::vector<BasicBlock>& blocks() const {
    return blocks_;
  }

  /// Display name given to add_block ("B3", function name, ...); empty
  /// if none.
  [[nodiscard]] std::string_view note(BlockId id) const;

  /// Edges leaving / entering `id`, in insertion (ascending id) order.
  [[nodiscard]] EdgeList out_edges(BlockId id) const {
    APCC_CHECK(id < blocks_.size(), "block id out of range");
    return EdgeList(adjacency_[id].last_out, links_.data(),
                    &EdgeLinks::next_out);
  }
  [[nodiscard]] EdgeList in_edges(BlockId id) const {
    APCC_CHECK(id < blocks_.size(), "block id out of range");
    return EdgeList(adjacency_[id].last_in, links_.data(),
                    &EdgeLinks::next_in);
  }

  [[nodiscard]] const Edge& edge(EdgeId id) const {
    APCC_CHECK(id < edges_.size(), "edge id out of range");
    return edges_[id];
  }
  [[nodiscard]] Edge& edge(EdgeId id) {
    APCC_CHECK(id < edges_.size(), "edge id out of range");
    return edges_[id];
  }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  /// The kind add_edge gave edge `id`.
  [[nodiscard]] EdgeKind edge_kind(EdgeId id) const {
    APCC_CHECK(id < edges_.size(), "edge id out of range");
    return edge_kinds_[id];
  }

  [[nodiscard]] BlockId entry() const { return entry_; }
  void set_entry(BlockId id);

  /// Edge from `from` to `to` if one exists (first match).
  [[nodiscard]] EdgeId find_edge(BlockId from, BlockId to) const {
    for (const EdgeId e : out_edges(from)) {
      if (edges_[e].to == to) return e;
    }
    return kNoEdge;
  }

  /// Give every block's out-edges probabilities summing to 1. Edges whose
  /// probability is unset (0) share the residual mass uniformly.
  void normalize_probabilities();

  /// Drop every array's growth slack, once the graph is complete.
  void shrink_to_fit();

  /// Total image size covered by the blocks.
  [[nodiscard]] std::uint64_t total_code_bytes() const;

  /// Structural sanity checks -- including that every block's lists
  /// hold exactly the edges with that endpoint, in ascending id, end at
  /// the block's stored last edge and close back to their first --
  /// throws AssertionError on corruption.
  void validate() const;

 private:
  /// Where one noted block's note ends in `all_notes_`; it starts where
  /// the previous entry's ends.
  struct NoteEnd {
    BlockId block = kInvalidBlock;
    std::uint32_t end = 0;
  };

  /// Append `id` to the circular list whose last edge is `last`.
  void append(EdgeId& last, EdgeId id, EdgeId EdgeLinks::*next);

  std::vector<BasicBlock> blocks_;
  std::vector<Adjacency> adjacency_;  // per block
  std::vector<Edge> edges_;
  std::vector<EdgeKind> edge_kinds_;  // per edge
  std::vector<EdgeLinks> links_;      // per edge
  std::string all_notes_;  // the non-empty notes, back to back
  std::vector<NoteEnd> note_ends_;  // per noted block, in block order
  BlockId entry_ = kInvalidBlock;
};

}  // namespace apcc::cfg
