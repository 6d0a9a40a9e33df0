#include "cfg/cfg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace apcc::cfg {

const char* edge_kind_name(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kFallThrough: return "fallthrough";
    case EdgeKind::kBranchTaken: return "taken";
    case EdgeKind::kJump: return "jump";
    case EdgeKind::kCall: return "call";
    case EdgeKind::kReturn: return "return";
  }
  return "?";
}

BlockId Cfg::add_block(std::uint32_t first_word, std::uint32_t word_count,
                       std::string_view note) {
  const auto id = static_cast<BlockId>(blocks_.size());
  blocks_.push_back(BasicBlock{id, first_word, word_count});
  adjacency_.emplace_back();
  if (!note.empty()) {
    all_notes_ += note;
    APCC_CHECK(
        all_notes_.size() <= std::numeric_limits<std::uint32_t>::max(),
        "block notes exceed 4 GiB");
    note_ends_.push_back(
        NoteEnd{id, static_cast<std::uint32_t>(all_notes_.size())});
  }
  if (entry_ == kInvalidBlock) {
    entry_ = id;
  }
  return id;
}

EdgeId Cfg::add_edge(BlockId from, BlockId to, EdgeKind kind,
                     double probability) {
  APCC_CHECK(from < blocks_.size() && to < blocks_.size(),
             "edge endpoint out of range");
  for (const EdgeId e : out_edges(from)) {
    APCC_CHECK(!(edges_[e].to == to && edge_kinds_[e] == kind),
               "duplicate edge");
  }
  const auto id = static_cast<EdgeId>(edges_.size());
  APCC_CHECK(id != kNoEdge, "edge count exceeds the id space");
  edges_.push_back(Edge{from, to, probability});
  edge_kinds_.push_back(kind);
  links_.emplace_back();
  append(adjacency_[from].last_out, id, &EdgeLinks::next_out);
  append(adjacency_[to].last_in, id, &EdgeLinks::next_in);
  return id;
}

void Cfg::append(EdgeId& last, EdgeId id, EdgeId EdgeLinks::*next) {
  // The new edge becomes the list's last, linking back to its first, so
  // a list stays in ascending id order.
  if (last == kNoEdge) {
    links_[id].*next = id;
  } else {
    links_[id].*next = links_[last].*next;
    links_[last].*next = id;
  }
  last = id;
}

void Cfg::set_entry(BlockId id) {
  APCC_CHECK(id < blocks_.size(), "entry id out of range");
  entry_ = id;
}

std::string_view Cfg::note(BlockId id) const {
  APCC_CHECK(id < blocks_.size(), "block id out of range");
  const auto it = std::ranges::lower_bound(note_ends_, id, {}, &NoteEnd::block);
  if (it == note_ends_.end() || it->block != id) return {};
  const std::uint32_t begin = it == note_ends_.begin() ? 0 : (it - 1)->end;
  return std::string_view(all_notes_).substr(begin, it->end - begin);
}

void Cfg::normalize_probabilities() {
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    const EdgeList out = out_edges(b);
    if (out.empty()) continue;
    double assigned = 0.0;
    std::size_t unset = 0;
    for (const EdgeId e : out) {
      if (edges_[e].probability > 0.0) {
        assigned += edges_[e].probability;
      } else {
        ++unset;
      }
    }
    if (unset > 0) {
      const double residual = assigned < 1.0 ? (1.0 - assigned) : 0.0;
      const double each = residual / static_cast<double>(unset);
      for (const EdgeId e : out) {
        if (edges_[e].probability <= 0.0) {
          edges_[e].probability = each;
        }
      }
      assigned += residual;
    }
    // Rescale so probabilities sum to exactly 1.
    if (assigned > 0.0) {
      for (const EdgeId e : out) {
        edges_[e].probability /= assigned;
      }
    } else {
      const double each = 1.0 / static_cast<double>(out.size());
      for (const EdgeId e : out) {
        edges_[e].probability = each;
      }
    }
  }
}

void Cfg::shrink_to_fit() {
  blocks_.shrink_to_fit();
  adjacency_.shrink_to_fit();
  edges_.shrink_to_fit();
  edge_kinds_.shrink_to_fit();
  links_.shrink_to_fit();
  all_notes_.shrink_to_fit();
  note_ends_.shrink_to_fit();
}

std::uint64_t Cfg::total_code_bytes() const {
  std::uint64_t total = 0;
  for (const auto& b : blocks_) {
    total += b.size_bytes();
  }
  return total;
}

void Cfg::validate() const {
  APCC_ASSERT(entry_ == kInvalidBlock || entry_ < blocks_.size(),
              "entry out of range");
  APCC_ASSERT(adjacency_.size() == blocks_.size(),
              "per-block arrays out of step");
  APCC_ASSERT(edge_kinds_.size() == edges_.size() &&
                  links_.size() == edges_.size(),
              "per-edge arrays out of step");
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    APCC_ASSERT(blocks_[i].id == i, "block id mismatch");
  }
  // The noted blocks ascend, each with a non-empty note, and the notes
  // tile the arena.
  std::uint32_t note_begin = 0;
  for (std::size_t i = 0; i < note_ends_.size(); ++i) {
    APCC_ASSERT(note_ends_[i].block < blocks_.size() &&
                    (i == 0 || note_ends_[i - 1].block < note_ends_[i].block) &&
                    note_begin < note_ends_[i].end,
                "note table out of order");
    note_begin = note_ends_[i].end;
  }
  APCC_ASSERT(note_begin == all_notes_.size(),
              "note table does not cover the note arena");
  for (const auto& e : edges_) {
    APCC_ASSERT(e.from < blocks_.size() && e.to < blocks_.size(),
                "edge endpoint out of range");
    APCC_ASSERT(std::isfinite(e.probability) && e.probability >= 0.0,
                "edge probability must be finite and non-negative");
  }
  // The lists and the endpoints agree: every block's out-list (in-list)
  // holds exactly the edges whose `from` (`to`) is that block, in
  // ascending id, ends at the block's stored last edge, and that edge
  // links back to the lowest such id. The id order also ends the walk
  // of a corrupt list.
  std::vector<EdgeId> first_out(blocks_.size(), kNoEdge);
  std::vector<EdgeId> first_in(blocks_.size(), kNoEdge);
  for (auto e = static_cast<EdgeId>(edges_.size()); e-- > 0;) {
    first_out[edges_[e].from] = e;
    first_in[edges_[e].to] = e;
  }
  // Checks one list; returns its length.
  const auto check_list = [this](BlockId b, EdgeId first, EdgeId last,
                                 BlockId Edge::*end, EdgeId EdgeLinks::*next,
                                 const char* side) {
    APCC_ASSERT(last == kNoEdge || last < edges_.size(),
                std::string(side) + "-edge list tail out of range");
    APCC_ASSERT(last == kNoEdge ? first == kNoEdge
                                : links_[last].*next == first,
                std::string(side) + "-edge list does not close at its head");
    std::size_t length = 0;
    EdgeId prev = kNoEdge;
    for (const EdgeId e : EdgeList(last, links_.data(), next)) {
      APCC_ASSERT(e < edges_.size() && edges_[e].*end == b,
                  std::string(side) + "-edge list holds a foreign edge");
      APCC_ASSERT(prev == kNoEdge || prev < e,
                  std::string(side) + "-edge list out of id order");
      prev = e;
      ++length;
    }
    APCC_ASSERT(prev == last, std::string(side) + "-edge list tail mismatch");
    return length;
  };
  std::size_t listed_out = 0;
  std::size_t listed_in = 0;
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    listed_out += check_list(b, first_out[b], adjacency_[b].last_out,
                             &Edge::from, &EdgeLinks::next_out, "out");
    listed_in += check_list(b, first_in[b], adjacency_[b].last_in, &Edge::to,
                            &EdgeLinks::next_in, "in");
  }
  APCC_ASSERT(listed_out == edges_.size() && listed_in == edges_.size(),
              "an edge is missing from its endpoint's list");
}

}  // namespace apcc::cfg
