#include "cfg/cfg.hpp"

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
  all_notes_ += note;
  APCC_CHECK(
      all_notes_.size() <= std::numeric_limits<std::uint32_t>::max(),
      "block notes exceed 4 GiB");
  note_end_.push_back(static_cast<std::uint32_t>(all_notes_.size()));
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
    APCC_CHECK(!(edges_[e].to == to && edges_[e].kind == kind),
               "duplicate edge");
  }
  const auto id = static_cast<EdgeId>(edges_.size());
  APCC_CHECK(id != kNoEdge, "edge count exceeds the id space");
  edges_.push_back(Edge{from, to, kind, probability});
  links_.emplace_back();
  // Append at each list's tail, so a list stays in ascending id order.
  Adjacency& src = adjacency_[from];
  (src.last_out == kNoEdge ? src.first_out : links_[src.last_out].next_out) =
      id;
  src.last_out = id;
  Adjacency& dst = adjacency_[to];
  (dst.last_in == kNoEdge ? dst.first_in : links_[dst.last_in].next_in) = id;
  dst.last_in = id;
  return id;
}

void Cfg::set_entry(BlockId id) {
  APCC_CHECK(id < blocks_.size(), "entry id out of range");
  entry_ = id;
}

std::string_view Cfg::note(BlockId id) const {
  APCC_CHECK(id < blocks_.size(), "block id out of range");
  const std::uint32_t begin = id == 0 ? 0 : note_end_[id - 1];
  return std::string_view(all_notes_).substr(begin, note_end_[id] - begin);
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
  links_.shrink_to_fit();
  all_notes_.shrink_to_fit();
  note_end_.shrink_to_fit();
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
  APCC_ASSERT(adjacency_.size() == blocks_.size() &&
                  note_end_.size() == blocks_.size(),
              "per-block arrays out of step");
  APCC_ASSERT(links_.size() == edges_.size(), "per-edge links out of step");
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    APCC_ASSERT(blocks_[i].id == i, "block id mismatch");
  }
  for (const auto& e : edges_) {
    APCC_ASSERT(e.from < blocks_.size() && e.to < blocks_.size(),
                "edge endpoint out of range");
    APCC_ASSERT(std::isfinite(e.probability) && e.probability >= 0.0,
                "edge probability must be finite and non-negative");
  }
  // The lists and the endpoints agree: every block's out-list (in-list)
  // holds exactly the edges whose `from` (`to`) is that block, in
  // ascending id, and ends at the recorded tail. The id order also ends
  // the walk of a corrupt list.
  std::size_t listed_out = 0;
  std::size_t listed_in = 0;
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    EdgeId prev = kNoEdge;
    for (const EdgeId e : out_edges(b)) {
      APCC_ASSERT(e < edges_.size() && edges_[e].from == b,
                  "out-edge list holds a foreign edge");
      APCC_ASSERT(prev == kNoEdge || prev < e,
                  "out-edge list out of id order");
      prev = e;
      ++listed_out;
    }
    APCC_ASSERT(prev == adjacency_[b].last_out, "out-edge list tail mismatch");
    prev = kNoEdge;
    for (const EdgeId e : in_edges(b)) {
      APCC_ASSERT(e < edges_.size() && edges_[e].to == b,
                  "in-edge list holds a foreign edge");
      APCC_ASSERT(prev == kNoEdge || prev < e, "in-edge list out of id order");
      prev = e;
      ++listed_in;
    }
    APCC_ASSERT(prev == adjacency_[b].last_in, "in-edge list tail mismatch");
  }
  APCC_ASSERT(listed_out == edges_.size() && listed_in == edges_.size(),
              "an edge is missing from its endpoint's list");
}

}  // namespace apcc::cfg
