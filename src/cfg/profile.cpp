#include "cfg/profile.hpp"

#include <algorithm>

namespace apcc::cfg {

EdgeProfile::EdgeProfile(const Cfg& cfg)
    : cfg_(cfg),
      edge_counts_(cfg.edge_count(), 0),
      block_counts_(cfg.block_count(), 0) {}

void EdgeProfile::add_trace(const BlockTrace& trace) {
  if (trace.empty()) return;
  ++block_counts_[trace.front()];
  ++total_;
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    record_transition(trace[i], trace[i + 1]);
    ++block_counts_[trace[i + 1]];
    ++total_;
  }
}

void EdgeProfile::record_transition(BlockId from, BlockId to) {
  APCC_CHECK(from < cfg_.block_count() && to < cfg_.block_count(),
             "transition block id out of range");
  const EdgeId e = cfg_.find_edge(from, to);
  if (e == Cfg::kNoEdge) {
    ++unmatched_;
    return;
  }
  ++edge_counts_[e];
}

std::uint64_t EdgeProfile::edge_count(EdgeId e) const {
  APCC_CHECK(e < edge_counts_.size(), "edge id out of range");
  return edge_counts_[e];
}

std::uint64_t EdgeProfile::block_count(BlockId b) const {
  APCC_CHECK(b < block_counts_.size(), "block id out of range");
  return block_counts_[b];
}

void EdgeProfile::apply_to(Cfg& cfg) const {
  APCC_CHECK(cfg.edge_count() == edge_counts_.size(),
             "profile built for a different CFG");
  for (BlockId b = 0; b < cfg.block_count(); ++b) {
    const Cfg::EdgeList out = cfg.out_edges(b);
    std::uint64_t total = 0;
    for (const EdgeId e : out) total += edge_counts_[e];
    if (total == 0) continue;  // unobserved: keep prior probabilities
    for (const EdgeId e : out) {
      cfg.edge(e).probability = static_cast<double>(edge_counts_[e]) /
                                static_cast<double>(total);
    }
  }
  cfg.normalize_probabilities();
}

EdgeId EdgeProfile::hottest_out_edge(BlockId b) const {
  APCC_CHECK(b < cfg_.block_count(), "block id out of range");
  EdgeId best = Cfg::kNoEdge;
  std::uint64_t best_count = 0;
  for (const EdgeId e : cfg_.out_edges(b)) {
    if (edge_counts_[e] > best_count) {
      best_count = edge_counts_[e];
      best = e;
    }
  }
  return best;
}

double EdgeProfile::hot_block_coverage(std::size_t n) const {
  if (total_ == 0) return 0.0;
  std::vector<std::uint64_t> counts = block_counts_;
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < std::min(n, counts.size()); ++i) {
    covered += counts[i];
  }
  return static_cast<double>(covered) / static_cast<double>(total_);
}

}  // namespace apcc::cfg
