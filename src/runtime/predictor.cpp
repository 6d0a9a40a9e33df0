#include "runtime/predictor.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "support/assert.hpp"

namespace apcc::runtime {

ProfilePredictor::ProfilePredictor(const cfg::Cfg& cfg, std::uint32_t k)
    : cfg_(cfg), k_(k), ranking_of_(cfg.block_count()) {}

cfg::BlockId ProfilePredictor::predict(
    cfg::BlockId from, const std::vector<cfg::BlockId>& candidates,
    std::size_t /*trace_index*/) const {
  APCC_CHECK(!candidates.empty(), "predict() needs candidates");
  APCC_CHECK(from < ranking_of_.size(), "block id out of range");
  Ranking& ranking = ranking_of_[from];
  if (ranking.offset == kUnranked) {
    // reach_scores is sorted by descending score; keep just the order.
    cfg::reach_scores(cfg_, from, k_, scratch_, scores_);
    APCC_CHECK(rankings_.size() + scores_.size() < kUnranked,
               "ProfilePredictor rankings exceed 2^32 entries");
    ranking.offset = static_cast<std::uint32_t>(rankings_.size());
    ranking.length = static_cast<std::uint32_t>(scores_.size());
    for (const cfg::ReachScore& rs : scores_) rankings_.push_back(rs.block);
  }
  for (const cfg::BlockId b :
       std::span(rankings_).subspan(ranking.offset, ranking.length)) {
    if (std::find(candidates.begin(), candidates.end(), b) !=
        candidates.end()) {
      return b;
    }
  }
  return candidates.front();  // unreachable under probabilities: first wins
}

StaticPredictor::StaticPredictor(const cfg::Cfg& cfg)
    : loop_depth_(cfg::loop_depths(cfg)) {}

cfg::BlockId StaticPredictor::predict(
    cfg::BlockId /*from*/, const std::vector<cfg::BlockId>& candidates,
    std::size_t /*trace_index*/) const {
  APCC_CHECK(!candidates.empty(), "predict() needs candidates");
  // Strictly deeper only: among equal depths the earliest in (distance,
  // id) order stays.
  cfg::BlockId best = candidates.front();
  for (const cfg::BlockId c : candidates) {
    if (loop_depth_[c] > loop_depth_[best]) best = c;
  }
  return best;
}

OraclePredictor::OraclePredictor(const cfg::Cfg& cfg,
                                 const cfg::BlockTrace& trace)
    : first_(cfg.block_count() + 1, 0), positions_(trace.size()) {
  APCC_CHECK(trace.size() <= std::numeric_limits<std::uint32_t>::max(),
             "oracle trace exceeds 2^32 entries");
  // Count each block's entries into first_[b + 1], then prefix-sum, so
  // first_[b] is where block b's positions start.
  for (const cfg::BlockId b : trace) {
    APCC_CHECK(b < cfg.block_count(), "trace block id out of range");
    ++first_[b + 1];
  }
  for (std::size_t b = 1; b < first_.size(); ++b) first_[b] += first_[b - 1];
  // Fill in trace order, using first_[b] as block b's cursor; each
  // cursor ends at the next block's start, so shift the table back.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    positions_[first_[trace[i]]++] = static_cast<std::uint32_t>(i);
  }
  std::copy_backward(first_.begin(), first_.end() - 1, first_.end());
  first_[0] = 0;
}

cfg::BlockId OraclePredictor::predict(
    cfg::BlockId /*from*/, const std::vector<cfg::BlockId>& candidates,
    std::size_t trace_index) const {
  APCC_CHECK(!candidates.empty(), "predict() needs candidates");
  // Start two entries ahead: the immediately-next block cannot profit
  // from pre-decompression (there is no lead time to hide any latency),
  // so predicting it would waste the single request pre-single gets.
  const std::size_t from = trace_index + 2;
  // A trace position holds one block, so the earliest next use is
  // unique: the block a forward walk from `from` would meet first.
  cfg::BlockId best = candidates.front();  // never reached again: arbitrary
  std::size_t best_position = std::numeric_limits<std::size_t>::max();
  for (const cfg::BlockId c : candidates) {
    const auto begin = positions_.begin() + first_[c];
    const auto end = positions_.begin() + first_[c + 1];
    const auto next = std::lower_bound(begin, end, from);
    if (next != end && *next < best_position) {
      best_position = *next;
      best = c;
    }
  }
  return best;
}

std::unique_ptr<Predictor> make_predictor(PredictorKind kind,
                                          const cfg::Cfg& cfg,
                                          std::uint32_t k,
                                          const cfg::BlockTrace& trace) {
  switch (kind) {
    case PredictorKind::kProfile:
      return std::make_unique<ProfilePredictor>(cfg, k);
    case PredictorKind::kStatic:
      return std::make_unique<StaticPredictor>(cfg);
    case PredictorKind::kOracle:
      return std::make_unique<OraclePredictor>(cfg, trace);
  }
  APCC_ASSERT_FAIL("unknown predictor kind");
}

}  // namespace apcc::runtime
