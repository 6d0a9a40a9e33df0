#include "runtime/predictor.hpp"

#include <algorithm>
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

OraclePredictor::OraclePredictor(const cfg::Cfg& /*cfg*/,
                                 const cfg::BlockTrace& trace)
    : trace_(trace) {}

cfg::BlockId OraclePredictor::predict(
    cfg::BlockId /*from*/, const std::vector<cfg::BlockId>& candidates,
    std::size_t trace_index) const {
  APCC_CHECK(!candidates.empty(), "predict() needs candidates");
  // Start two entries ahead: the immediately-next block cannot profit
  // from pre-decompression (there is no lead time to hide any latency),
  // so predicting it would waste the single request pre-single gets.
  for (std::size_t i = trace_index + 2; i < trace_.size(); ++i) {
    if (std::find(candidates.begin(), candidates.end(), trace_[i]) !=
        candidates.end()) {
      return trace_[i];
    }
  }
  return candidates.front();  // never reached again: arbitrary
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
