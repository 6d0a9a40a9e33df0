#include "runtime/planner.hpp"

#include "support/assert.hpp"

namespace apcc::runtime {

DecompressionPlanner::DecompressionPlanner(const cfg::Cfg& cfg,
                                           const StateTable& states,
                                           const Policy& policy,
                                           const Predictor* predictor,
                                           const FrontierCache* frontiers)
    : states_(states),
      policy_(policy),
      predictor_(predictor),
      frontiers_(frontiers) {
  if (policy_.strategy == DecompressionStrategy::kPreSingle) {
    APCC_CHECK(predictor_ != nullptr, "pre-single requires a predictor");
  }
  if (plans_ahead(policy_.strategy)) {
    APCC_CHECK(frontiers_ != nullptr,
               "a planning strategy requires a FrontierCache");
  }
  if (frontiers_ != nullptr) {
    APCC_CHECK(&frontiers_->cfg() == &cfg,
               "shared FrontierCache built on a different CFG");
    APCC_CHECK(frontiers_->k() == policy_.predecompress_k,
               "shared FrontierCache k does not match predecompress_k");
    APCC_CHECK(frontiers_->materialized(),
               "shared FrontierCache must be materialized (immutable)");
  }
}

void DecompressionPlanner::compressed_frontier(
    cfg::BlockId block, std::vector<cfg::BlockId>& out) const {
  // The cached candidates are already sorted by (distance, id); keeping
  // only the compressed ones preserves that order.
  out.clear();
  for (const cfg::BlockId c : frontiers_->candidates(block)) {
    if (states_[c].form() == BlockForm::kCompressed) out.push_back(c);
  }
}

const std::vector<cfg::BlockId>& DecompressionPlanner::plan_on_exit(
    cfg::BlockId block, std::size_t trace_index) const {
  switch (policy_.strategy) {
    case DecompressionStrategy::kOnDemand:
      plan_.clear();
      return plan_;
    case DecompressionStrategy::kPreAll:
      compressed_frontier(block, plan_);
      return plan_;
    case DecompressionStrategy::kPreSingle:
      compressed_frontier(block, candidates_);
      plan_.clear();
      if (!candidates_.empty()) {
        plan_.push_back(predictor_->predict(block, candidates_, trace_index));
      }
      return plan_;
  }
  APCC_ASSERT_FAIL("unknown decompression strategy");
}

}  // namespace apcc::runtime
