// Next-block predictors for pre-decompress-single (paper §4).
//
// "We predict the block (among these candidates) that is to be the most
//  likely one to be reached, and decompress only that block."
//
// Three implementations (E7 ablation):
//  * ProfilePredictor  -- argmax expected-visit score under the CFG's
//    (profile-derived) edge probabilities; this is the paper's intent.
//  * StaticPredictor   -- no profile: prefer blocks in deeper loops, then
//    nearer ones, then lower ids. A compile-time-only heuristic.
//  * OraclePredictor   -- consults the actual future trace; gives the
//    upper bound on what any predictor could achieve.
#pragma once

#include <memory>
#include <optional>

#include "cfg/analysis.hpp"
#include "cfg/cfg.hpp"
#include "cfg/trace.hpp"
#include "runtime/frontier_cache.hpp"
#include "runtime/policy.hpp"

namespace apcc::runtime {

/// Chooses which single candidate block to pre-decompress.
///
/// predict() is const but may fill a lazy per-block memo (like a lone
/// planner's FrontierCache), so a predictor is not thread-safe: each
/// BatchEngine::run builds its own and steps it on one thread.
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Pick one of `candidates` (non-empty, all currently compressed and
  /// within the k-edge frontier of `from`). `trace_index` is the index of
  /// the block being exited in the driving trace (used by the oracle).
  [[nodiscard]] virtual cfg::BlockId predict(
      cfg::BlockId from, const std::vector<cfg::BlockId>& candidates,
      std::size_t trace_index) const = 0;

  [[nodiscard]] virtual PredictorKind kind() const = 0;
};

/// Profile-guided predictor (paper default). The ranking of an exit
/// block's reachable blocks is a static function of (CFG, block, k), so
/// it is computed once per block, on the block's first exit, and each
/// predict() walks the memo instead of re-running reach_scores.
class ProfilePredictor final : public Predictor {
 public:
  ProfilePredictor(const cfg::Cfg& cfg, std::uint32_t k);

  [[nodiscard]] cfg::BlockId predict(
      cfg::BlockId from, const std::vector<cfg::BlockId>& candidates,
      std::size_t trace_index) const override;
  [[nodiscard]] PredictorKind kind() const override {
    return PredictorKind::kProfile;
  }

 private:
  const cfg::Cfg& cfg_;
  std::uint32_t k_;
  // Lazily filled; order_[b] (blocks in reach_scores order from the
  // exit of b) is meaningful only once ranked_[b].
  mutable std::vector<std::vector<cfg::BlockId>> order_;
  mutable std::vector<bool> ranked_;
};

/// Structural heuristic predictor. Candidate distances come from the
/// same memoized FrontierCache the planner uses (one bounded BFS per
/// exit block, ever) instead of one edge_distance BFS per candidate per
/// exit; a candidate outside the k-edge frontier of `from` (out of
/// predict()'s contract) ranks as unreachable.
///
/// Like the planner, the predictor can borrow a shared materialized
/// cache (same (CFG, k) key) instead of owning one -- campaign engines
/// pass the cache they already share with their planner.
class StaticPredictor final : public Predictor {
 public:
  StaticPredictor(const cfg::Cfg& cfg, std::uint32_t k,
                  const FrontierCache* shared_frontiers = nullptr);

  // frontiers_ may point into owned_frontiers_; a copy/move would leave
  // it aimed at the source object's storage.
  StaticPredictor(const StaticPredictor&) = delete;
  StaticPredictor& operator=(const StaticPredictor&) = delete;

  [[nodiscard]] cfg::BlockId predict(
      cfg::BlockId from, const std::vector<cfg::BlockId>& candidates,
      std::size_t trace_index) const override;
  [[nodiscard]] PredictorKind kind() const override {
    return PredictorKind::kStatic;
  }

 private:
  const cfg::Cfg& cfg_;
  std::uint32_t k_;
  std::vector<unsigned> loop_depth_;
  std::optional<FrontierCache> owned_frontiers_;
  const FrontierCache* frontiers_;
};

/// Oracle predictor: picks the candidate that the trace actually reaches
/// first after `trace_index`.
class OraclePredictor final : public Predictor {
 public:
  OraclePredictor(const cfg::Cfg& cfg, const cfg::BlockTrace& trace);

  [[nodiscard]] cfg::BlockId predict(
      cfg::BlockId from, const std::vector<cfg::BlockId>& candidates,
      std::size_t trace_index) const override;
  [[nodiscard]] PredictorKind kind() const override {
    return PredictorKind::kOracle;
  }

 private:
  const cfg::BlockTrace& trace_;
};

/// Factory keyed on PredictorKind. The oracle needs the trace; others
/// ignore it. `shared_frontiers` (optional, used by kStatic only) is a
/// materialized (CFG, k) geometry cache to borrow instead of owning.
[[nodiscard]] std::unique_ptr<Predictor> make_predictor(
    PredictorKind kind, const cfg::Cfg& cfg, std::uint32_t k,
    const cfg::BlockTrace& trace,
    const FrontierCache* shared_frontiers = nullptr);

}  // namespace apcc::runtime
