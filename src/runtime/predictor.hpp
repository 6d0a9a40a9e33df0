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

#include <cstdint>
#include <memory>

#include "cfg/analysis.hpp"
#include "cfg/cfg.hpp"
#include "cfg/trace.hpp"
#include "runtime/policy.hpp"

namespace apcc::runtime {

/// Chooses which single candidate block to pre-decompress.
///
/// predict() is const but ProfilePredictor fills a lazy per-block memo,
/// so a predictor is not thread-safe: each BatchEngine::run builds its
/// own and steps it on one thread.
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Pick one of `candidates`: non-empty, all currently compressed and
  /// within the k-edge frontier of `from`, in the planner's request
  /// order -- ascending (edge distance from `from`'s exit, id).
  /// `trace_index` is the index of the block being exited in the
  /// driving trace (used by the oracle).
  [[nodiscard]] virtual cfg::BlockId predict(
      cfg::BlockId from, const std::vector<cfg::BlockId>& candidates,
      std::size_t trace_index) const = 0;

  [[nodiscard]] virtual PredictorKind kind() const = 0;
};

/// Profile-guided predictor (paper default). The ranking of an exit
/// block's reachable blocks is a static function of (CFG, block, k), so
/// it is computed once per block, on the block's first exit, and each
/// predict() walks the memo instead of re-running reach_scores. Every
/// ranking lives in one array, so a run allocates a logarithmic number
/// of times however many blocks it exits.
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
  static constexpr std::uint32_t kUnranked = UINT32_MAX;

  /// Where one block's ranking sits in `rankings_`.
  struct Ranking {
    std::uint32_t offset = kUnranked;  // until the block's first exit
    std::uint32_t length = 0;
  };

  const cfg::Cfg& cfg_;
  std::uint32_t k_;
  // Lazily filled: each ranked block's reach_scores order, back to back
  // in first-exit order, and the per-block (offset, length) into it.
  mutable std::vector<cfg::BlockId> rankings_;
  mutable std::vector<Ranking> ranking_of_;
  // reach_scores' reused scratch and output.
  mutable cfg::ReachScratch scratch_;
  mutable std::vector<cfg::ReachScore> scores_;
};

/// Structural heuristic predictor: the candidate in the deepest loop,
/// then the nearest, then the lowest id. The candidates arrive in
/// (distance, id) order, so that is the first candidate of the greatest
/// loop depth.
class StaticPredictor final : public Predictor {
 public:
  explicit StaticPredictor(const cfg::Cfg& cfg);

  [[nodiscard]] cfg::BlockId predict(
      cfg::BlockId from, const std::vector<cfg::BlockId>& candidates,
      std::size_t trace_index) const override;
  [[nodiscard]] PredictorKind kind() const override {
    return PredictorKind::kStatic;
  }

 private:
  std::vector<unsigned> loop_depth_;
};

/// Oracle predictor: picks the candidate that the trace actually reaches
/// first, counting from two entries after `trace_index`. The trace is
/// indexed once, at construction: each block's positions in ascending
/// order, in CSR form. So predict() finds each candidate's next use by
/// binary search, O(|candidates| log T) on a trace of T entries, instead
/// of walking the trace forward; it picks the block the walk would.
class OraclePredictor final : public Predictor {
 public:
  /// `trace` must hold only `cfg`'s block ids and fewer than 2^32
  /// entries; it is not kept.
  OraclePredictor(const cfg::Cfg& cfg, const cfg::BlockTrace& trace);

  [[nodiscard]] cfg::BlockId predict(
      cfg::BlockId from, const std::vector<cfg::BlockId>& candidates,
      std::size_t trace_index) const override;
  [[nodiscard]] PredictorKind kind() const override {
    return PredictorKind::kOracle;
  }

 private:
  // Block b's trace positions, ascending: positions_[first_[b],
  // first_[b+1]).
  std::vector<std::uint32_t> first_;      // block_count() + 1
  std::vector<std::uint32_t> positions_;  // one per trace entry
};

/// Factory keyed on PredictorKind. The oracle needs the trace; others
/// ignore it.
[[nodiscard]] std::unique_ptr<Predictor> make_predictor(
    PredictorKind kind, const cfg::Cfg& cfg, std::uint32_t k,
    const cfg::BlockTrace& trace);

}  // namespace apcc::runtime
