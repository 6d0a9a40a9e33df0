// Policy and cost-model configuration for the APCC runtime.
//
// This is the paper's tunable surface: the compression-side k, the
// decompression strategy (Figure 3's design space), the pre-decompression
// k, the predictor for pre-decompress-single, the §2 memory budget, and
// the thread model -- plus the ablation switches DESIGN.md calls out.
#pragma once

#include <cstdint>

#include "support/names.hpp"

namespace apcc::runtime {

/// Figure 3: the decompression design space.
enum class DecompressionStrategy : std::uint8_t {
  kOnDemand,    // lazy: decompress in the exception handler when reached
  kPreAll,      // k-edge, pre-decompress-all
  kPreSingle,   // k-edge, pre-decompress-single
};

inline constexpr NamedValue<DecompressionStrategy> kStrategyNames[] = {
    {DecompressionStrategy::kOnDemand, "on-demand"},
    {DecompressionStrategy::kPreAll, "pre-all"},
    {DecompressionStrategy::kPreSingle, "pre-single"},
};

[[nodiscard]] inline const char* strategy_name(DecompressionStrategy s) {
  return name_of(kStrategyNames, s);
}

/// Whether a strategy plans pre-decompressions, and so reads k-edge
/// frontier geometry (a runtime::FrontierCache). On-demand reads none.
[[nodiscard]] inline bool plans_ahead(DecompressionStrategy s) {
  return s != DecompressionStrategy::kOnDemand;
}

/// Predictor choices for pre-decompress-single (E7 ablation).
enum class PredictorKind : std::uint8_t {
  kProfile,  // argmax expected-visit score under profiled edge probabilities
  kStatic,   // structural heuristic: deepest loop, then nearest, then id
  kOracle,   // peeks at the future trace (upper bound)
};

inline constexpr NamedValue<PredictorKind> kPredictorNames[] = {
    {PredictorKind::kProfile, "profile"},
    {PredictorKind::kStatic, "static"},
    {PredictorKind::kOracle, "oracle"},
};

[[nodiscard]] inline const char* predictor_name(PredictorKind p) {
  return name_of(kPredictorNames, p);
}

/// Victim selection for §2 budget mode ("LRU or a similar strategy").
enum class VictimPolicy : std::uint8_t {
  kLru,      // least recently used (the paper's suggestion)
  kMru,      // most recently used (anti-LRU strawman for E9)
  kLargest,  // biggest decompressed copy (frees the most bytes per evict)
};

inline constexpr NamedValue<VictimPolicy> kVictimNames[] = {
    {VictimPolicy::kLru, "lru"},
    {VictimPolicy::kMru, "mru"},
    {VictimPolicy::kLargest, "largest"},
};

[[nodiscard]] inline const char* victim_policy_name(VictimPolicy p) {
  return name_of(kVictimNames, p);
}

/// Per-event cycle costs of the runtime mechanism (paper §5). Codec
/// (de)compression cycles come from compress::CodecCosts.
struct CostModel {
  double cycles_per_instruction = 1.0;
  std::uint64_t exception_cycles = 250;       // protection fault + handler
  std::uint64_t patch_branch_cycles = 12;     // retarget one branch site
  std::uint64_t unpatch_branch_cycles = 12;   // restore one branch site
  std::uint64_t delete_block_cycles = 20;     // free a decompressed copy
  std::uint64_t alloc_block_cycles = 24;      // allocator work per placement
  std::uint64_t dispatch_job_cycles = 8;      // enqueue work for a helper
};

/// CostModel's key table: calls f(wire key, that cost of each model)
/// once per cost, in wire order. The wire codec's `costs` kvs and
/// serving::validate's range checks both iterate it.
template <typename F, typename... Models>
constexpr void for_each_cost(F&& f, Models&... models) {
  f("cpi", models.cycles_per_instruction...);
  f("exception", models.exception_cycles...);
  f("patch", models.patch_branch_cycles...);
  f("unpatch", models.unpatch_branch_cycles...);
  f("delete", models.delete_block_cycles...);
  f("alloc", models.alloc_block_cycles...);
  f("dispatch", models.dispatch_job_cycles...);
}

/// The complete policy knob set.
struct Policy {
  /// k for the k-edge *compression* algorithm (§3): a decompressed block
  /// is deleted when k edges have been traversed since its last execution.
  std::uint32_t compress_k = 2;

  DecompressionStrategy strategy = DecompressionStrategy::kOnDemand;

  /// k for k-edge *pre-decompression* (§4); unused for on-demand.
  std::uint32_t predecompress_k = 2;

  PredictorKind predictor = PredictorKind::kProfile;

  /// Decompressed-area capacity in bytes (§2 budget mode). kUnbounded
  /// reproduces the paper's default unrestricted configuration.
  static constexpr std::uint64_t kUnbounded = UINT64_MAX;
  std::uint64_t memory_budget = kUnbounded;

  /// Victim selection when the budget forces an eviction (E9).
  VictimPolicy victim_policy = VictimPolicy::kLru;

  /// Parallel decompression helper units (decompression bandwidth). One
  /// unit models a single helper thread / decoder engine; more units
  /// model hardware parallelism. The pre-decompression strategies only
  /// pay off when this bandwidth keeps up with the request rate (E8).
  unsigned decompress_units = 1;

  /// Thread model (§3/§4): true = the compression/decompression threads
  /// run in the background on idle cycles; false = their work lands in
  /// the execution critical path (single-threaded ablation).
  bool background_compression = true;
  bool background_decompression = true;

  /// §5 remember sets: patch branches to decompressed copies so re-entry
  /// skips the exception. Disabled, every entry pays the exception (E6).
  bool use_remember_sets = true;

  /// Ablation: actually re-run the codec when "compressing" a block back,
  /// instead of the paper's delete-the-copy design (E6).
  bool recompress_for_real = false;
};

}  // namespace apcc::runtime
