// Victim selection by a full-table scan over StateTable's public
// accessors: the reference StateTable::victim's one pass over the
// resident list is tested against.
#pragma once

#include <span>

#include "runtime/policy.hpp"
#include "runtime/state.hpp"

namespace apcc::testref {

/// The §2 budget victim among decompressed, non-executing blocks other
/// than `protect`: least recent use for LRU, most recent for MRU, the
/// biggest size > 0 for largest; ties go to the lowest id.
/// kInvalidBlock when no block qualifies. `sizes` are the block sizes
/// the test hands StateTable::victim through size_of(sizes).
inline cfg::BlockId scan_victim(const runtime::StateTable& t,
                                runtime::VictimPolicy policy,
                                cfg::BlockId protect,
                                std::span<const std::uint64_t> sizes) {
  cfg::BlockId victim = cfg::kInvalidBlock;
  for (cfg::BlockId b = 0; b < t.size(); ++b) {
    const runtime::BlockState& s = t[b];
    if (s.form() != runtime::BlockForm::kDecompressed || s.executing() ||
        b == protect) {
      continue;
    }
    if (policy == runtime::VictimPolicy::kLargest && sizes[b] == 0) continue;
    if (victim == cfg::kInvalidBlock) {
      victim = b;
      continue;
    }
    // The ascending scan keeps the first block with the winning key.
    const std::uint64_t use = s.last_use_time();
    const std::uint64_t best_use = t[victim].last_use_time();
    switch (policy) {
      case runtime::VictimPolicy::kLru:
        if (use < best_use) victim = b;
        break;
      case runtime::VictimPolicy::kMru:
        if (use > best_use) victim = b;
        break;
      case runtime::VictimPolicy::kLargest:
        if (sizes[b] > sizes[victim]) victim = b;
        break;
    }
  }
  return victim;
}

/// The block-size lookup StateTable::victim takes, over a test's table.
inline auto size_of(std::span<const std::uint64_t> sizes) {
  return [sizes](cfg::BlockId b) { return sizes[b]; };
}

}  // namespace apcc::testref
