// Basic-block access traces -- the paper's "instruction access pattern".
//
// A BlockTrace is the sequence of basic blocks entered by an execution.
// Traces come from two sources: the functional interpreter (real program
// runs, via BlockTraceBuilder) and the profile-driven random walker in
// sim/ (for synthetic workloads).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/cfg.hpp"

namespace apcc::cfg {

/// Sequence of blocks entered, in execution order.
using BlockTrace = std::vector<BlockId>;

/// Converts a per-instruction pc stream into a block-entry trace using a
/// word->block map (from cfg::build_cfg). A block entry is recorded each
/// time execution moves into a different block or re-enters the same
/// block's first word (a self-loop iteration).
class BlockTraceBuilder {
 public:
  explicit BlockTraceBuilder(const Cfg& cfg,
                             std::span<const BlockId> word_to_block);

  /// Feed the next executed word index.
  void on_pc(std::uint32_t word);

  [[nodiscard]] const BlockTrace& trace() const { return trace_; }
  [[nodiscard]] BlockTrace take() { return std::move(trace_); }

 private:
  const Cfg& cfg_;
  std::vector<BlockId> word_to_block_;
  BlockId current_ = kInvalidBlock;
  BlockTrace trace_;
};

/// Verify that consecutive trace entries follow CFG edges (the entry may
/// appear first without a predecessor). Throws CheckError on a violation;
/// used by tests and to validate externally supplied traces.
void validate_trace(const Cfg& cfg, const BlockTrace& trace);

/// One flag per block of `cfg`: whether `trace` exits it, that is,
/// whether it is any entry but the last. A run over `trace` plans
/// pre-decompressions at these blocks and at no others. Throws
/// CheckError on a block id out of range.
[[nodiscard]] std::vector<bool> exited_blocks(const Cfg& cfg,
                                              const BlockTrace& trace);

}  // namespace apcc::cfg
