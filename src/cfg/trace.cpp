#include "cfg/trace.hpp"

namespace apcc::cfg {

BlockTraceBuilder::BlockTraceBuilder(const Cfg& cfg,
                                     std::span<const BlockId> word_to_block)
    : cfg_(cfg), word_to_block_(word_to_block.begin(), word_to_block.end()) {}

void BlockTraceBuilder::on_pc(std::uint32_t word) {
  APCC_CHECK(word < word_to_block_.size(), "pc outside mapped image");
  const BlockId b = word_to_block_[word];
  APCC_CHECK(b != kInvalidBlock, "pc in unmapped word");
  const bool entered_new_block = (b != current_);
  const bool reentered_same_block =
      (b == current_ && word == cfg_.block(b).first_word);
  if (entered_new_block || reentered_same_block) {
    current_ = b;
    trace_.push_back(b);
  }
}

void validate_trace(const Cfg& cfg, const BlockTrace& trace) {
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    const BlockId from = trace[i];
    const BlockId to = trace[i + 1];
    APCC_CHECK(from < cfg.block_count() && to < cfg.block_count(),
               "trace block id out of range");
    if (cfg.block(from).has_indirect_successors) continue;
    APCC_CHECK(cfg.find_edge(from, to) != Cfg::kNoEdge,
               "trace transition " + std::to_string(from) + " -> " +
                   std::to_string(to) + " has no CFG edge");
  }
}

std::vector<bool> exited_blocks(const Cfg& cfg, const BlockTrace& trace) {
  std::vector<bool> exited(cfg.block_count(), false);
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    APCC_CHECK(trace[i] < exited.size(), "trace block id out of range");
    exited[trace[i]] = true;
  }
  return exited;
}

}  // namespace apcc::cfg
