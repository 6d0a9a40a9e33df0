#include "cfg/builder.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace apcc::cfg {

namespace {

/// Resolved direct target of a control instruction at `word`, or nullopt.
std::optional<std::uint32_t> direct_target(const isa::Instruction& inst,
                                           std::uint32_t word) {
  const auto& info = isa::opcode_info(inst.opcode);
  if (info.is_branch) {
    return static_cast<std::uint32_t>(
        static_cast<std::int64_t>(word) + 1 + inst.imm);
  }
  if (info.is_jump) {
    return static_cast<std::uint32_t>(inst.imm);
  }
  return std::nullopt;
}

// One byte per word marks the leaders.
constexpr std::uint8_t kLeader = 1;
constexpr std::uint8_t kFunctionStart = 2;  // a non-empty function's first

}  // namespace

BuildResult build_cfg(const isa::Program& program) {
  const std::uint32_t n = program.word_count();
  APCC_CHECK(n > 0, "cannot build a CFG for an empty program");
  const std::span<const std::uint32_t> words = program.words();

  // Pass 1: mark the leaders.
  std::vector<std::uint8_t> mark(n, 0);
  mark[program.entry_word()] |= kLeader;
  for (const auto& f : program.functions()) {
    if (f.word_count > 0) mark[f.first_word] |= kLeader | kFunctionStart;
  }
  for (std::uint32_t w = 0; w < n; ++w) {
    const isa::Instruction inst = isa::decode(words[w]);
    if (!inst.is_control()) continue;
    if (const auto target = direct_target(inst, w)) {
      APCC_CHECK(*target < n, "control target outside image at word " +
                                  std::to_string(w));
      mark[*target] |= kLeader;
    }
    if (w + 1 < n) {
      mark[w + 1] |= kLeader;  // instruction after a control transfer
    }
  }

  // Pass 2: number the blocks between consecutive leaders in word order.
  // Words before the first leader belong to no block.
  BuildResult result;
  Cfg& cfg = result.cfg;
  result.word_to_block.assign(n, kInvalidBlock);
  std::uint32_t w = 0;
  while (w < n && (mark[w] & kLeader) == 0) ++w;
  while (w < n) {
    const std::uint32_t first = w;
    do {
      ++w;
    } while (w < n && (mark[w] & kLeader) == 0);
    std::string_view note;
    if ((mark[first] & kFunctionStart) != 0) {
      if (const auto* f = program.function_containing(first);
          f != nullptr && f->first_word == first) {
        note = f->name;
      }
    }
    const BlockId id = cfg.add_block(first, w - first, note);
    std::fill(result.word_to_block.begin() + first,
              result.word_to_block.begin() + w, id);
  }
  // A leader is the first word of its block, so word_to_block maps a
  // target or a resume word to the block it starts.
  const std::vector<BlockId>& block_at = result.word_to_block;
  cfg.set_entry(block_at[program.entry_word()]);

  // Pass 3: edges, in block order. Each call's (callee word, resume
  // block) is kept for the return edges, and each return block.
  std::vector<std::pair<std::uint32_t, BlockId>> resumes;
  std::vector<BlockId> returns;
  for (BlockId id = 0; id < cfg.block_count(); ++id) {
    const BasicBlock& b = cfg.block(id);
    const std::uint32_t last = b.first_word + b.word_count - 1;
    const isa::Instruction term = isa::decode(words[last]);
    const auto& info = isa::opcode_info(term.opcode);

    if (info.is_branch) {
      cfg.add_edge(id, block_at[*direct_target(term, last)],
                   EdgeKind::kBranchTaken);
      if (last + 1 < n) {
        const BlockId ft = block_at[last + 1];
        if (cfg.find_edge(id, ft) == Cfg::kNoEdge) {
          cfg.add_edge(id, ft, EdgeKind::kFallThrough);
        }
      }
    } else if (info.is_call) {
      const std::uint32_t target = *direct_target(term, last);
      cfg.add_edge(id, block_at[target], EdgeKind::kCall);
      if (last + 1 < n) resumes.emplace_back(target, block_at[last + 1]);
    } else if (info.is_jump) {
      cfg.add_edge(id, block_at[*direct_target(term, last)], EdgeKind::kJump);
    } else if (info.is_return) {
      returns.push_back(id);  // wired in pass 4 once all calls are known
    } else if (info.is_indirect) {
      cfg.block(id).has_indirect_successors = true;
    } else if (info.is_halt) {
      cfg.block(id).is_exit = true;
    } else if (last + 1 < n) {
      // Straight-line fall-through into the next leader.
      cfg.add_edge(id, block_at[last + 1], EdgeKind::kFallThrough);
    } else {
      cfg.block(id).is_exit = true;  // runs off the end of the image
    }
  }

  // Pass 4: return edges. A `ret` block of function F flows to every
  // block that resumes after a call to F, in call-site order: the
  // resumes were found in block order, so sorting by (callee, block)
  // keeps each callee's in that order.
  std::ranges::sort(resumes);
  for (const BlockId id : returns) {
    const BasicBlock& b = cfg.block(id);
    const auto* f =
        program.function_containing(b.first_word + b.word_count - 1);
    if (f == nullptr) {
      cfg.block(id).has_indirect_successors = true;
      continue;
    }
    const auto callers = std::ranges::equal_range(
        resumes, f->first_word, {}, &std::pair<std::uint32_t, BlockId>::first);
    if (callers.empty()) {
      // Function never called directly (e.g. the entry function): its
      // return exits the program.
      cfg.block(id).is_exit = true;
      continue;
    }
    for (const auto& caller : callers) {
      if (cfg.find_edge(id, caller.second) == Cfg::kNoEdge) {
        cfg.add_edge(id, caller.second, EdgeKind::kReturn);
      }
    }
  }

  cfg.normalize_probabilities();
  cfg.shrink_to_fit();
  cfg.validate();
  return result;
}

}  // namespace apcc::cfg
