// The test-side reference CFG builder: the leader algorithm that
// cfg::build_cfg replaced, kept as the oracle the CFG differential
// (tests/cfg/builder_differential_test.cpp) holds the flat builder to.
// It keeps its leaders in a std::set and maps leader words to blocks
// through a std::map, and adds edges in block order, then return edges
// in block order; the blocks, notes, flags, edges (ids, kinds and
// probabilities) and word -> block map it yields are the contract.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cfg/builder.hpp"
#include "support/assert.hpp"

namespace apcc::testref {

namespace cfg_builder_detail {

/// Resolved direct target of a control instruction at `word`, or nullopt.
inline std::optional<std::uint32_t> direct_target(const isa::Instruction& inst,
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

}  // namespace cfg_builder_detail

/// Build the interprocedural CFG of `program` as the replaced builder did.
inline cfg::BuildResult reference_build_cfg(const isa::Program& program) {
  using cfg::BlockId;
  using cfg::Cfg;
  using cfg::EdgeKind;
  using cfg_builder_detail::direct_target;
  const std::uint32_t n = program.word_count();
  APCC_CHECK(n > 0, "cannot build a CFG for an empty program");

  // Pass 1: find leaders.
  std::set<std::uint32_t> leaders;
  leaders.insert(program.entry_word());
  for (const auto& f : program.functions()) {
    if (f.word_count > 0) leaders.insert(f.first_word);
  }
  for (std::uint32_t w = 0; w < n; ++w) {
    const isa::Instruction inst = program.instruction(w);
    if (!inst.is_control()) continue;
    if (const auto target = direct_target(inst, w)) {
      APCC_CHECK(*target < n, "control target outside image at word " +
                                  std::to_string(w));
      leaders.insert(*target);
    }
    if (w + 1 < n) {
      leaders.insert(w + 1);  // instruction after a control transfer
    }
  }

  // Pass 2: create blocks between consecutive leaders.
  cfg::BuildResult result;
  Cfg& cfg = result.cfg;
  std::map<std::uint32_t, BlockId> block_at;  // leader word -> block
  auto it = leaders.begin();
  while (it != leaders.end()) {
    const std::uint32_t first = *it;
    ++it;
    const std::uint32_t end = (it == leaders.end()) ? n : *it;
    APCC_ASSERT(end > first, "empty block span");
    std::string note;
    if (const auto* f = program.function_containing(first);
        f != nullptr && f->first_word == first) {
      note = f->name;
    }
    block_at[first] = cfg.add_block(first, end - first, note);
  }
  cfg.set_entry(block_at.at(program.entry_word()));

  result.word_to_block.assign(n, cfg::kInvalidBlock);
  for (const auto& [first, id] : block_at) {
    const auto& b = cfg.block(id);
    for (std::uint32_t w = b.first_word; w < b.first_word + b.word_count;
         ++w) {
      result.word_to_block[w] = id;
    }
  }

  // Record call sites for return-edge wiring: callee entry word ->
  // list of blocks following a call to it.
  std::map<std::uint32_t, std::vector<BlockId>> resume_blocks_of_callee;

  // Pass 3: edges.
  for (const auto& [first, id] : block_at) {
    const auto& b = cfg.block(id);
    const std::uint32_t last = b.first_word + b.word_count - 1;
    const isa::Instruction term = program.instruction(last);
    const auto& info = isa::opcode_info(term.opcode);

    if (info.is_branch) {
      const auto target = direct_target(term, last);
      APCC_ASSERT(target.has_value(), "branch without target");
      cfg.add_edge(id, block_at.at(*target), EdgeKind::kBranchTaken);
      if (last + 1 < n) {
        const BlockId ft = block_at.at(last + 1);
        if (cfg.find_edge(id, ft) == Cfg::kNoEdge) {
          cfg.add_edge(id, ft, EdgeKind::kFallThrough);
        }
      }
    } else if (info.is_call) {
      const auto target = direct_target(term, last);
      APCC_ASSERT(target.has_value(), "call without target");
      cfg.add_edge(id, block_at.at(*target), EdgeKind::kCall);
      if (last + 1 < n) {
        resume_blocks_of_callee[*target].push_back(block_at.at(last + 1));
      }
    } else if (info.is_jump) {
      const auto target = direct_target(term, last);
      APCC_ASSERT(target.has_value(), "jump without target");
      cfg.add_edge(id, block_at.at(*target), EdgeKind::kJump);
    } else if (info.is_return) {
      // Wired in pass 4 once all call sites are known.
    } else if (info.is_indirect) {
      cfg.block(id).has_indirect_successors = true;
    } else if (info.is_halt) {
      cfg.block(id).is_exit = true;
    } else if (last + 1 < n) {
      // Straight-line fall-through into the next leader.
      cfg.add_edge(id, block_at.at(last + 1), EdgeKind::kFallThrough);
    } else {
      cfg.block(id).is_exit = true;  // runs off the end of the image
    }
  }

  // Pass 4: return edges. A `ret` block of function F flows to every
  // block that resumes after a call to F.
  for (const auto& [first, id] : block_at) {
    const auto& b = cfg.block(id);
    const std::uint32_t last = b.first_word + b.word_count - 1;
    const isa::Instruction term = program.instruction(last);
    if (!isa::opcode_info(term.opcode).is_return) continue;
    const auto* f = program.function_containing(last);
    if (f == nullptr) {
      cfg.block(id).has_indirect_successors = true;
      continue;
    }
    const auto resumes = resume_blocks_of_callee.find(f->first_word);
    if (resumes == resume_blocks_of_callee.end()) {
      // Function never called directly (e.g. the entry function): its
      // return exits the program.
      cfg.block(id).is_exit = true;
      continue;
    }
    for (const BlockId resume : resumes->second) {
      if (cfg.find_edge(id, resume) == Cfg::kNoEdge) {
        cfg.add_edge(id, resume, EdgeKind::kReturn);
      }
    }
  }

  cfg.normalize_probabilities();
  cfg.shrink_to_fit();
  cfg.validate();
  return result;
}

}  // namespace apcc::testref
