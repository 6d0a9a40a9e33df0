// CFG builder tests: leader identification, edge kinds, interprocedural
// call/return wiring, and the word->block map.
#include <gtest/gtest.h>

#include "cfg/builder.hpp"
#include "isa/assembler.hpp"

namespace apcc::cfg {
namespace {

BuildResult build(const std::string& src) {
  return build_cfg(isa::assemble(src));
}

TEST(Builder, StraightLineIsOneBlock) {
  const auto r = build(".func main\n  addi r1, r0, 1\n  nop\n  halt\n");
  EXPECT_EQ(r.cfg.block_count(), 1u);
  EXPECT_EQ(r.cfg.edge_count(), 0u);
  EXPECT_TRUE(r.cfg.block(0).is_exit);
}

TEST(Builder, BranchSplitsBlocks) {
  const auto r = build(
      ".func main\n"
      "  beq r1, r2, over\n"
      "  addi r1, r1, 1\n"
      "over:\n"
      "  halt\n");
  // Blocks: [beq], [addi], [halt].
  ASSERT_EQ(r.cfg.block_count(), 3u);
  const BlockId b0 = r.word_to_block[0];
  const BlockId b1 = r.word_to_block[1];
  const BlockId b2 = r.word_to_block[2];
  EXPECT_NE(r.cfg.find_edge(b0, b2), Cfg::kNoEdge) << "taken edge";
  EXPECT_NE(r.cfg.find_edge(b0, b1), Cfg::kNoEdge) << "fallthrough edge";
  EXPECT_NE(r.cfg.find_edge(b1, b2), Cfg::kNoEdge) << "sequential edge";
}

TEST(Builder, EdgeKindsAreLabelled) {
  const auto r = build(
      ".func main\n"
      "  beq r1, r2, over\n"
      "  jmp over\n"
      "over:\n"
      "  halt\n");
  const BlockId b0 = r.word_to_block[0];
  const BlockId b1 = r.word_to_block[1];
  const BlockId b2 = r.word_to_block[2];
  EXPECT_EQ(r.cfg.edge_kind(r.cfg.find_edge(b0, b2)), EdgeKind::kBranchTaken);
  EXPECT_EQ(r.cfg.edge_kind(r.cfg.find_edge(b0, b1)), EdgeKind::kFallThrough);
  EXPECT_EQ(r.cfg.edge_kind(r.cfg.find_edge(b1, b2)), EdgeKind::kJump);
}

TEST(Builder, LoopBackEdge) {
  const auto r = build(
      ".func main\n"
      "  addi r1, r0, 5\n"
      "loop:\n"
      "  addi r1, r1, -1\n"
      "  bne r1, r0, loop\n"
      "  halt\n");
  const BlockId header = r.word_to_block[1];
  const BlockId latch = r.word_to_block[2];
  EXPECT_EQ(header, latch) << "loop body is a single block";
  EXPECT_NE(r.cfg.find_edge(latch, header), Cfg::kNoEdge);
}

TEST(Builder, CallAndReturnEdges) {
  const auto r = build(
      ".entry main\n"
      ".func helper\n"
      "  add r2, r1, r1\n"
      "  ret\n"
      ".func main\n"
      "  addi r1, r0, 1\n"
      "  jal helper\n"
      "  halt\n");
  const BlockId helper_entry = r.word_to_block[0];
  const BlockId call_block = r.word_to_block[2];  // addi+jal
  const BlockId resume = r.word_to_block[4];      // halt
  const EdgeId call_edge = r.cfg.find_edge(call_block, helper_entry);
  ASSERT_NE(call_edge, Cfg::kNoEdge);
  EXPECT_EQ(r.cfg.edge_kind(call_edge), EdgeKind::kCall);
  const EdgeId ret_edge = r.cfg.find_edge(helper_entry, resume);
  ASSERT_NE(ret_edge, Cfg::kNoEdge);
  EXPECT_EQ(r.cfg.edge_kind(ret_edge), EdgeKind::kReturn);
}

TEST(Builder, MultipleCallSitesAllGetReturnEdges) {
  const auto r = build(
      ".entry main\n"
      ".func f\n"
      "  ret\n"
      ".func main\n"
      "  jal f\n"
      "  jal f\n"
      "  halt\n");
  const BlockId f_block = r.word_to_block[0];
  const BlockId resume1 = r.word_to_block[2];
  const BlockId resume2 = r.word_to_block[3];
  EXPECT_NE(r.cfg.find_edge(f_block, resume1), Cfg::kNoEdge);
  EXPECT_NE(r.cfg.find_edge(f_block, resume2), Cfg::kNoEdge);
}

TEST(Builder, EntryFunctionReturnIsExit) {
  const auto r = build(".func main\n  ret\n");
  EXPECT_TRUE(r.cfg.block(r.word_to_block[0]).is_exit);
}

TEST(Builder, IndirectJumpFlagsBlock) {
  const auto r = build(".func main\n  addi r1, r0, 0\n  jr r1\n  halt\n");
  const BlockId jr_block = r.word_to_block[1];
  EXPECT_TRUE(r.cfg.block(jr_block).has_indirect_successors);
}

TEST(Builder, EntryBlockMatchesEntryWord) {
  const auto r = build(
      ".entry main\n"
      ".func f\n  ret\n"
      ".func main\n  halt\n");
  EXPECT_EQ(r.cfg.entry(), r.word_to_block[1]);
}

TEST(Builder, WordToBlockCoversImage) {
  const auto r = build(
      ".func main\n"
      "  beq r1, r2, x\n"
      "  nop\n"
      "x:\n"
      "  halt\n");
  for (const BlockId b : r.word_to_block) {
    EXPECT_NE(b, kInvalidBlock);
  }
  for (const auto& block : r.cfg.blocks()) {
    for (std::uint32_t w = block.first_word;
         w < block.first_word + block.word_count; ++w) {
      EXPECT_EQ(r.word_to_block[w], block.id);
    }
  }
}

TEST(Builder, FunctionEntryBlockCarriesName) {
  const auto r = build(
      ".entry main\n"
      ".func helper\n  ret\n"
      ".func main\n  halt\n");
  EXPECT_EQ(r.cfg.note(r.word_to_block[0]), "helper");
  EXPECT_EQ(r.cfg.note(r.word_to_block[1]), "main");
}

TEST(Builder, ProbabilitiesNormalised) {
  const auto r = build(
      ".func main\n"
      "  beq r1, r2, x\n"
      "  nop\n"
      "x:\n"
      "  halt\n");
  for (const auto& block : r.cfg.blocks()) {
    if (r.cfg.out_edges(block.id).empty()) continue;
    double total = 0;
    for (const EdgeId e : r.cfg.out_edges(block.id)) {
      total += r.cfg.edge(e).probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Builder, EmptyProgramRejected) {
  EXPECT_THROW((void)build(""), apcc::CheckError);
}

TEST(Builder, HaltMidFunctionMarksExitBlock) {
  const auto r = build(
      ".func main\n"
      "  beq r1, r2, done\n"
      "  nop\n"
      "done:\n"
      "  halt\n");
  const BlockId halt_block = r.word_to_block[2];
  EXPECT_TRUE(r.cfg.block(halt_block).is_exit);
  EXPECT_TRUE(r.cfg.out_edges(halt_block).empty());
}

}  // namespace
}  // namespace apcc::cfg
