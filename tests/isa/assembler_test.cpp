// Assembler tests: syntax, label resolution, directives, error paths,
// and a disassembler sanity pass.
#include <gtest/gtest.h>

#include <string>

#include "isa/assembler.hpp"
#include "isa/disasm.hpp"
#include "support/assert.hpp"

namespace apcc::isa {
namespace {

TEST(Assembler, MinimalProgram) {
  const Program p = assemble(".func main\n  halt\n");
  ASSERT_EQ(p.word_count(), 1u);
  EXPECT_EQ(p.instruction(0).opcode, Opcode::kHalt);
  EXPECT_EQ(p.entry_word(), 0u);
}

TEST(Assembler, RTypeOperands) {
  const Program p = assemble(".func f\n  add r1, r2, r3\n  halt\n");
  const Instruction i = p.instruction(0);
  EXPECT_EQ(i.opcode, Opcode::kAdd);
  EXPECT_EQ(i.rd, 1);
  EXPECT_EQ(i.rs1, 2);
  EXPECT_EQ(i.rs2, 3);
}

TEST(Assembler, RegisterAliases) {
  const Program p =
      assemble(".func f\n  add sp, ra, zero\n  halt\n");
  const Instruction i = p.instruction(0);
  EXPECT_EQ(i.rd, kStackRegister);
  EXPECT_EQ(i.rs1, kLinkRegister);
  EXPECT_EQ(i.rs2, kZeroRegister);
}

TEST(Assembler, MemoryOperandSyntax) {
  const Program p = assemble(".func f\n  lw r1, 8(r2)\n  sw r3, -4(r4)\n  halt\n");
  const Instruction lw = p.instruction(0);
  EXPECT_EQ(lw.opcode, Opcode::kLw);
  EXPECT_EQ(lw.rd, 1);
  EXPECT_EQ(lw.rs1, 2);
  EXPECT_EQ(lw.imm, 8);
  const Instruction sw = p.instruction(1);
  EXPECT_EQ(sw.rd, 3);
  EXPECT_EQ(sw.rs1, 4);
  EXPECT_EQ(sw.imm, -4);
}

TEST(Assembler, MemoryOperandWithoutOffset) {
  const Program p = assemble(".func f\n  lw r1, (r2)\n  halt\n");
  EXPECT_EQ(p.instruction(0).imm, 0);
}

TEST(Assembler, BackwardBranchOffset) {
  const Program p = assemble(
      ".func f\n"
      "top:\n"
      "  addi r1, r1, 1\n"
      "  bne r1, r2, top\n"
      "  halt\n");
  // bne at word 1, target word 0: offset = 0 - 1 - 1 = -2.
  EXPECT_EQ(p.instruction(1).imm, -2);
}

TEST(Assembler, ForwardBranchOffset) {
  const Program p = assemble(
      ".func f\n"
      "  beq r1, r2, done\n"
      "  addi r1, r1, 1\n"
      "done:\n"
      "  halt\n");
  // beq at word 0, target word 2: offset = 2 - 0 - 1 = 1.
  EXPECT_EQ(p.instruction(0).imm, 1);
}

TEST(Assembler, JumpTargetsAreAbsolute) {
  const Program p = assemble(
      ".func f\n"
      "  jmp there\n"
      "  nop\n"
      "there:\n"
      "  halt\n");
  EXPECT_EQ(p.instruction(0).imm, 2);
}

TEST(Assembler, NumericBranchAndJumpTargets) {
  const Program p = assemble(".func f\n  beq r0, r0, 1\n  nop\n  jmp 0\n");
  EXPECT_EQ(p.instruction(0).imm, 1);
  EXPECT_EQ(p.instruction(2).imm, 0);
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = assemble(
      "; leading comment\n"
      ".func f  ; trailing\n"
      "\n"
      "  nop # hash comment\n"
      "  halt\n");
  EXPECT_EQ(p.word_count(), 2u);
}

TEST(Assembler, EntryDirectiveSelectsFunction) {
  const Program p = assemble(
      ".entry main\n"
      ".func helper\n"
      "  ret\n"
      ".func main\n"
      "  halt\n");
  EXPECT_EQ(p.entry_word(), 1u);
}

TEST(Assembler, FunctionExtentsRecorded) {
  const Program p = assemble(
      ".func a\n  nop\n  ret\n"
      ".func b\n  halt\n");
  ASSERT_EQ(p.functions().size(), 2u);
  EXPECT_EQ(p.functions()[0].name, "a");
  EXPECT_EQ(p.functions()[0].first_word, 0u);
  EXPECT_EQ(p.functions()[0].word_count, 2u);
  EXPECT_EQ(p.functions()[1].first_word, 2u);
  EXPECT_EQ(p.functions()[1].word_count, 1u);
  EXPECT_EQ(p.function_containing(1)->name, "a");
  EXPECT_EQ(p.function_containing(2)->name, "b");
}

TEST(Assembler, FunctionNameIsALabel) {
  const Program p = assemble(".func main\n  jal main\n  halt\n");
  EXPECT_EQ(p.instruction(0).imm, 0);
}

TEST(Assembler, LabelOnSameLineAsInstruction) {
  const Program p = assemble(".func f\nstart: nop\n  jmp start\n");
  EXPECT_EQ(p.label("start").value(), 0u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    (void)assemble(".func f\n  nop\n  bogus r1\n");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Assembler, UndefinedLabelThrows) {
  EXPECT_THROW((void)assemble(".func f\n  jmp nowhere\n"), CheckError);
}

TEST(Assembler, DuplicateLabelThrows) {
  EXPECT_THROW((void)assemble(".func f\nx:\n  nop\nx:\n  halt\n"),
               CheckError);
}

TEST(Assembler, WrongOperandCountThrows) {
  EXPECT_THROW((void)assemble(".func f\n  add r1, r2\n"), CheckError);
  EXPECT_THROW((void)assemble(".func f\n  ret r1\n"), CheckError);
}

TEST(Assembler, BadRegisterThrows) {
  EXPECT_THROW((void)assemble(".func f\n  add r1, r99, r2\n"), CheckError);
  EXPECT_THROW((void)assemble(".func f\n  add r1, x2, r2\n"), CheckError);
}

TEST(Assembler, DelimiterOnlyStatementIsAnError) {
  // A statement of only commas, spaces or tabs, alone or after a label,
  // has no mnemonic: a CheckError naming its line, not a read of a
  // missing first field.
  for (const char* source :
       {".func main\n  ,\n  halt\n", ".func main\nfoo: ,\n  halt\n",
        ".func main\n \t, ,\t\n  halt\n", ".func main\na: b: , ,\n"}) {
    try {
      (void)assemble(source);
      FAIL() << "expected CheckError for " << source;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2: statement has no "
                                           "mnemonic"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Assembler, UnknownDirectiveThrows) {
  EXPECT_THROW((void)assemble(".wat\n"), CheckError);
}

TEST(Assembler, BytesAreLittleEndianWords) {
  const Program p = assemble(".func f\n  halt\n");
  const auto bytes = p.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  const std::uint32_t w = p.word(0);
  EXPECT_EQ(bytes[0], w & 0xff);
  EXPECT_EQ(bytes[3], (w >> 24) & 0xff);
}

TEST(Disassembler, RendersOperandsAndTargets) {
  const Program p = assemble(
      ".func f\n"
      "  addi r1, r0, 5\n"
      "  lw r2, 4(r1)\n"
      "loop:\n"
      "  bne r1, r0, loop\n"
      "  halt\n");
  EXPECT_EQ(disassemble(p.instruction(0), 0), "addi r1, r0, 5");
  EXPECT_EQ(disassemble(p.instruction(1), 1), "lw r2, 4(r1)");
  EXPECT_EQ(disassemble(p.instruction(2), 2), "bne r1, r0, @2");
  const std::string listing = disassemble(p);
  EXPECT_NE(listing.find("loop:"), std::string::npos);
  EXPECT_NE(listing.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace apcc::isa
