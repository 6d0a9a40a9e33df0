// Functional interpreter tests: ALU semantics, memory, control flow,
// calls, tracing, and stop conditions.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"
#include "support/assert.hpp"

namespace apcc::isa {
namespace {

TEST(Interpreter, ArithmeticChain) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, 6\n"
      "  addi r2, r0, 7\n"
      "  mul r3, r1, r2\n"
      "  sub r4, r3, r1\n"
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(3), 42);
  EXPECT_EQ(interp.reg(4), 36);
}

TEST(Interpreter, ZeroRegisterIsImmutable) {
  const Program p = assemble(".func main\n  addi r0, r0, 99\n  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(0), 0);
}

TEST(Interpreter, LogicalAndShifts) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, 12\n"   // 0b1100
      "  andi r2, r1, 10\n"   // 0b1000 = 8
      "  ori r3, r1, 3\n"     // 0b1111 = 15
      "  xori r4, r1, 5\n"    // 0b1001 = 9
      "  slli r5, r1, 2\n"    // 48
      "  srli r6, r1, 2\n"    // 3
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(2), 8);
  EXPECT_EQ(interp.reg(3), 15);
  EXPECT_EQ(interp.reg(4), 9);
  EXPECT_EQ(interp.reg(5), 48);
  EXPECT_EQ(interp.reg(6), 3);
}

TEST(Interpreter, SignedComparisonAndSra) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, -8\n"
      "  addi r2, r0, 2\n"
      "  slt r3, r1, r2\n"   // -8 < 2 -> 1
      "  sra r4, r1, r2\n"   // -8 >> 2 arithmetic = -2
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(3), 1);
  EXPECT_EQ(interp.reg(4), -2);
}

TEST(Interpreter, DivisionByZeroIsZero) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, 10\n"
      "  div r3, r1, r0\n"
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(3), 0);
}

TEST(Interpreter, WordMemoryRoundTrip) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, 1000\n"
      "  addi r2, r0, -123\n"
      "  sw r2, 4(r1)\n"
      "  lw r3, 4(r1)\n"
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(3), -123);
}

TEST(Interpreter, ByteMemoryRoundTrip) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, 2000\n"
      "  addi r2, r0, 255\n"
      "  sb r2, 0(r1)\n"
      "  lb r3, 0(r1)\n"
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(3), 255);
}

TEST(Interpreter, OutOfBoundsAccessThrows) {
  const Program p = assemble(
      ".func main\n"
      "  lui r1, 15\n"          // big address
      "  lw r2, 0(r1)\n"
      "  halt\n");
  Interpreter interp(p);
  EXPECT_THROW((void)interp.run(), CheckError);
}

TEST(Interpreter, EffectiveAddressWrapsIntoTheBoundsCheck) {
  // A base of INT32_MAX plus 1 overflows a signed add (undefined, and an
  // abort under UBSan); the address wraps modulo 2^32 to 0x80000000
  // instead, and the bounds check refuses it.
  for (const char* access :
       {"lw r2, 1(r1)", "sw r2, 1(r1)", "lb r2, 1(r1)", "sb r2, 1(r1)"}) {
    const Program p = assemble(std::string(".func main\n"
                                           "  lui r1, 131071\n"
                                           "  ori r1, r1, 16383\n  ") +
                               access + "\n  halt\n");
    Interpreter interp(p);
    try {
      (void)interp.run();
      FAIL() << access << ": a wrapped address must be out of bounds";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("out of bounds"),
                std::string::npos)
          << access << ": " << e.what();
    }
    EXPECT_EQ(interp.reg(1), std::numeric_limits<std::int32_t>::max());
  }
}

TEST(Interpreter, CountedLoopRunsExactly) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, 10\n"
      "  addi r2, r0, 0\n"
      "loop:\n"
      "  addi r2, r2, 3\n"
      "  addi r1, r1, -1\n"
      "  bne r1, r0, loop\n"
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(2), 30);
}

TEST(Interpreter, CallAndReturn) {
  const Program p = assemble(
      ".entry main\n"
      ".func double_it\n"
      "  add r2, r1, r1\n"
      "  ret\n"
      ".func main\n"
      "  addi r1, r0, 21\n"
      "  jal double_it\n"
      "  add r3, r2, r0\n"
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(3), 42);
}

TEST(Interpreter, JrJumpsThroughRegister) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, 3\n"
      "  jr r1\n"
      "  addi r2, r0, 99\n"  // skipped
      "  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(2), 0);
}

TEST(Interpreter, StepLimitStops) {
  const Program p = assemble(".func main\nspin:\n  jmp spin\n");
  InterpreterOptions opts;
  opts.max_steps = 100;
  Interpreter interp(p, opts);
  const ExecResult r = interp.run();
  EXPECT_EQ(r.stop, StopReason::kStepLimit);
  EXPECT_EQ(r.steps, 100u);
}

TEST(Interpreter, BadPcStops) {
  // jr to an address beyond the image.
  const Program p = assemble(".func main\n  addi r1, r0, 500\n  jr r1\n");
  Interpreter interp(p);
  const ExecResult r = interp.run();
  EXPECT_EQ(r.stop, StopReason::kBadPc);
}

TEST(Interpreter, TraceHookSeesEveryPc) {
  const Program p = assemble(
      ".func main\n"
      "  addi r1, r0, 2\n"
      "loop:\n"
      "  addi r1, r1, -1\n"
      "  bne r1, r0, loop\n"
      "  halt\n");
  std::vector<std::uint32_t> pcs;
  Interpreter interp(p);
  interp.set_trace_hook([&pcs](std::uint32_t pc) { pcs.push_back(pc); });
  (void)interp.run();
  const std::vector<std::uint32_t> expected = {0, 1, 2, 1, 2, 3};
  EXPECT_EQ(pcs, expected);
}

TEST(Interpreter, StepByStepMatchesRun) {
  const Program p = assemble(
      ".func main\n  addi r1, r0, 1\n  addi r1, r1, 1\n  halt\n");
  Interpreter a(p);
  while (a.step()) {
  }
  Interpreter b(p);
  (void)b.run();
  EXPECT_EQ(a.reg(1), b.reg(1));
  EXPECT_EQ(a.reg(1), 2);
}

TEST(Interpreter, StackPointerInitialised) {
  const Program p = assemble(".func main\n  halt\n");
  Interpreter interp(p);
  EXPECT_GT(interp.reg(kStackRegister), 0);
}

TEST(Interpreter, LuiShiftsBy14) {
  const Program p = assemble(".func main\n  lui r1, 2\n  halt\n");
  Interpreter interp(p);
  (void)interp.run();
  EXPECT_EQ(interp.reg(1), 2 << 14);
}

}  // namespace
}  // namespace apcc::isa
