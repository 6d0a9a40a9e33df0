// The assembler differential: isa::assemble, one pass over the text,
// against the replaced two-pass assembler kept in
// tests/common/assembler_reference.hpp. Every input must give the same
// Program (words, functions, entry, every label() and label_at()) or
// the same error text, ignoring an APCC_CHECK's expression and
// location. The fuzz loop (tests/fuzz) holds every mutant to the same.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/same_build.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::isa {
namespace {

using testref::expect_same_assembly;

TEST(AssemblerDifferential, SuiteKernelsAtScales1And16) {
  for (const auto kind : workloads::all_workload_kinds()) {
    for (const int scale : {1, 16}) {
      SCOPED_TRACE(std::string(workloads::workload_name(kind)) + " scale " +
                   std::to_string(scale));
      workloads::WorkloadOptions options;
      options.scale = scale;
      EXPECT_TRUE(
          expect_same_assembly(workloads::workload_source(kind, options))
              .has_value());
    }
  }
}

TEST(AssemblerDifferential, ChurnProgramsAndRandomSeeds) {
  // artifact-churn's 16 programs, then 64 seeds of the default shape.
  for (std::uint64_t seed = 9001; seed < 9017; ++seed) {
    SCOPED_TRACE(seed);
    workloads::RandomProgramOptions churn;
    churn.seed = seed;
    churn.max_depth = 3;
    churn.statements_per_body = 40;
    churn.leaf_functions = 16;
    churn.loop_iters_max = 6;
    EXPECT_TRUE(
        expect_same_assembly(workloads::random_program_source(churn))
            .has_value());
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    workloads::RandomProgramOptions options;
    options.seed = seed;
    EXPECT_TRUE(
        expect_same_assembly(workloads::random_program_source(options))
            .has_value());
  }
}

TEST(AssemblerDifferential, HandWrittenSpellings) {
  // Each assembles, through the in-place matchers or their fallbacks.
  const std::vector<std::string> accepted = {
      // Upper- and mixed-case mnemonics, registers and directives.
      ".FUNC main\n  ADDI R1, R0, 5\n  Add Sp, rA, ZERO\n  HALT\n",
      ".Entry main\n.func helper\n  RET\n.Func main\n  JAL helper\n  halt\n",
      // Register spellings only the fallback reads.
      ".func f\n  add r03, R0x0F, r+3\n  add r0X1, r-0, r00\n  halt\n",
      // Tabs, CRLF line ends, odd spacing and trailing commas.
      ".func f\r\n\taddi\tr1,\tr0,\t7\r\n  sub r2 ,r1 ,, r1,\r\n  halt\r\n",
      // Several labels on one line, and a label after the last word.
      ".func f\na: b:c: nop\n  jmp c\nd: halt\nend:\n",
      // Numeric, signed and hex immediates and targets.
      ".func f\n  addi r1, r0, -131072\n  addi r2, r0, +131071\n"
      "  addi r3, r0, 0x1F\n  ori r4, r3, 0X7f\n  addi r5, r0, -0x10\n"
      "  lui r6, 0x3\n  beq r0, r0, +1\n  nop\n  bne r1, r0, -1\n"
      "  jmp 0x0\n",
      // Memory operands: no offset, signed, hex, padded.
      ".func f\n  lw r1, (r2)\n  sw r3, -4(r4)\n  lb r5, 0x10(sp)\n"
      "  sb r6, +2(R7)\n  halt\n",
      // ';' and '#' comments, blank and comment-only lines.
      "; leading\n# hash\n.func f ; trailing\n\n  nop # hash\n"
      "  halt;tight\n",
      // .func re-using a defined label, repeated .entry, empty functions.
      "x:\n.func x\n.func y\n.entry x\n.entry y\n  nop\n  halt\n",
      // Empty text and text of only comments.
      "",
      "; nothing\n\n",
  };
  for (const std::string& source : accepted) {
    SCOPED_TRACE(source);
    EXPECT_TRUE(expect_same_assembly(source).has_value());
  }
  // Each fails, with the same text on both sides.
  const std::vector<std::string> refused = {
      ".func main\n  ,\n  halt\n",
      ".func main\nfoo: ,\n  halt\n",
      ".func f\n  bogus r1\n",
      ".func f\n  add r1, r2\n",
      ".func f\n  add r1, r16, r2\n",
      ".func f\n  add r1, r999999999999999999999, r2\n",
      ".func f\n  addi r1, r0, 131072\n  jmp nowhere\n",
      ".func f\n  jmp nowhere\n  addi r1, r0, 131072\n",
      ".func f\n  addi r1, r0, 99999999999\n",
      ".func f\n  addi r1, r0, 0x\n",
      ".func f\n  lw r1, 4[r2]\n",
      ".func f\nx:\n  nop\nx:\n  halt\n",
      ".func f\n.func\n",
      ".entry\n",
      ".wat\n",
      ".entry nowhere\n.func f\n  halt\n",
      ".entry end\n.func f\n  halt\nend:\n",
      ".func f\n  beq r0, r0, 200000\n",
      ".func f\n  jmp -1\n",
  };
  for (const std::string& source : refused) {
    SCOPED_TRACE(source);
    EXPECT_FALSE(expect_same_assembly(source).has_value());
  }
}

}  // namespace
}  // namespace apcc::isa
