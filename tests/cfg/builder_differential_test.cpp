// The CFG differential: cfg::build_cfg, which marks leaders one byte per
// word and resolves targets through its word -> block map, against the
// replaced set-and-map leader algorithm kept in
// tests/common/cfg_builder_reference.hpp. Every program must give the
// same blocks, notes, flags, edges (from, to, kind, probability, in id
// order) and word -> block map, or the same error text.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/same_build.hpp"
#include "isa/assembler.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::cfg {
namespace {

using testref::expect_same_cfg_build;

TEST(CfgBuilderDifferential, SuiteKernelsAtScales1And16) {
  for (const auto kind : workloads::all_workload_kinds()) {
    for (const int scale : {1, 16}) {
      SCOPED_TRACE(std::string(workloads::workload_name(kind)) + " scale " +
                   std::to_string(scale));
      workloads::WorkloadOptions options;
      options.scale = scale;
      expect_same_cfg_build(
          isa::assemble(workloads::workload_source(kind, options)));
    }
  }
}

TEST(CfgBuilderDifferential, ChurnProgramsAndRandomSeeds) {
  for (std::uint64_t seed = 9001; seed < 9017; ++seed) {
    SCOPED_TRACE(seed);
    workloads::RandomProgramOptions churn;
    churn.seed = seed;
    churn.max_depth = 3;
    churn.statements_per_body = 40;
    churn.leaf_functions = 16;
    churn.loop_iters_max = 6;
    expect_same_cfg_build(
        isa::assemble(workloads::random_program_source(churn)));
  }
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    workloads::RandomProgramOptions options;
    options.seed = seed;
    expect_same_cfg_build(
        isa::assemble(workloads::random_program_source(options)));
  }
}

/// A program of `words` with the given function table and entry.
isa::Program program_of(const std::string& text,
                        std::vector<isa::FunctionInfo> functions,
                        std::uint32_t entry) {
  const isa::Program assembled = isa::assemble(text);
  return isa::Program(std::vector<std::uint32_t>(assembled.words().begin(),
                                                 assembled.words().end()),
                      std::move(functions), {}, entry);
}

TEST(CfgBuilderDifferential, OddShapes) {
  // Shapes the assembler does not make: words before the first leader,
  // overlapping and empty functions, a ret outside every function, a
  // function never called, an indirect jump and a block that runs off
  // the image's end.
  const std::string body =
      "  nop\n  nop\n  jal 6\n  beq r1, r0, 5\n  jr r3\n  nop\n"
      "  addi r1, r1, 1\n  ret\n  jal 6\n  ret\n  nop\n";
  expect_same_cfg_build(program_of(body, {}, 2));
  expect_same_cfg_build(program_of(body, {{"a", 0, 8}, {"b", 6, 4}}, 0));
  expect_same_cfg_build(
      program_of(body, {{"empty", 3, 0}, {"b", 6, 2}, {"c", 6, 5}}, 6));
  expect_same_cfg_build(program_of(body, {{"late", 8, 3}, {"a", 0, 8}}, 1));
  // A branch whose target is its own fall-through, and a call to the
  // next word.
  expect_same_cfg_build(
      isa::assemble(".func f\n  beq r1, r0, 0\n  jal g\n.func g\n  ret\n"));
  // A target outside the image: the same error on both sides.
  expect_same_cfg_build(program_of("  jmp 40\n  halt\n", {}, 0));
  expect_same_cfg_build(program_of("  beq r0, r0, -9\n  halt\n", {}, 1));
}

}  // namespace
}  // namespace apcc::cfg
