#include "workloads/random_program.hpp"

#include "support/assert.hpp"
#include "support/rng.hpp"
#include "workloads/asm_builder.hpp"

namespace apcc::workloads {

namespace {

/// Emits one function body from the grammar. Loop counters use r5/r6/r7
/// by nesting depth; r1-r4 are data scratch; r10 is the data base.
class BodyGenerator {
 public:
  /// `counter_offset` shifts the loop-counter register bank so that
  /// callers and leaf callees never share counters: main uses r5/r6/r7,
  /// leaves (offset 1, starting at depth 1) use r7/r8. Calls are only
  /// emitted at depth <= 1, so a callee can clobber r7/r8 without
  /// touching any live caller counter (r5/r6).
  BodyGenerator(AsmBuilder& b, apcc::Rng& rng,
                const RandomProgramOptions& options,
                const std::vector<std::string>& callees, int counter_offset)
      : b_(b),
        rng_(rng),
        options_(options),
        callees_(callees),
        counter_offset_(counter_offset) {}

  void emit_body(int depth, bool allow_calls) {
    for (int i = 0; i < options_.statements_per_body; ++i) {
      emit_statement(depth, allow_calls);
    }
  }

 private:
  void straight_line() {
    for (int i = 0; i < options_.straight_line_run; ++i) {
      switch (rng_.next_below(6)) {
        case 0:
          b_.ins("addi r1, r1, " + std::to_string(rng_.next_in(1, 31)));
          break;
        case 1: b_.ins("add r2, r1, r3"); break;
        case 2: b_.ins("mul r3, r2, r1"); break;
        case 3:
          b_.ins("andi r4, r3, " + std::to_string((1 << rng_.next_in(2, 8)) - 1));
          break;
        case 4: b_.ins("sw r2, 0(r10)"); break;
        case 5: b_.ins("lw r3, 0(r10)"); break;
      }
    }
  }

  void emit_statement(int depth, bool allow_calls) {
    const double u = rng_.next_double();
    double cut = options_.p_loop;
    if (u < cut && depth < options_.max_depth) {
      const std::string counter = loop_counter(depth);
      const auto iters = static_cast<int>(rng_.next_in(
          options_.loop_iters_min, options_.loop_iters_max));
      b_.counted_loop(counter, iters,
                      [&] { emit_body_shallow(depth + 1, allow_calls); });
      return;
    }
    cut += options_.p_if;
    if (u < cut) {
      b_.ins("andi r4, r1, 1");
      b_.if_ne("r4", "r0", [&] { straight_line(); });
      return;
    }
    cut += options_.p_if_else;
    if (u < cut) {
      b_.ins("andi r4, r1, 3");
      b_.if_eq_else(
          "r4", "r0", [&] { straight_line(); }, [&] { straight_line(); });
      return;
    }
    cut += options_.p_call;
    if (u < cut && allow_calls && depth <= 1 && !callees_.empty()) {
      b_.ins("jal " + callees_[rng_.next_below(callees_.size())]);
      return;
    }
    cut += options_.p_rare;
    if (u < cut && depth >= 1) {
      b_.rare_path(loop_counter(depth - 1), "r4", 3,
                   [&] { straight_line(); });
      return;
    }
    cut += options_.p_cold;
    if (u < cut) {
      b_.cold_region([&] { straight_line(); });
      return;
    }
    straight_line();
  }

  /// Inside loops, emit a shorter body (1-2 statements) to bound both the
  /// image size and the dynamic instruction count.
  void emit_body_shallow(int depth, bool allow_calls) {
    const int n = 1 + static_cast<int>(rng_.next_below(2));
    for (int i = 0; i < n; ++i) {
      emit_statement(depth, allow_calls);
    }
  }

  [[nodiscard]] std::string loop_counter(int depth) const {
    static const char* kCounters[] = {"r5", "r6", "r7", "r8", "r9"};
    const int index = depth + counter_offset_;
    APCC_ASSERT(index >= 0 && index < 5,
                "loop nesting exceeds counter registers");
    return kCounters[index];
  }

  AsmBuilder& b_;
  apcc::Rng& rng_;
  const RandomProgramOptions& options_;
  const std::vector<std::string>& callees_;
  int counter_offset_;
};

}  // namespace

std::string random_program_source(const RandomProgramOptions& options) {
  APCC_CHECK(options.max_depth >= 1 && options.max_depth <= 3,
             "max_depth must be in [1,3]");
  apcc::Rng rng(options.seed);
  AsmBuilder b;
  b.entry("main");

  std::vector<std::string> callees;
  for (int f = 0; f < options.leaf_functions; ++f) {
    const std::string name = "leaf" + std::to_string(f);
    callees.push_back(name);
    b.func(name);
    b.ins("addi r10, r0, " + std::to_string(4096 + 512 * f));
    BodyGenerator gen(b, rng, options, callees, /*counter_offset=*/1);
    gen.emit_body(/*depth=*/1, /*allow_calls=*/false);
    b.ins("ret");
  }

  b.func("main");
  b.ins("addi r10, r0, 2048");
  b.ins("addi r1, r0, 7");
  BodyGenerator gen(b, rng, options, callees, /*counter_offset=*/0);
  gen.emit_body(/*depth=*/0, /*allow_calls=*/true);
  b.ins("halt");
  return b.source();
}

Workload make_random_workload(const RandomProgramOptions& options) {
  isa::InterpreterOptions iopts;
  iopts.max_steps = options.max_steps;
  return build_workload("random-" + std::to_string(options.seed),
                        random_program_source(options), iopts,
                        options.apply_profile);
}

}  // namespace apcc::workloads
