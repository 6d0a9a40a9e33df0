// Functional interpreter for ERISC-32 programs.
//
// Runs assembled programs against a flat data memory. Used to validate the
// assembler/encoder round trip, to run the example programs, and -- most
// importantly for APCC -- to produce *real* basic-block access traces that
// drive the compression runtime (the "instruction access pattern" of the
// paper). A per-instruction trace hook reports each executed word index;
// cfg::BlockMap converts that stream into block entries.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "isa/program.hpp"

namespace apcc::isa {

/// Interpreter run limits and memory size.
struct InterpreterOptions {
  std::size_t data_memory_bytes = 1 << 16;  // 64 KiB
  std::uint64_t max_steps = 10'000'000;     // safety stop
};

/// Why the interpreter stopped.
enum class StopReason : std::uint8_t {
  kHalted,        // executed a halt instruction
  kStepLimit,     // hit max_steps
  kBadPc,         // control transfer outside the image
};

/// Outcome of a run.
struct ExecResult {
  StopReason stop = StopReason::kHalted;
  std::uint64_t steps = 0;
  std::uint32_t final_pc = 0;
};

/// A simple in-order interpreter. Not the timing model -- sim::BatchEngine
/// owns timing; this produces architectural behaviour only.
class Interpreter {
 public:
  explicit Interpreter(const Program& program,
                       InterpreterOptions options = {});

  /// Register accessors (r0 always reads zero).
  [[nodiscard]] std::int32_t reg(unsigned index) const;
  void set_reg(unsigned index, std::int32_t value);

  /// Data memory accessors (bounds-checked, little-endian words).
  [[nodiscard]] std::int32_t load_word(std::uint32_t addr) const;
  void store_word(std::uint32_t addr, std::int32_t value);
  [[nodiscard]] std::uint8_t load_byte(std::uint32_t addr) const;
  void store_byte(std::uint32_t addr, std::uint8_t value);

  /// Install a hook invoked with each executed word index, in order.
  void set_trace_hook(std::function<void(std::uint32_t)> hook) {
    trace_hook_ = std::move(hook);
  }

  /// Execute a single instruction at the current pc. Returns false when
  /// the program has stopped (halt / bad pc).
  bool step();

  /// Run until halt, bad pc, or the step limit.
  ExecResult run();

  [[nodiscard]] std::uint32_t pc() const { return pc_; }
  [[nodiscard]] std::uint64_t steps_executed() const { return steps_; }

 private:
  const Program& program_;
  InterpreterOptions options_;
  std::array<std::int32_t, kNumRegisters> regs_{};
  std::vector<std::uint8_t> memory_;
  std::uint32_t pc_ = 0;
  std::uint64_t steps_ = 0;
  StopReason stop_ = StopReason::kHalted;
  bool stopped_ = false;
  std::function<void(std::uint32_t)> trace_hook_;
};

}  // namespace apcc::isa
