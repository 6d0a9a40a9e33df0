#include "isa/interpreter.hpp"

#include <limits>

#include "support/assert.hpp"

namespace apcc::isa {

Interpreter::Interpreter(const Program& program, InterpreterOptions options)
    : program_(program),
      options_(options),
      memory_(options.data_memory_bytes, 0),
      pc_(program.entry_word()) {
  // Conventional initial stack pointer: top of data memory, word-aligned.
  regs_[kStackRegister] =
      static_cast<std::int32_t>(options_.data_memory_bytes & ~3u);
}

std::int32_t Interpreter::reg(unsigned index) const {
  APCC_CHECK(index < kNumRegisters, "register index out of range");
  return index == kZeroRegister ? 0 : regs_[index];
}

void Interpreter::set_reg(unsigned index, std::int32_t value) {
  APCC_CHECK(index < kNumRegisters, "register index out of range");
  if (index != kZeroRegister) {
    regs_[index] = value;
  }
}

std::int32_t Interpreter::load_word(std::uint32_t addr) const {
  APCC_CHECK(std::uint64_t{addr} + 4 <= memory_.size(),
             "data load out of bounds");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | memory_[addr + static_cast<std::uint32_t>(i)];
  }
  return static_cast<std::int32_t>(v);
}

void Interpreter::store_word(std::uint32_t addr, std::int32_t value) {
  APCC_CHECK(std::uint64_t{addr} + 4 <= memory_.size(),
             "data store out of bounds");
  auto v = static_cast<std::uint32_t>(value);
  for (unsigned i = 0; i < 4; ++i) {
    memory_[addr + i] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
}

std::uint8_t Interpreter::load_byte(std::uint32_t addr) const {
  APCC_CHECK(addr < memory_.size(), "data load out of bounds");
  return memory_[addr];
}

void Interpreter::store_byte(std::uint32_t addr, std::uint8_t value) {
  APCC_CHECK(addr < memory_.size(), "data store out of bounds");
  memory_[addr] = value;
}

bool Interpreter::step() {
  if (stopped_) return false;
  if (pc_ >= program_.word_count()) {
    stop_ = StopReason::kBadPc;
    stopped_ = true;
    return false;
  }
  if (trace_hook_) trace_hook_(pc_);
  const Instruction inst = program_.instruction(pc_);
  ++steps_;
  std::uint32_t next_pc = pc_ + 1;

  const std::int32_t a = reg(inst.rs1);
  const std::int32_t b = reg(inst.rs2);
  auto ua = static_cast<std::uint32_t>(a);
  auto ub = static_cast<std::uint32_t>(b);
  // Add/sub/mul wrap modulo 2^32 like the modelled hardware; doing them
  // in unsigned keeps the wrap defined (signed overflow is UB).
  auto wrap = [](std::uint32_t v) { return static_cast<std::int32_t>(v); };

  switch (inst.opcode) {
    case Opcode::kAdd: set_reg(inst.rd, wrap(ua + ub)); break;
    case Opcode::kSub: set_reg(inst.rd, wrap(ua - ub)); break;
    case Opcode::kAnd: set_reg(inst.rd, a & b); break;
    case Opcode::kOr: set_reg(inst.rd, a | b); break;
    case Opcode::kXor: set_reg(inst.rd, a ^ b); break;
    case Opcode::kSll:
      set_reg(inst.rd, static_cast<std::int32_t>(
                           ua << (static_cast<std::uint32_t>(b) & 31u)));
      break;
    case Opcode::kSrl:
      set_reg(inst.rd, static_cast<std::int32_t>(
                           ua >> (static_cast<std::uint32_t>(b) & 31u)));
      break;
    case Opcode::kSra:
      set_reg(inst.rd, a >> (static_cast<std::uint32_t>(b) & 31u));
      break;
    case Opcode::kMul: set_reg(inst.rd, wrap(ua * ub)); break;
    case Opcode::kDiv:
      // Division by zero is defined as zero: embedded targets often trap,
      // but a deterministic value keeps synthetic workloads total.
      // INT_MIN / -1 overflows in hardware too; define it as wrapping.
      if (b == 0) {
        set_reg(inst.rd, 0);
      } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
        set_reg(inst.rd, a);
      } else {
        set_reg(inst.rd, a / b);
      }
      break;
    case Opcode::kSlt: set_reg(inst.rd, a < b ? 1 : 0); break;
    case Opcode::kAddi:
      set_reg(inst.rd, wrap(ua + static_cast<std::uint32_t>(inst.imm)));
      break;
    case Opcode::kAndi: set_reg(inst.rd, a & inst.imm); break;
    case Opcode::kOri: set_reg(inst.rd, a | inst.imm); break;
    case Opcode::kXori: set_reg(inst.rd, a ^ inst.imm); break;
    case Opcode::kSlli:
      set_reg(inst.rd, static_cast<std::int32_t>(
                           ua << (static_cast<std::uint32_t>(inst.imm) & 31u)));
      break;
    case Opcode::kSrli:
      set_reg(inst.rd, static_cast<std::int32_t>(
                           ua >> (static_cast<std::uint32_t>(inst.imm) & 31u)));
      break;
    case Opcode::kLui:
      set_reg(inst.rd, static_cast<std::int32_t>(
                           static_cast<std::uint32_t>(inst.imm) << 14));
      break;
    // Effective addresses wrap modulo 2^32 too; a wrapped address fails
    // the bounds check.
    case Opcode::kLw:
      set_reg(inst.rd, load_word(ua + static_cast<std::uint32_t>(inst.imm)));
      break;
    case Opcode::kSw:
      store_word(ua + static_cast<std::uint32_t>(inst.imm), reg(inst.rd));
      break;
    case Opcode::kLb:
      set_reg(inst.rd, load_byte(ua + static_cast<std::uint32_t>(inst.imm)));
      break;
    case Opcode::kSb:
      store_byte(ua + static_cast<std::uint32_t>(inst.imm),
                 static_cast<std::uint8_t>(reg(inst.rd) & 0xff));
      break;
    case Opcode::kBeq:
      if (reg(inst.rs1) == reg(inst.rs2)) {
        next_pc = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(pc_) + 1 + inst.imm);
      }
      break;
    case Opcode::kBne:
      if (reg(inst.rs1) != reg(inst.rs2)) {
        next_pc = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(pc_) + 1 + inst.imm);
      }
      break;
    case Opcode::kBlt:
      if (reg(inst.rs1) < reg(inst.rs2)) {
        next_pc = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(pc_) + 1 + inst.imm);
      }
      break;
    case Opcode::kBge:
      if (reg(inst.rs1) >= reg(inst.rs2)) {
        next_pc = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(pc_) + 1 + inst.imm);
      }
      break;
    case Opcode::kJmp:
      next_pc = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::kJal:
      set_reg(kLinkRegister, static_cast<std::int32_t>(pc_ + 1));
      next_pc = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::kJr:
      next_pc = static_cast<std::uint32_t>(reg(inst.rs1));
      break;
    case Opcode::kRet:
      next_pc = static_cast<std::uint32_t>(reg(kLinkRegister));
      break;
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      stop_ = StopReason::kHalted;
      stopped_ = true;
      return false;
    case Opcode::kOpcodeCount:
      APCC_ASSERT(false, "decoded sentinel opcode");
  }
  pc_ = next_pc;
  return true;
}

ExecResult Interpreter::run() {
  while (!stopped_ && steps_ < options_.max_steps) {
    if (!step()) break;
  }
  if (!stopped_ && steps_ >= options_.max_steps) {
    stop_ = StopReason::kStepLimit;
    stopped_ = true;
  }
  return ExecResult{stop_, steps_, pc_};
}

}  // namespace apcc::isa
