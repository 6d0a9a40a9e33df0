// ERISC-32: a small 32-bit RISC-style embedded ISA.
//
// APCC compresses real instruction bytes, so it needs an ISA with concrete
// encodings. ERISC-32 is deliberately conventional: fixed 32-bit words,
// sixteen registers, four instruction formats. The opcode/operand field
// layout gives compiled code the skewed bit-distribution that code
// compressors exploit (dense opcode reuse, small immediates, few hot
// registers).
//
// Encoding (bit 31 is the MSB):
//   R-type:  opcode[31:26] rd[25:22] rs1[21:18] rs2[17:14] zero[13:0]
//   I-type:  opcode[31:26] rd[25:22] rs1[21:18] imm[17:0]   (signed)
//   B-type:  opcode[31:26] rs1[25:22] rs2[21:18] off[17:0]  (signed words)
//   J-type:  opcode[31:26] target[25:0]                     (absolute words)
//
// Branch offsets are relative to the *following* instruction:
//   target_word = branch_word_index + 1 + offset.
// Register conventions: r0 reads as zero, writes are discarded; r14 is the
// stack pointer; r15 is the link register (written by jal).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace apcc::isa {

inline constexpr unsigned kNumRegisters = 16;
inline constexpr unsigned kZeroRegister = 0;
inline constexpr unsigned kStackRegister = 14;
inline constexpr unsigned kLinkRegister = 15;
inline constexpr unsigned kInstructionBytes = 4;

/// Signed range of the 18-bit immediate / branch-offset field.
inline constexpr std::int32_t kImmMin = -(1 << 17);
inline constexpr std::int32_t kImmMax = (1 << 17) - 1;
/// Range of the 26-bit absolute jump target (word address).
inline constexpr std::uint32_t kJumpTargetMax = (1u << 26) - 1;

/// Instruction formats, determining operand field layout.
enum class Format : std::uint8_t { kR, kI, kB, kJ, kNone };

/// All ERISC-32 opcodes. The enumerator value is the 6-bit opcode field.
enum class Opcode : std::uint8_t {
  // R-type ALU.
  kAdd = 0,
  kSub,
  kAnd,
  kOr,
  kXor,
  kSll,
  kSrl,
  kSra,
  kMul,
  kDiv,
  kSlt,
  // I-type ALU / memory.
  kAddi,
  kAndi,
  kOri,
  kXori,
  kSlli,
  kSrli,
  kLui,
  kLw,
  kSw,
  kLb,
  kSb,
  // B-type conditional branches (compare rs1, rs2).
  kBeq,
  kBne,
  kBlt,
  kBge,
  // J-type jumps (absolute word target).
  kJmp,
  kJal,
  // R-type indirect control (target in rs1).
  kJr,
  kRet,  // alias for jr r15, encoded distinctly for disassembly clarity
  // No-operand.
  kNop,
  kHalt,
  kOpcodeCount  // sentinel, not a real opcode
};

inline constexpr unsigned kNumOpcodes =
    static_cast<unsigned>(Opcode::kOpcodeCount);

/// Static description of an opcode.
struct OpcodeInfo {
  std::string_view mnemonic;
  Format format = Format::kNone;
  bool is_branch = false;     // conditional branch (B-type)
  bool is_jump = false;       // unconditional direct jump (jmp/jal)
  bool is_indirect = false;   // jr/ret
  bool is_call = false;       // jal
  bool is_return = false;     // ret
  bool is_load = false;
  bool is_store = false;
  bool is_halt = false;
};

/// Lookup table entry for `op`. Asserts on the sentinel value.
[[nodiscard]] const OpcodeInfo& opcode_info(Opcode op);

/// Reverse lookup by mnemonic, in any case (`add`, `ADD`, `Add`);
/// nullopt if unknown.
[[nodiscard]] std::optional<Opcode> opcode_from_mnemonic(std::string_view m);

/// A decoded instruction. Fields that do not apply to the format are zero.
struct Instruction {
  Opcode opcode = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;  // I-type immediate, B-type offset, or J-type target

  friend bool operator==(const Instruction&, const Instruction&) = default;

  /// True if this instruction ends a basic block.
  [[nodiscard]] bool is_control() const;
  /// True if execution can fall through to the next instruction
  /// (conditional branches can; jumps/returns/halt cannot).
  [[nodiscard]] bool can_fall_through() const;
};

/// Encode to a 32-bit word. Throws CheckError if a field is out of range.
[[nodiscard]] std::uint32_t encode(const Instruction& inst);

/// Decode a 32-bit word. Throws CheckError on an invalid opcode field.
[[nodiscard]] Instruction decode(std::uint32_t word);

}  // namespace apcc::isa
