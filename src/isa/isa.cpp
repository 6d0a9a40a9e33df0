#include "isa/isa.hpp"

#include "support/assert.hpp"

namespace apcc::isa {

namespace {

constexpr std::array<OpcodeInfo, kNumOpcodes> make_table() {
  std::array<OpcodeInfo, kNumOpcodes> t{};
  auto set = [&t](Opcode op, std::string_view m, Format f) -> OpcodeInfo& {
    auto& e = t[static_cast<std::size_t>(op)];
    e.mnemonic = m;
    e.format = f;
    return e;
  };
  set(Opcode::kAdd, "add", Format::kR);
  set(Opcode::kSub, "sub", Format::kR);
  set(Opcode::kAnd, "and", Format::kR);
  set(Opcode::kOr, "or", Format::kR);
  set(Opcode::kXor, "xor", Format::kR);
  set(Opcode::kSll, "sll", Format::kR);
  set(Opcode::kSrl, "srl", Format::kR);
  set(Opcode::kSra, "sra", Format::kR);
  set(Opcode::kMul, "mul", Format::kR);
  set(Opcode::kDiv, "div", Format::kR);
  set(Opcode::kSlt, "slt", Format::kR);
  set(Opcode::kAddi, "addi", Format::kI);
  set(Opcode::kAndi, "andi", Format::kI);
  set(Opcode::kOri, "ori", Format::kI);
  set(Opcode::kXori, "xori", Format::kI);
  set(Opcode::kSlli, "slli", Format::kI);
  set(Opcode::kSrli, "srli", Format::kI);
  set(Opcode::kLui, "lui", Format::kI);
  set(Opcode::kLw, "lw", Format::kI).is_load = true;
  set(Opcode::kSw, "sw", Format::kI).is_store = true;
  set(Opcode::kLb, "lb", Format::kI).is_load = true;
  set(Opcode::kSb, "sb", Format::kI).is_store = true;
  set(Opcode::kBeq, "beq", Format::kB).is_branch = true;
  set(Opcode::kBne, "bne", Format::kB).is_branch = true;
  set(Opcode::kBlt, "blt", Format::kB).is_branch = true;
  set(Opcode::kBge, "bge", Format::kB).is_branch = true;
  set(Opcode::kJmp, "jmp", Format::kJ).is_jump = true;
  {
    auto& e = set(Opcode::kJal, "jal", Format::kJ);
    e.is_jump = true;
    e.is_call = true;
  }
  set(Opcode::kJr, "jr", Format::kR).is_indirect = true;
  {
    auto& e = set(Opcode::kRet, "ret", Format::kNone);
    e.is_indirect = true;
    e.is_return = true;
  }
  set(Opcode::kNop, "nop", Format::kNone);
  set(Opcode::kHalt, "halt", Format::kNone).is_halt = true;
  return t;
}

constexpr auto kOpcodeTable = make_table();

constexpr char lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// `m` lower-cased and packed with its length into one integer, or 0
/// when it is longer than any mnemonic can be.
constexpr std::uint64_t mnemonic_key(std::string_view m) {
  if (m.empty() || m.size() > 7) return 0;
  std::uint64_t key = m.size();
  for (const char c : m) {
    key = key << 8 | static_cast<unsigned char>(lower(c));
  }
  return key;
}

/// The mnemonic table: 64 slots, twice the opcodes, probed linearly
/// from the top six bits of a key's multiplicative hash.
constexpr std::size_t kMnemonicSlots = 64;
static_assert(kMnemonicSlots >= 2 * kNumOpcodes);

constexpr std::size_t mnemonic_slot(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 58);
}

struct MnemonicSlot {
  std::uint64_t key = 0;  // 0 when free
  Opcode op = Opcode::kNop;
};

constexpr std::array<MnemonicSlot, kMnemonicSlots> make_mnemonic_table() {
  std::array<MnemonicSlot, kMnemonicSlots> t{};
  for (unsigned i = 0; i < kNumOpcodes; ++i) {
    const std::uint64_t key = mnemonic_key(kOpcodeTable[i].mnemonic);
    std::size_t at = mnemonic_slot(key);
    while (t[at].key != 0) at = (at + 1) % kMnemonicSlots;
    t[at] = MnemonicSlot{key, static_cast<Opcode>(i)};
  }
  return t;
}

constexpr auto kMnemonicTable = make_mnemonic_table();

constexpr std::uint32_t kFieldMask18 = (1u << 18) - 1;
constexpr std::uint32_t kFieldMask26 = (1u << 26) - 1;

std::uint32_t check_reg(std::uint8_t r, const char* which) {
  APCC_CHECK(r < kNumRegisters, std::string("register out of range: ") + which);
  return r;
}

}  // namespace

const OpcodeInfo& opcode_info(Opcode op) {
  const auto index = static_cast<std::size_t>(op);
  APCC_ASSERT(index < kNumOpcodes, "invalid opcode enumerator");
  return kOpcodeTable[index];
}

std::optional<Opcode> opcode_from_mnemonic(std::string_view m) {
  const std::uint64_t key = mnemonic_key(m);
  if (key == 0) return std::nullopt;
  for (std::size_t at = mnemonic_slot(key);; at = (at + 1) % kMnemonicSlots) {
    if (kMnemonicTable[at].key == key) return kMnemonicTable[at].op;
    if (kMnemonicTable[at].key == 0) return std::nullopt;
  }
}

bool Instruction::is_control() const {
  const auto& info = opcode_info(opcode);
  return info.is_branch || info.is_jump || info.is_indirect || info.is_halt;
}

bool Instruction::can_fall_through() const {
  const auto& info = opcode_info(opcode);
  if (info.is_branch) return true;  // not-taken path
  if (info.is_call) return true;    // execution resumes after the call
  return !(info.is_jump || info.is_indirect || info.is_halt);
}

std::uint32_t encode(const Instruction& inst) {
  const auto& info = opcode_info(inst.opcode);
  std::uint32_t word = static_cast<std::uint32_t>(inst.opcode) << 26;
  switch (info.format) {
    case Format::kR:
      word |= check_reg(inst.rd, "rd") << 22;
      word |= check_reg(inst.rs1, "rs1") << 18;
      word |= check_reg(inst.rs2, "rs2") << 14;
      break;
    case Format::kI:
      APCC_CHECK(inst.imm >= kImmMin && inst.imm <= kImmMax,
                 "I-type immediate out of range");
      word |= check_reg(inst.rd, "rd") << 22;
      word |= check_reg(inst.rs1, "rs1") << 18;
      word |= static_cast<std::uint32_t>(inst.imm) & kFieldMask18;
      break;
    case Format::kB:
      APCC_CHECK(inst.imm >= kImmMin && inst.imm <= kImmMax,
                 "branch offset out of range");
      word |= check_reg(inst.rs1, "rs1") << 22;
      word |= check_reg(inst.rs2, "rs2") << 18;
      word |= static_cast<std::uint32_t>(inst.imm) & kFieldMask18;
      break;
    case Format::kJ:
      APCC_CHECK(inst.imm >= 0 &&
                     static_cast<std::uint32_t>(inst.imm) <= kJumpTargetMax,
                 "jump target out of range");
      word |= static_cast<std::uint32_t>(inst.imm) & kFieldMask26;
      break;
    case Format::kNone:
      break;
  }
  return word;
}

Instruction decode(std::uint32_t word) {
  const std::uint32_t op_field = word >> 26;
  APCC_CHECK(op_field < kNumOpcodes, "invalid opcode field in word");
  Instruction inst;
  inst.opcode = static_cast<Opcode>(op_field);
  const auto& info = opcode_info(inst.opcode);
  auto sign_extend18 = [](std::uint32_t v) {
    return (v & (1u << 17)) != 0
               ? static_cast<std::int32_t>(v | ~kFieldMask18)
               : static_cast<std::int32_t>(v);
  };
  switch (info.format) {
    case Format::kR:
      inst.rd = static_cast<std::uint8_t>((word >> 22) & 0xf);
      inst.rs1 = static_cast<std::uint8_t>((word >> 18) & 0xf);
      inst.rs2 = static_cast<std::uint8_t>((word >> 14) & 0xf);
      break;
    case Format::kI:
      inst.rd = static_cast<std::uint8_t>((word >> 22) & 0xf);
      inst.rs1 = static_cast<std::uint8_t>((word >> 18) & 0xf);
      inst.imm = sign_extend18(word & kFieldMask18);
      break;
    case Format::kB:
      inst.rs1 = static_cast<std::uint8_t>((word >> 22) & 0xf);
      inst.rs2 = static_cast<std::uint8_t>((word >> 18) & 0xf);
      inst.imm = sign_extend18(word & kFieldMask18);
      break;
    case Format::kJ:
      inst.imm = static_cast<std::int32_t>(word & kFieldMask26);
      break;
    case Format::kNone:
      break;
  }
  return inst;
}

}  // namespace apcc::isa
