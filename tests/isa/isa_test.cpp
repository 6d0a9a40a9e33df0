// Encoder/decoder tests for ERISC-32, including an exhaustive-ish
// round-trip property over all opcodes and operand extremes.
#include <gtest/gtest.h>

#include <string>

#include "isa/isa.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace apcc::isa {
namespace {

TEST(OpcodeInfo, EveryOpcodeHasAMnemonicAndFormat) {
  for (unsigned i = 0; i < kNumOpcodes; ++i) {
    const auto& info = opcode_info(static_cast<Opcode>(i));
    EXPECT_FALSE(info.mnemonic.empty()) << "opcode " << i;
  }
}

TEST(OpcodeInfo, MnemonicLookupRoundTrips) {
  for (unsigned i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    const auto found = opcode_from_mnemonic(opcode_info(op).mnemonic);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, op);
  }
}

TEST(OpcodeInfo, MnemonicLookupIgnoresCase) {
  for (unsigned i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    std::string upper(opcode_info(op).mnemonic);
    for (char& c : upper) c = static_cast<char>(c - 'a' + 'A');
    EXPECT_EQ(opcode_from_mnemonic(upper), op) << upper;
  }
  EXPECT_EQ(opcode_from_mnemonic("Halt"), Opcode::kHalt);
  EXPECT_EQ(opcode_from_mnemonic("aDdI"), Opcode::kAddi);
}

TEST(OpcodeInfo, UnknownMnemonicIsNullopt) {
  EXPECT_FALSE(opcode_from_mnemonic("frobnicate").has_value());
  EXPECT_FALSE(opcode_from_mnemonic("").has_value());
  // Near misses: a prefix, an extension, a stray space, a digit.
  EXPECT_FALSE(opcode_from_mnemonic("ad").has_value());
  EXPECT_FALSE(opcode_from_mnemonic("addiu").has_value());
  EXPECT_FALSE(opcode_from_mnemonic("add ").has_value());
  EXPECT_FALSE(opcode_from_mnemonic("r1").has_value());
}

TEST(OpcodeInfo, ClassificationFlags) {
  EXPECT_TRUE(opcode_info(Opcode::kBeq).is_branch);
  EXPECT_TRUE(opcode_info(Opcode::kJmp).is_jump);
  EXPECT_TRUE(opcode_info(Opcode::kJal).is_call);
  EXPECT_TRUE(opcode_info(Opcode::kRet).is_return);
  EXPECT_TRUE(opcode_info(Opcode::kLw).is_load);
  EXPECT_TRUE(opcode_info(Opcode::kSw).is_store);
  EXPECT_TRUE(opcode_info(Opcode::kHalt).is_halt);
  EXPECT_FALSE(opcode_info(Opcode::kAdd).is_branch);
}

TEST(Instruction, ControlAndFallThrough) {
  Instruction beq{Opcode::kBeq, 0, 1, 2, 5};
  EXPECT_TRUE(beq.is_control());
  EXPECT_TRUE(beq.can_fall_through());

  Instruction jmp{Opcode::kJmp, 0, 0, 0, 10};
  EXPECT_TRUE(jmp.is_control());
  EXPECT_FALSE(jmp.can_fall_through());

  Instruction jal{Opcode::kJal, 0, 0, 0, 10};
  EXPECT_TRUE(jal.is_control());
  EXPECT_TRUE(jal.can_fall_through()) << "calls resume after return";

  Instruction add{Opcode::kAdd, 1, 2, 3, 0};
  EXPECT_FALSE(add.is_control());
  EXPECT_TRUE(add.can_fall_through());

  Instruction halt{Opcode::kHalt, 0, 0, 0, 0};
  EXPECT_TRUE(halt.is_control());
  EXPECT_FALSE(halt.can_fall_through());
}

TEST(EncodeDecode, RTypeFields) {
  const Instruction in{Opcode::kAdd, 3, 7, 12, 0};
  const Instruction out = decode(encode(in));
  EXPECT_EQ(out, in);
}

TEST(EncodeDecode, ITypeNegativeImmediate) {
  const Instruction in{Opcode::kAddi, 2, 5, 0, -42};
  EXPECT_EQ(decode(encode(in)), in);
}

TEST(EncodeDecode, ITypeImmediateExtremes) {
  for (const std::int32_t imm : {kImmMin, kImmMin + 1, -1, 0, 1, kImmMax}) {
    const Instruction in{Opcode::kXori, 1, 2, 0, imm};
    EXPECT_EQ(decode(encode(in)).imm, imm);
  }
}

TEST(EncodeDecode, BTypeOffsetExtremes) {
  for (const std::int32_t off : {kImmMin, -1, 0, 1, kImmMax}) {
    const Instruction in{Opcode::kBne, 0, 4, 9, off};
    const Instruction out = decode(encode(in));
    EXPECT_EQ(out.imm, off);
    EXPECT_EQ(out.rs1, 4);
    EXPECT_EQ(out.rs2, 9);
  }
}

TEST(EncodeDecode, JTypeTargetExtremes) {
  for (const std::int32_t target :
       {0, 1, static_cast<std::int32_t>(kJumpTargetMax)}) {
    const Instruction in{Opcode::kJal, 0, 0, 0, target};
    EXPECT_EQ(decode(encode(in)).imm, target);
  }
}

TEST(EncodeDecode, ImmediateOutOfRangeThrows) {
  Instruction in{Opcode::kAddi, 0, 0, 0, kImmMax + 1};
  EXPECT_THROW((void)encode(in), CheckError);
  in.imm = kImmMin - 1;
  EXPECT_THROW((void)encode(in), CheckError);
}

TEST(EncodeDecode, JumpTargetOutOfRangeThrows) {
  Instruction in{Opcode::kJmp, 0, 0, 0, -1};
  EXPECT_THROW((void)encode(in), CheckError);
  in.imm = static_cast<std::int32_t>(kJumpTargetMax) + 1;
  EXPECT_THROW((void)encode(in), CheckError);
}

TEST(EncodeDecode, RegisterOutOfRangeThrows) {
  Instruction in{Opcode::kAdd, 16, 0, 0, 0};
  EXPECT_THROW((void)encode(in), CheckError);
}

TEST(EncodeDecode, InvalidOpcodeFieldThrows) {
  const std::uint32_t bad = 0xffffffffu;  // opcode field = 63
  EXPECT_THROW((void)decode(bad), CheckError);
}

TEST(EncodeDecode, NopAndHaltEncodeCleanly) {
  EXPECT_EQ(decode(encode(Instruction{Opcode::kNop, 0, 0, 0, 0})).opcode,
            Opcode::kNop);
  EXPECT_EQ(decode(encode(Instruction{Opcode::kHalt, 0, 0, 0, 0})).opcode,
            Opcode::kHalt);
}

// Property: random valid instructions round-trip through encode/decode.
TEST(EncodeDecode, RandomRoundTripProperty) {
  apcc::Rng rng(2024);
  for (int iter = 0; iter < 2000; ++iter) {
    Instruction in;
    in.opcode = static_cast<Opcode>(rng.next_below(kNumOpcodes));
    const auto& info = opcode_info(in.opcode);
    switch (info.format) {
      case Format::kR:
        in.rd = static_cast<std::uint8_t>(rng.next_below(16));
        in.rs1 = static_cast<std::uint8_t>(rng.next_below(16));
        in.rs2 = static_cast<std::uint8_t>(rng.next_below(16));
        break;
      case Format::kI:
        in.rd = static_cast<std::uint8_t>(rng.next_below(16));
        in.rs1 = static_cast<std::uint8_t>(rng.next_below(16));
        in.imm = static_cast<std::int32_t>(rng.next_in(kImmMin, kImmMax));
        break;
      case Format::kB:
        in.rs1 = static_cast<std::uint8_t>(rng.next_below(16));
        in.rs2 = static_cast<std::uint8_t>(rng.next_below(16));
        in.imm = static_cast<std::int32_t>(rng.next_in(kImmMin, kImmMax));
        break;
      case Format::kJ:
        in.imm = static_cast<std::int32_t>(rng.next_below(kJumpTargetMax + 1));
        break;
      case Format::kNone:
        break;
    }
    EXPECT_EQ(decode(encode(in)), in);
  }
}

}  // namespace
}  // namespace apcc::isa
