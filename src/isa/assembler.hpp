// Assembler for ERISC-32 assembly text: one pass over the text, which
// allocates nothing per line or operand; label targets are resolved
// once the whole text has been read.
//
// Syntax overview (one statement per line, ';' or '#' starts a comment):
//
//   .func NAME          start a new function (implicitly ends the previous)
//   .entry NAME         set the program entry point (default: first func)
//   label:              define a label at the current word
//   add  rd, rs1, rs2   R-type
//   addi rd, rs1, imm   I-type ALU (imm decimal or 0x hex)
//   lui  rd, imm
//   lw   rd, imm(rs1)   loads
//   sw   rs, imm(rs1)   stores (rs is the value source)
//   beq  rs1, rs2, tgt  branches; tgt is a label or numeric word offset
//   jmp  tgt / jal tgt  jumps; tgt is a label or absolute word index
//   jr   rs1 / ret / nop / halt
//
// Mnemonics, directives and registers are case-insensitive; fields are
// split on spaces, tabs and commas.
// Registers: r0..r15, plus aliases zero (r0), sp (r14), ra (r15).
// Errors throw CheckError with the offending line number (an undefined
// .entry label names none).
#pragma once

#include <string_view>

#include "isa/program.hpp"

namespace apcc::isa {

/// Assemble `source` into a Program. Throws CheckError on syntax errors,
/// unknown mnemonics, undefined labels, or out-of-range operands.
[[nodiscard]] Program assemble(std::string_view source);

}  // namespace apcc::isa
