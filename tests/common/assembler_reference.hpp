// The test-side reference assembler: the two-pass assembler that
// isa::assemble replaced, kept as the oracle the assembler differential
// (tests/isa/assembler_differential_test.cpp) holds the one-pass one to.
// It splits each line into heap fields, keeps its labels in a
// std::map<std::string> and its instructions in a pending list, and
// resolves and encodes them in a second pass; every spelling it accepts
// and every error it reports, in order, is the contract.
//
// One change from the replaced code: a statement of only delimiters
// (`,` or `foo: ,`) is a CheckError naming its line, where the old code
// read the first field of an empty field list.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/program.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace apcc::testref {

namespace assembler_detail {

struct PendingInstruction {
  isa::Instruction inst;
  std::string target_label;  // non-empty if imm must be resolved from label
  int line = 0;
};

[[noreturn]] inline void fail(int line, const std::string& msg) {
  throw CheckError("assembler: line " + std::to_string(line) + ": " + msg);
}

/// The opcode spelled exactly `m`, by a scan of the opcode table.
inline std::optional<isa::Opcode> find_opcode(std::string_view m) {
  for (unsigned i = 0; i < isa::kNumOpcodes; ++i) {
    const auto op = static_cast<isa::Opcode>(i);
    if (isa::opcode_info(op).mnemonic == m) return op;
  }
  return std::nullopt;
}

inline std::uint8_t parse_register(std::string_view tok, int line) {
  const std::string low = to_lower(trim(tok));
  if (low == "zero") return 0;
  if (low == "sp") return isa::kStackRegister;
  if (low == "ra") return isa::kLinkRegister;
  if (low.size() >= 2 && low[0] == 'r') {
    std::int64_t n = -1;
    try {
      n = parse_int(low.substr(1));
    } catch (const CheckError&) {
      fail(line, "bad register '" + std::string(tok) + "'");
    }
    if (n >= 0 && n < isa::kNumRegisters) {
      return static_cast<std::uint8_t>(n);
    }
  }
  fail(line, "bad register '" + std::string(tok) + "'");
}

inline std::int32_t parse_imm(std::string_view tok, int line) {
  try {
    const std::int64_t v = parse_int(tok);
    APCC_CHECK(v >= INT32_MIN && v <= INT32_MAX, "immediate overflow");
    return static_cast<std::int32_t>(v);
  } catch (const CheckError&) {
    fail(line, "bad immediate '" + std::string(tok) + "'");
  }
}

inline bool looks_numeric(std::string_view tok) {
  const std::string_view t = trim(tok);
  if (t.empty()) return false;
  const char c = t.front();
  return c == '-' || c == '+' || (c >= '0' && c <= '9');
}

/// Parse "imm(rN)" memory operand syntax.
inline void parse_mem_operand(std::string_view tok, int line,
                              std::int32_t& imm, std::uint8_t& base) {
  const std::size_t open = tok.find('(');
  const std::size_t close = tok.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    fail(line, "bad memory operand '" + std::string(tok) +
                   "', expected imm(reg)");
  }
  const std::string_view imm_part = trim(tok.substr(0, open));
  imm = imm_part.empty() ? 0 : parse_imm(imm_part, line);
  base = parse_register(tok.substr(open + 1, close - open - 1), line);
}

inline std::string_view strip_comment(std::string_view line) {
  const std::size_t pos = line.find_first_of(";#");
  return pos == std::string_view::npos ? line : line.substr(0, pos);
}

}  // namespace assembler_detail

/// Assemble `source` as the replaced two-pass assembler did.
inline isa::Program reference_assemble(std::string_view source) {
  using namespace assembler_detail;
  using isa::Format;
  using isa::FunctionInfo;
  using isa::OpcodeInfo;
  std::vector<PendingInstruction> pending;
  std::map<std::string, std::uint32_t> labels;
  std::vector<FunctionInfo> functions;
  std::optional<std::string> entry_label;

  auto close_function = [&](std::uint32_t at_word) {
    if (!functions.empty() && functions.back().word_count == 0) {
      functions.back().word_count = at_word - functions.back().first_word;
    }
  };

  int line_no = 0;
  std::size_t cursor = 0;
  while (cursor <= source.size()) {
    const std::size_t eol = source.find('\n', cursor);
    std::string_view raw =
        source.substr(cursor, (eol == std::string_view::npos)
                                  ? source.size() - cursor
                                  : eol - cursor);
    cursor = (eol == std::string_view::npos) ? source.size() + 1 : eol + 1;
    ++line_no;

    std::string_view text = trim(strip_comment(raw));
    if (text.empty()) continue;

    // Labels (possibly several on one line before an instruction).
    while (true) {
      const std::size_t colon = text.find(':');
      if (colon == std::string_view::npos) break;
      const std::string_view head = trim(text.substr(0, colon));
      if (head.empty() || head.find_first_of(" \t") != std::string_view::npos) {
        break;  // ':' belongs to something else, e.g. nothing we support
      }
      const std::string name(head);
      if (labels.contains(name)) {
        fail(line_no, "duplicate label '" + name + "'");
      }
      labels[name] = static_cast<std::uint32_t>(pending.size());
      text = trim(text.substr(colon + 1));
      if (text.empty()) break;
    }
    if (text.empty()) continue;

    // Directives.
    if (text.front() == '.') {
      const auto fields = split_fields(text);
      const std::string dir = to_lower(fields[0]);
      if (dir == ".func") {
        if (fields.size() != 2) fail(line_no, ".func expects a name");
        close_function(static_cast<std::uint32_t>(pending.size()));
        FunctionInfo f;
        f.name = std::string(fields[1]);
        f.first_word = static_cast<std::uint32_t>(pending.size());
        functions.push_back(std::move(f));
        // A function name is implicitly a label too.
        const std::string name(fields[1]);
        if (!labels.contains(name)) {
          labels[name] = static_cast<std::uint32_t>(pending.size());
        }
      } else if (dir == ".entry") {
        if (fields.size() != 2) fail(line_no, ".entry expects a name");
        entry_label = std::string(fields[1]);
      } else {
        fail(line_no, "unknown directive '" + dir + "'");
      }
      continue;
    }

    // Instruction.
    const auto fields = split_fields(text);
    if (fields.empty()) fail(line_no, "statement has no mnemonic");
    const std::string mnemonic = to_lower(fields[0]);
    const auto op = find_opcode(mnemonic);
    if (!op) fail(line_no, "unknown mnemonic '" + mnemonic + "'");
    const OpcodeInfo& info = isa::opcode_info(*op);

    PendingInstruction pi;
    pi.inst.opcode = *op;
    pi.line = line_no;
    const auto operands =
        std::vector<std::string_view>(fields.begin() + 1, fields.end());
    auto need = [&](std::size_t n) {
      if (operands.size() != n) {
        fail(line_no, mnemonic + " expects " + std::to_string(n) +
                          " operand(s), got " +
                          std::to_string(operands.size()));
      }
    };

    switch (info.format) {
      case Format::kR:
        if (info.is_indirect) {  // jr rs1
          need(1);
          pi.inst.rs1 = parse_register(operands[0], line_no);
        } else {
          need(3);
          pi.inst.rd = parse_register(operands[0], line_no);
          pi.inst.rs1 = parse_register(operands[1], line_no);
          pi.inst.rs2 = parse_register(operands[2], line_no);
        }
        break;
      case Format::kI:
        if (info.is_load || info.is_store) {  // lw rd, imm(rs1)
          need(2);
          pi.inst.rd = parse_register(operands[0], line_no);
          parse_mem_operand(operands[1], line_no, pi.inst.imm, pi.inst.rs1);
        } else if (*op == isa::Opcode::kLui) {  // lui rd, imm
          need(2);
          pi.inst.rd = parse_register(operands[0], line_no);
          pi.inst.imm = parse_imm(operands[1], line_no);
        } else {  // addi rd, rs1, imm
          need(3);
          pi.inst.rd = parse_register(operands[0], line_no);
          pi.inst.rs1 = parse_register(operands[1], line_no);
          pi.inst.imm = parse_imm(operands[2], line_no);
        }
        break;
      case Format::kB:  // beq rs1, rs2, target
        need(3);
        pi.inst.rs1 = parse_register(operands[0], line_no);
        pi.inst.rs2 = parse_register(operands[1], line_no);
        if (looks_numeric(operands[2])) {
          pi.inst.imm = parse_imm(operands[2], line_no);
        } else {
          pi.target_label = std::string(trim(operands[2]));
        }
        break;
      case Format::kJ:  // jmp target
        need(1);
        if (looks_numeric(operands[0])) {
          pi.inst.imm = parse_imm(operands[0], line_no);
        } else {
          pi.target_label = std::string(trim(operands[0]));
        }
        break;
      case Format::kNone:
        need(0);
        break;
    }
    pending.push_back(std::move(pi));
  }

  close_function(static_cast<std::uint32_t>(pending.size()));

  // Second pass: resolve labels and encode.
  std::vector<std::uint32_t> words;
  words.reserve(pending.size());
  for (std::uint32_t index = 0; index < pending.size(); ++index) {
    auto& pi = pending[index];
    if (!pi.target_label.empty()) {
      const auto it = labels.find(pi.target_label);
      if (it == labels.end()) {
        fail(pi.line, "undefined label '" + pi.target_label + "'");
      }
      const OpcodeInfo& info = isa::opcode_info(pi.inst.opcode);
      if (info.format == Format::kB) {
        // Offset is relative to the following instruction.
        pi.inst.imm = static_cast<std::int32_t>(it->second) -
                      static_cast<std::int32_t>(index) - 1;
      } else {
        pi.inst.imm = static_cast<std::int32_t>(it->second);
      }
    }
    try {
      words.push_back(isa::encode(pi.inst));
    } catch (const CheckError& e) {
      fail(pi.line, e.what());
    }
  }

  std::uint32_t entry = 0;
  if (entry_label) {
    const auto it = labels.find(*entry_label);
    APCC_CHECK(it != labels.end(), "undefined .entry label " + *entry_label);
    entry = it->second;
  } else if (!functions.empty()) {
    entry = functions.front().first_word;
  }
  // The views name the map's keys, which outlive the constructor call.
  std::vector<isa::LabelView> label_table;
  label_table.reserve(labels.size());
  for (const auto& [name, word] : labels) {
    label_table.push_back(isa::LabelView{name, word});
  }
  return isa::Program(std::move(words), std::move(functions),
                      std::move(label_table), entry);
}

}  // namespace apcc::testref
