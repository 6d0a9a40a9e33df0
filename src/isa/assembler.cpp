#include "isa/assembler.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace apcc::isa {

namespace {

// One pass over the text, allocating nothing per line or operand: lines
// are cut with memchr, fields are views into the source, mnemonics and
// the common register spellings are matched in place, and labels (one
// hash-map node each) and label fixups hold views. Instructions are
// encoded as they are read; an encoding error and an undefined label are
// still reported in instruction order after the whole text has parsed,
// as a second pass would find them.

[[noreturn]] void fail(int line, const std::string& msg) {
  throw CheckError("assembler: line " + std::to_string(line) + ": " + msg);
}

/// A field delimiter: fields are split on spaces, tabs and commas.
constexpr bool is_delimiter(char c) {
  return c == ' ' || c == '\t' || c == ',';
}

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

constexpr char lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True if `s` lower-cases to `word` (which is lower case).
bool equals_lower(std::string_view s, std::string_view word) {
  return s.size() == word.size() &&
         std::ranges::equal(s, word, {}, lower);
}

/// A statement's fields: the first kKept views, and how many there are.
struct Fields {
  static constexpr std::size_t kKept = 4;  // a mnemonic and 3 operands
  std::array<std::string_view, kKept> at;
  std::size_t count = 0;
};

Fields split_statement(std::string_view text) {
  Fields f;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (true) {
    while (p != end && is_delimiter(*p)) ++p;
    if (p == end) break;
    const char* const start = p;
    while (p != end && !is_delimiter(*p)) ++p;
    if (f.count < Fields::kKept) {
      f.at[f.count] =
          std::string_view(start, static_cast<std::size_t>(p - start));
    }
    ++f.count;
  }
  return f;
}

/// Every spelling parse_register accepts but does not match in place:
/// the register file's number in decimal or 0x hex after an `r` in any
/// case (`r03`, `R0x0F`, `r+3`), space-padded.
std::uint8_t parse_register_fallback(std::string_view tok, int line) {
  const std::string low = to_lower(trim(tok));
  if (low == "zero") return 0;
  if (low == "sp") return kStackRegister;
  if (low == "ra") return kLinkRegister;
  if (low.size() >= 2 && low[0] == 'r') {
    std::int64_t n = -1;
    try {
      n = parse_int(std::string_view(low).substr(1));
    } catch (const CheckError&) {
      fail(line, "bad register '" + std::string(tok) + "'");
    }
    if (n >= 0 && n < kNumRegisters) {
      return static_cast<std::uint8_t>(n);
    }
  }
  fail(line, "bad register '" + std::string(tok) + "'");
}

std::uint8_t parse_register(std::string_view tok, int line) {
  // rN / rNN, and the three aliases, in any case.
  if ((tok.size() == 2 || tok.size() == 3) && lower(tok[0]) == 'r' &&
      is_digit(tok[1]) && (tok.size() == 2 || is_digit(tok[2]))) {
    const unsigned tens = tok.size() == 2 ? 0 : unsigned(tok[1] - '0');
    const unsigned n = tens * 10 + unsigned(tok.back() - '0');
    if (n < kNumRegisters) return static_cast<std::uint8_t>(n);
  } else if (equals_lower(tok, "zero")) {
    return 0;
  } else if (equals_lower(tok, "sp")) {
    return kStackRegister;
  } else if (equals_lower(tok, "ra")) {
    return kLinkRegister;
  }
  return parse_register_fallback(tok, line);
}

/// A 32-bit immediate: plain decimal is read with from_chars, and every
/// other spelling parse_int accepts (a `+` sign, 0x hex, padding) goes
/// through it.
std::int32_t parse_imm(std::string_view tok, int line) {
  std::int32_t v = 0;
  const char* const end = tok.data() + tok.size();
  if (const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
      ec == std::errc{} && ptr == end) {
    return v;
  }
  try {
    const std::int64_t wide = parse_int(tok);
    APCC_CHECK(wide >= INT32_MIN && wide <= INT32_MAX, "immediate overflow");
    return static_cast<std::int32_t>(wide);
  } catch (const CheckError&) {
    fail(line, "bad immediate '" + std::string(tok) + "'");
  }
}

bool looks_numeric(std::string_view tok) {
  const std::string_view t = trim(tok);
  if (t.empty()) return false;
  const char c = t.front();
  return c == '-' || c == '+' || is_digit(c);
}

/// Parse "imm(rN)" memory operand syntax.
void parse_mem_operand(std::string_view tok, int line, std::int32_t& imm,
                       std::uint8_t& base) {
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

/// The text before the line's first ';' or '#'.
std::string_view strip_comment(std::string_view line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == ';' || line[i] == '#') return line.substr(0, i);
  }
  return line;
}

/// An instruction whose target is a label, resolved once every label is
/// known.
struct Fixup {
  Instruction inst;
  std::uint32_t index = 0;  // word index
  int line = 0;
  std::string_view target;
};

/// The first instruction, by index, whose encoding failed.
struct EncodeError {
  std::uint32_t index = 0;
  int line = 0;
  std::string what;
};

}  // namespace

Program assemble(std::string_view source) {
  std::vector<std::uint32_t> words;
  // At most one instruction per line, and about one label per colon.
  words.reserve(static_cast<std::size_t>(
                    std::count(source.begin(), source.end(), '\n')) + 1);
  // The labels, keyed by views into the source.
  std::unordered_map<std::string_view, std::uint32_t> labels;
  labels.reserve(static_cast<std::size_t>(
      std::count(source.begin(), source.end(), ':')));
  std::vector<FunctionInfo> functions;
  std::vector<Fixup> fixups;
  std::string_view entry_label;
  std::optional<EncodeError> encode_error;

  auto close_function = [&](std::uint32_t at_word) {
    if (!functions.empty() && functions.back().word_count == 0) {
      functions.back().word_count = at_word - functions.back().first_word;
    }
  };
  auto next_word = [&] { return static_cast<std::uint32_t>(words.size()); };

  int line_no = 0;
  const char* cursor = source.data();
  const char* const source_end = cursor + source.size();
  // The text ends with one more line after its last '\n' (maybe empty).
  for (bool last = false; !last;) {
    const std::size_t rest = static_cast<std::size_t>(source_end - cursor);
    const auto* eol = rest == 0 ? nullptr
                                : static_cast<const char*>(
                                      std::memchr(cursor, '\n', rest));
    last = eol == nullptr;
    if (last) eol = source_end;
    const std::string_view raw(cursor, static_cast<std::size_t>(eol - cursor));
    cursor = last ? source_end : eol + 1;
    ++line_no;

    std::string_view text = trim(strip_comment(raw));
    if (text.empty()) continue;

    // Labels (possibly several on one line before an instruction).
    while (true) {
      const std::size_t colon = text.find(':');
      if (colon == std::string_view::npos) break;
      const std::string_view head = trim(text.substr(0, colon));
      if (head.empty() || std::ranges::any_of(head, [](char c) {
            return c == ' ' || c == '\t';
          })) {
        break;  // ':' belongs to something else, e.g. nothing we support
      }
      if (!labels.try_emplace(head, next_word()).second) {
        fail(line_no, "duplicate label '" + std::string(head) + "'");
      }
      text = trim(text.substr(colon + 1));
      if (text.empty()) break;
    }
    if (text.empty()) continue;

    const Fields fields = split_statement(text);
    if (fields.count == 0) fail(line_no, "statement has no mnemonic");

    // Directives.
    if (text.front() == '.') {
      const std::string_view dir = fields.at[0];
      if (equals_lower(dir, ".func")) {
        if (fields.count != 2) fail(line_no, ".func expects a name");
        close_function(next_word());
        FunctionInfo f;
        f.name = std::string(fields.at[1]);
        f.first_word = next_word();
        functions.push_back(std::move(f));
        // A function name is implicitly a label too.
        labels.try_emplace(fields.at[1], next_word());
      } else if (equals_lower(dir, ".entry")) {
        if (fields.count != 2) fail(line_no, ".entry expects a name");
        entry_label = fields.at[1];
      } else {
        fail(line_no, "unknown directive '" + to_lower(dir) + "'");
      }
      continue;
    }

    // Instruction.
    const auto op = opcode_from_mnemonic(fields.at[0]);
    if (!op) {
      fail(line_no, "unknown mnemonic '" + to_lower(fields.at[0]) + "'");
    }
    const OpcodeInfo& info = opcode_info(*op);
    const std::size_t operands = fields.count - 1;
    auto need = [&](std::size_t n) {
      if (operands != n) {
        fail(line_no, to_lower(fields.at[0]) + " expects " +
                          std::to_string(n) + " operand(s), got " +
                          std::to_string(operands));
      }
    };
    auto operand = [&](std::size_t i) { return fields.at[i + 1]; };

    Instruction inst;
    inst.opcode = *op;
    std::string_view target;  // a label to resolve into inst.imm
    auto parse_target = [&](std::string_view tok) {
      if (looks_numeric(tok)) {
        inst.imm = parse_imm(tok, line_no);
      } else {
        target = trim(tok);
      }
    };
    switch (info.format) {
      case Format::kR:
        if (info.is_indirect) {  // jr rs1
          need(1);
          inst.rs1 = parse_register(operand(0), line_no);
        } else {
          need(3);
          inst.rd = parse_register(operand(0), line_no);
          inst.rs1 = parse_register(operand(1), line_no);
          inst.rs2 = parse_register(operand(2), line_no);
        }
        break;
      case Format::kI:
        if (info.is_load || info.is_store) {  // lw rd, imm(rs1)
          need(2);
          inst.rd = parse_register(operand(0), line_no);
          parse_mem_operand(operand(1), line_no, inst.imm, inst.rs1);
        } else if (*op == Opcode::kLui) {  // lui rd, imm
          need(2);
          inst.rd = parse_register(operand(0), line_no);
          inst.imm = parse_imm(operand(1), line_no);
        } else {  // addi rd, rs1, imm
          need(3);
          inst.rd = parse_register(operand(0), line_no);
          inst.rs1 = parse_register(operand(1), line_no);
          inst.imm = parse_imm(operand(2), line_no);
        }
        break;
      case Format::kB:  // beq rs1, rs2, target
        need(3);
        inst.rs1 = parse_register(operand(0), line_no);
        inst.rs2 = parse_register(operand(1), line_no);
        parse_target(operand(2));
        break;
      case Format::kJ:  // jmp target
        need(1);
        parse_target(operand(0));
        break;
      case Format::kNone:
        need(0);
        break;
    }

    if (!target.empty()) {
      fixups.push_back(Fixup{inst, next_word(), line_no, target});
      words.push_back(0);
    } else {
      try {
        words.push_back(encode(inst));
      } catch (const CheckError& e) {
        if (!encode_error) {
          encode_error = EncodeError{next_word(), line_no, e.what()};
        }
        words.push_back(0);
      }
    }
  }

  close_function(next_word());

  // Resolve the label targets. The first failing instruction, in word
  // order, names the error: an unresolved or unencodable target, or an
  // operand encode() refused above.
  for (const Fixup& fix : fixups) {
    if (encode_error && encode_error->index < fix.index) break;
    const auto label = labels.find(fix.target);
    if (label == labels.end()) {
      fail(fix.line, "undefined label '" + std::string(fix.target) + "'");
    }
    const std::uint32_t word = label->second;
    Instruction inst = fix.inst;
    if (opcode_info(inst.opcode).format == Format::kB) {
      // Offset is relative to the following instruction.
      inst.imm = static_cast<std::int32_t>(word) -
                 static_cast<std::int32_t>(fix.index) - 1;
    } else {
      inst.imm = static_cast<std::int32_t>(word);
    }
    try {
      words[fix.index] = encode(inst);
    } catch (const CheckError& e) {
      fail(fix.line, e.what());
    }
  }
  if (encode_error) fail(encode_error->line, encode_error->what);

  std::uint32_t entry = 0;
  if (!entry_label.empty()) {
    const auto label = labels.find(entry_label);
    APCC_CHECK(label != labels.end(),
               "undefined .entry label " + std::string(entry_label));
    entry = label->second;
  } else if (!functions.empty()) {
    entry = functions.front().first_word;
  }
  words.shrink_to_fit();
  functions.shrink_to_fit();
  // The labels' names are views into `source`; Program copies them.
  std::vector<LabelView> label_views;
  label_views.reserve(labels.size());
  for (const auto& [name, word] : labels) {
    label_views.push_back(LabelView{name, word});
  }
  return Program(std::move(words), std::move(functions),
                 std::move(label_views), entry);
}

}  // namespace apcc::isa
