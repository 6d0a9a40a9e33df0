#include "isa/program.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace apcc::isa {

Program::Program(std::vector<std::uint32_t> words,
                 std::vector<FunctionInfo> functions,
                 std::vector<Label> labels, std::uint32_t entry_word)
    : words_(std::move(words)),
      functions_(std::move(functions)),
      labels_(std::move(labels)),
      entry_word_(entry_word) {
  APCC_CHECK(entry_word_ < words_.size() || words_.empty(),
             "entry point outside program image");
  for (const auto& f : functions_) {
    APCC_CHECK(f.end_word() <= words_.size(),
               "function extent outside program image: " + f.name);
  }
  std::ranges::sort(labels_, {}, &Label::name);
  const auto dup = std::ranges::adjacent_find(
      labels_, [](const Label& a, const Label& b) { return a.name == b.name; });
  APCC_CHECK(dup == labels_.end(), "duplicate label " + dup->name);
}

std::uint32_t Program::word(std::uint32_t index) const {
  APCC_CHECK(index < words_.size(), "word index out of range");
  return words_[index];
}

Instruction Program::instruction(std::uint32_t index) const {
  return decode(word(index));
}

const FunctionInfo* Program::function_containing(std::uint32_t word) const {
  for (const auto& f : functions_) {
    if (word >= f.first_word && word < f.end_word()) {
      return &f;
    }
  }
  return nullptr;
}

std::optional<std::uint32_t> Program::label(const std::string& name) const {
  const auto it = std::ranges::lower_bound(labels_, name, {}, &Label::name);
  if (it == labels_.end() || it->name != name) return std::nullopt;
  return it->word;
}

std::optional<std::string> Program::label_at(std::uint32_t word) const {
  for (const Label& l : labels_) {
    if (l.word == word) return l.name;
  }
  return std::nullopt;
}

std::vector<std::uint8_t> Program::bytes(std::uint32_t first,
                                         std::uint32_t count) const {
  APCC_CHECK(std::uint64_t{first} + count <= words_.size(),
             "byte range outside program image");
  std::vector<std::uint8_t> out;
  out.reserve(std::size_t{count} * kInstructionBytes);
  for (std::uint32_t i = first; i < first + count; ++i) {
    const std::uint32_t w = words_[i];
    out.push_back(static_cast<std::uint8_t>(w & 0xff));
    out.push_back(static_cast<std::uint8_t>((w >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>((w >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>((w >> 24) & 0xff));
  }
  return out;
}

}  // namespace apcc::isa
