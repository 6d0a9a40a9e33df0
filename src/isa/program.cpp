#include "isa/program.hpp"

#include <algorithm>
#include <limits>
#include <ranges>

#include "support/assert.hpp"

namespace apcc::isa {

Program::Program(std::vector<std::uint32_t> words,
                 std::vector<FunctionInfo> functions,
                 std::vector<LabelView> labels, std::uint32_t entry_word)
    : words_(std::move(words)),
      functions_(std::move(functions)),
      entry_word_(entry_word) {
  APCC_CHECK(entry_word_ < words_.size() || words_.empty(),
             "entry point outside program image");
  for (const auto& f : functions_) {
    APCC_CHECK(f.end_word() <= words_.size(),
               "function extent outside program image: " + f.name);
  }
  std::ranges::sort(labels, {}, &LabelView::name);
  const auto dup = std::ranges::adjacent_find(labels, {}, &LabelView::name);
  APCC_CHECK(dup == labels.end(),
             "duplicate label " + std::string(dup->name));
  // The names go back to back into one arena, in name order, so an
  // entry's name ends where the next entry's begins.
  std::size_t name_bytes = 0;
  for (const LabelView& l : labels) name_bytes += l.name.size();
  APCC_CHECK(name_bytes <= std::numeric_limits<std::uint32_t>::max(),
             "label names exceed 4 GiB");
  label_names_.reserve(name_bytes);
  label_table_.reserve(labels.size());
  for (const LabelView& l : labels) {
    label_table_.push_back(
        LabelEntry{static_cast<std::uint32_t>(label_names_.size()), l.word});
    label_names_ += l.name;
  }
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

std::string_view Program::label_name(std::size_t index) const {
  const std::size_t begin = label_table_[index].name_begin;
  const std::size_t end = index + 1 < label_table_.size()
                              ? label_table_[index + 1].name_begin
                              : label_names_.size();
  return std::string_view(label_names_).substr(begin, end - begin);
}

std::optional<std::uint32_t> Program::label(const std::string& name) const {
  const auto indices = std::views::iota(std::size_t{0}, label_table_.size());
  const auto it = std::ranges::lower_bound(
      indices, std::string_view(name), {},
      [this](std::size_t i) { return label_name(i); });
  if (it == indices.end() || label_name(*it) != name) return std::nullopt;
  return label_table_[*it].word;
}

std::optional<std::string> Program::label_at(std::uint32_t word) const {
  for (std::size_t i = 0; i < label_table_.size(); ++i) {
    if (label_table_[i].word == word) return std::string(label_name(i));
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
