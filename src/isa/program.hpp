// Program image: the unit the rest of APCC operates on.
//
// A Program is a flat sequence of 32-bit ERISC instruction words plus
// symbol and function metadata produced by the assembler. Word index 0 is
// address 0; byte addresses are word_index * 4.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "isa/isa.hpp"

namespace apcc::isa {

/// Contiguous function extent within the image.
struct FunctionInfo {
  std::string name;
  std::uint32_t first_word = 0;
  std::uint32_t word_count = 0;

  [[nodiscard]] std::uint32_t end_word() const {
    return first_word + word_count;
  }
};

/// A named word index handed to the Program constructor: an assembler
/// label or a function name. The name is a view, not a copy: the
/// constructor copies it into the program's label arena, so the viewed
/// text need only live until the constructor returns.
struct LabelView {
  std::string_view name;
  std::uint32_t word = 0;
};

/// An assembled ERISC-32 program image.
class Program {
 public:
  Program() = default;
  Program(std::vector<std::uint32_t> words,
          std::vector<FunctionInfo> functions,
          std::vector<LabelView> labels, std::uint32_t entry_word);

  [[nodiscard]] std::span<const std::uint32_t> words() const { return words_; }
  [[nodiscard]] std::uint32_t word(std::uint32_t index) const;
  [[nodiscard]] Instruction instruction(std::uint32_t index) const;

  [[nodiscard]] std::uint32_t word_count() const {
    return static_cast<std::uint32_t>(words_.size());
  }
  [[nodiscard]] std::uint64_t size_bytes() const {
    return std::uint64_t{words_.size()} * kInstructionBytes;
  }

  [[nodiscard]] std::uint32_t entry_word() const { return entry_word_; }

  [[nodiscard]] const std::vector<FunctionInfo>& functions() const {
    return functions_;
  }
  /// Function containing `word`, or nullptr for out-of-function padding.
  [[nodiscard]] const FunctionInfo* function_containing(
      std::uint32_t word) const;

  /// Number of labels; their names are unique.
  [[nodiscard]] std::size_t label_count() const { return label_table_.size(); }
  [[nodiscard]] std::optional<std::uint32_t> label(
      const std::string& name) const;
  /// Label at exactly `word`, if any (first alphabetically on ties).
  [[nodiscard]] std::optional<std::string> label_at(std::uint32_t word) const;

  /// Little-endian byte serialisation of a word range; this is what the
  /// codecs compress. `count` words starting at `first`.
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::uint32_t first,
                                                std::uint32_t count) const;
  /// Whole-image bytes.
  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    return bytes(0, word_count());
  }

 private:
  /// One label: where its name starts in `label_names_` (it ends where
  /// the next entry's starts) and the word it names.
  struct LabelEntry {
    std::uint32_t name_begin = 0;
    std::uint32_t word = 0;
  };

  [[nodiscard]] std::string_view label_name(std::size_t index) const;

  std::vector<std::uint32_t> words_;
  std::vector<FunctionInfo> functions_;
  std::string label_names_;               // every name, in name order
  std::vector<LabelEntry> label_table_;  // sorted by name
  std::uint32_t entry_word_ = 0;
};

}  // namespace apcc::isa
