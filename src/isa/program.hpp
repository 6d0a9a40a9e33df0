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

/// A named word index: an assembler label or a function name.
struct Label {
  std::string name;
  std::uint32_t word = 0;
};

/// An assembled ERISC-32 program image.
class Program {
 public:
  Program() = default;
  Program(std::vector<std::uint32_t> words,
          std::vector<FunctionInfo> functions,
          std::vector<Label> labels, std::uint32_t entry_word);

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

  /// Every label, sorted by name; names are unique.
  [[nodiscard]] const std::vector<Label>& labels() const { return labels_; }
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
  std::vector<std::uint32_t> words_;
  std::vector<FunctionInfo> functions_;
  std::vector<Label> labels_;  // sorted by name
  std::uint32_t entry_word_ = 0;
};

}  // namespace apcc::isa
