// Program image accessor tests: word/byte views, functions, labels,
// and range checking.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/program.hpp"
#include "support/assert.hpp"

namespace apcc::isa {
namespace {

Program sample() {
  return assemble(
      ".entry main\n"
      ".func helper\n"
      "  add r1, r2, r3\n"
      "  ret\n"
      ".func main\n"
      "start:\n"
      "  addi r1, r0, 1\n"
      "  jal helper\n"
      "  halt\n");
}

TEST(Program, WordAndInstructionAccess) {
  const Program p = sample();
  ASSERT_EQ(p.word_count(), 5u);
  EXPECT_EQ(p.instruction(0).opcode, Opcode::kAdd);
  EXPECT_EQ(p.instruction(4).opcode, Opcode::kHalt);
  EXPECT_THROW((void)p.word(5), apcc::CheckError);
  EXPECT_THROW((void)p.instruction(99), apcc::CheckError);
}

TEST(Program, SizeBytes) {
  EXPECT_EQ(sample().size_bytes(), 20u);
}

TEST(Program, EntryPointsAtMain) {
  const Program p = sample();
  EXPECT_EQ(p.entry_word(), 2u);
}

TEST(Program, FunctionContainment) {
  const Program p = sample();
  EXPECT_EQ(p.function_containing(0)->name, "helper");
  EXPECT_EQ(p.function_containing(1)->name, "helper");
  EXPECT_EQ(p.function_containing(2)->name, "main");
  EXPECT_EQ(p.function_containing(4)->name, "main");
}

TEST(Program, LabelLookup) {
  const Program p = sample();
  EXPECT_EQ(p.label("start").value(), 2u);
  EXPECT_EQ(p.label("main").value(), 2u);
  EXPECT_EQ(p.label("helper").value(), 0u);
  EXPECT_FALSE(p.label("nope").has_value());
}

TEST(Program, LabelAtWord) {
  const Program p = sample();
  const auto at2 = p.label_at(2);
  ASSERT_TRUE(at2.has_value());
  EXPECT_TRUE(*at2 == "start" || *at2 == "main");
  EXPECT_FALSE(p.label_at(1).has_value());
}

/// A program of `words` halts labelled with `labels`.
Program halts_labelled(std::uint32_t words, std::vector<LabelView> labels) {
  return Program(std::vector<std::uint32_t>(
                     words, encode(Instruction{Opcode::kHalt, 0, 0, 0, 0})),
                 {}, std::move(labels), 0);
}

TEST(Program, ManyLabelsLongAndShort) {
  // 400 labels given out of name order, three to a word, with names of
  // 2 to 43 characters, many past the small-string buffer; and 20 more
  // on the last word, each name the prefix of the next.
  std::vector<std::pair<std::string, std::uint32_t>> given;
  for (std::uint32_t i = 0; i < 400; ++i) {
    std::string name = "L" + std::to_string((i * 7919) % 400);
    name.append(i % 40, static_cast<char>('a' + i % 26));
    given.emplace_back(name, i / 3);
  }
  for (std::uint32_t length = 20; length >= 1; --length) {
    given.emplace_back(std::string(length, 'p'), 133);
  }
  const std::map<std::string, std::uint32_t> want(given.begin(),
                                                  given.end());  // name order
  // A LabelView's name is a view into `given`, which outlives the
  // Program's construction.
  std::vector<LabelView> labels;
  for (const auto& [name, word] : given) {
    labels.push_back(LabelView{name, word});
  }
  ASSERT_EQ(want.size(), 420u);
  const Program p = halts_labelled(134, labels);
  EXPECT_EQ(p.label_count(), 420u);
  for (const auto& [name, word] : want) {
    EXPECT_EQ(p.label(name), word) << name;
    EXPECT_FALSE(p.label(name + "~").has_value()) << name;
  }
  EXPECT_FALSE(p.label("L").has_value());
  EXPECT_FALSE(p.label("").has_value());
  // Ties go to the first name alphabetically.
  std::map<std::uint32_t, std::string> first_at;
  for (const auto& [name, word] : want) first_at.try_emplace(word, name);
  for (std::uint32_t w = 0; w < 134; ++w) {
    EXPECT_EQ(p.label_at(w), first_at.at(w)) << "word " << w;
  }
  EXPECT_FALSE(p.label_at(134).has_value());
}

TEST(Program, DuplicateLabelNamedInTheError) {
  const std::string long_name = "a_label_name_past_the_small_string_buffer";
  try {
    (void)halts_labelled(
        2, {{"x", 0}, {long_name, 0}, {"short", 1}, {long_name, 1}});
    FAIL() << "a duplicate label must be refused";
  } catch (const apcc::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate label " + long_name),
              std::string::npos)
        << e.what();
  }
  try {
    (void)halts_labelled(2, {{"b", 0}, {"a", 1}, {"b", 1}});
    FAIL() << "a duplicate label must be refused";
  } catch (const apcc::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate label b"),
              std::string::npos)
        << e.what();
  }
}

TEST(Program, ByteRangeExtraction) {
  const Program p = sample();
  const auto all = p.bytes();
  EXPECT_EQ(all.size(), 20u);
  const auto middle = p.bytes(1, 2);
  EXPECT_EQ(middle.size(), 8u);
  // The slice must match the corresponding whole-image bytes.
  for (std::size_t i = 0; i < middle.size(); ++i) {
    EXPECT_EQ(middle[i], all[4 + i]);
  }
  EXPECT_THROW((void)p.bytes(4, 2), apcc::CheckError);
}

TEST(Program, LittleEndianByteOrder) {
  const Program p = sample();
  const auto bytes = p.bytes(0, 1);
  const std::uint32_t w = p.word(0);
  EXPECT_EQ(bytes[0], w & 0xffu);
  EXPECT_EQ(bytes[1], (w >> 8) & 0xffu);
  EXPECT_EQ(bytes[2], (w >> 16) & 0xffu);
  EXPECT_EQ(bytes[3], (w >> 24) & 0xffu);
}

TEST(Program, FunctionEndWord) {
  const Program p = sample();
  const auto& helper = p.functions().front();
  EXPECT_EQ(helper.end_word(), helper.first_word + helper.word_count);
}

TEST(Program, ConstructionValidatesExtents) {
  std::vector<FunctionInfo> bad_functions = {{"f", 0, 10}};
  EXPECT_THROW(
      Program({encode(Instruction{Opcode::kHalt, 0, 0, 0, 0})},
              std::move(bad_functions), {}, 0),
      apcc::CheckError);
}

}  // namespace
}  // namespace apcc::isa
