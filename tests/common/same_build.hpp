// One comparison of a workload build against the test-side references
// (assembler_reference.hpp, cfg_builder_reference.hpp), shared by the
// assembler and CFG differentials and the assembler fuzz loop: the same
// Program or the same error text from isa::assemble, and the same CFG
// and word -> block map or the same error text from cfg::build_cfg.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <string_view>

#include "cfg/builder.hpp"
#include "common/assembler_reference.hpp"
#include "common/cfg_builder_reference.hpp"
#include "isa/assembler.hpp"

namespace apcc::testref {

/// `what` without its APCC_CHECK expression and location, which name
/// the checking code rather than the input.
inline std::string without_check_site(const std::string& what) {
  static const std::regex site(
      R"(APCC_CHECK failed: \(.*\) at \S+:\d+ -- )");
  return std::regex_replace(what, site, "");
}

/// What one side made of an input: a value, or its error text.
template <typename T>
struct Built {
  std::optional<T> value;
  std::string error;
};

template <typename T, typename F, typename Arg>
Built<T> build_or_error(F&& f, const Arg& arg) {
  try {
    return {f(arg), ""};
  } catch (const CheckError& e) {
    return {std::nullopt, without_check_site(e.what())};
  }
}

/// Every name `source` could define as a label: each ':'-separated
/// piece, trimmed, of a line with a ':' (a label's name), and each field
/// split on " \t," of a line with a '.' (a `.func` name). A superset of
/// the labels of any program assembled from `source`.
inline std::set<std::string, std::less<>> label_candidates(
    std::string_view source) {
  std::set<std::string, std::less<>> out;
  const auto add_split = [&out](std::string_view text,
                                std::string_view delims, bool trimmed) {
    std::size_t start = 0;
    while (start <= text.size()) {
      const std::size_t end = text.find_first_of(delims, start);
      const std::size_t stop = end == std::string_view::npos ? text.size()
                                                             : end;
      std::string_view piece = text.substr(start, stop - start);
      if (trimmed) piece = trim(piece);
      if (!piece.empty() && !out.contains(piece)) out.emplace(piece);
      start = stop + 1;
    }
  };
  std::size_t cursor = 0;
  while (cursor <= source.size()) {
    const std::size_t eol = source.find('\n', cursor);
    const std::size_t stop = eol == std::string_view::npos ? source.size()
                                                           : eol;
    std::string_view line = source.substr(cursor, stop - cursor);
    line = line.substr(0, line.find_first_of(";#"));
    if (line.find(':') != std::string_view::npos) add_split(line, ":", true);
    if (line.find('.') != std::string_view::npos) {
      add_split(line, " \t,", false);
    }
    cursor = stop + 1;
  }
  return out;
}

/// The same words, functions, entry and labels: `label()` of every name
/// `source` could define and `label_at()` of every word and one past.
inline void expect_same_program(const isa::Program& got,
                                const isa::Program& want,
                                std::string_view source) {
  ASSERT_EQ(got.word_count(), want.word_count());
  for (std::uint32_t w = 0; w < want.word_count(); ++w) {
    ASSERT_EQ(got.word(w), want.word(w)) << "word " << w;
  }
  EXPECT_EQ(got.entry_word(), want.entry_word());
  ASSERT_EQ(got.functions().size(), want.functions().size());
  for (std::size_t f = 0; f < want.functions().size(); ++f) {
    EXPECT_EQ(got.functions()[f].name, want.functions()[f].name) << f;
    EXPECT_EQ(got.functions()[f].first_word, want.functions()[f].first_word)
        << f;
    EXPECT_EQ(got.functions()[f].word_count, want.functions()[f].word_count)
        << f;
  }
  ASSERT_EQ(got.label_count(), want.label_count());
  for (const std::string& name : label_candidates(source)) {
    ASSERT_EQ(got.label(name), want.label(name)) << "label " << name;
  }
  for (std::uint32_t w = 0; w <= want.word_count(); ++w) {
    ASSERT_EQ(got.label_at(w), want.label_at(w)) << "label_at " << w;
  }
}

/// The same blocks, notes, flags and entry, each edge's (from, to, kind,
/// probability) in id order, and the same word -> block map.
inline void expect_same_cfg(const cfg::BuildResult& got,
                            const cfg::BuildResult& want) {
  const cfg::Cfg& g = got.cfg;
  const cfg::Cfg& r = want.cfg;
  ASSERT_EQ(g.block_count(), r.block_count());
  EXPECT_EQ(g.entry(), r.entry());
  for (cfg::BlockId b = 0; b < r.block_count(); ++b) {
    const cfg::BasicBlock& x = g.block(b);
    const cfg::BasicBlock& y = r.block(b);
    ASSERT_EQ(x.id, y.id);
    ASSERT_EQ(x.first_word, y.first_word) << "block " << b;
    ASSERT_EQ(x.word_count, y.word_count) << "block " << b;
    ASSERT_EQ(x.has_indirect_successors, y.has_indirect_successors)
        << "block " << b;
    ASSERT_EQ(x.is_exit, y.is_exit) << "block " << b;
    ASSERT_EQ(g.note(b), r.note(b)) << "block " << b;
  }
  ASSERT_EQ(g.edge_count(), r.edge_count());
  for (cfg::EdgeId e = 0; e < r.edge_count(); ++e) {
    ASSERT_EQ(g.edge(e).from, r.edge(e).from) << "edge " << e;
    ASSERT_EQ(g.edge(e).to, r.edge(e).to) << "edge " << e;
    ASSERT_EQ(g.edge_kind(e), r.edge_kind(e)) << "edge " << e;
    ASSERT_EQ(g.edge(e).probability, r.edge(e).probability) << "edge " << e;
  }
  ASSERT_EQ(got.word_to_block, want.word_to_block);
}

/// isa::assemble and the reference agree on `source`: the same Program
/// or the same error. Returns the program when both assembled it.
inline std::optional<isa::Program> expect_same_assembly(
    std::string_view source) {
  const auto got = build_or_error<isa::Program>(isa::assemble, source);
  const auto want =
      build_or_error<isa::Program>(reference_assemble, source);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.value.has_value(), want.value.has_value());
  if (!got.value || !want.value) return std::nullopt;
  expect_same_program(*got.value, *want.value, source);
  return got.value;
}

/// cfg::build_cfg and the reference agree on `program`: the same CFG and
/// map or the same error.
inline void expect_same_cfg_build(const isa::Program& program) {
  const auto got = build_or_error<cfg::BuildResult>(cfg::build_cfg, program);
  const auto want =
      build_or_error<cfg::BuildResult>(reference_build_cfg, program);
  EXPECT_EQ(got.error, want.error);
  ASSERT_EQ(got.value.has_value(), want.value.has_value());
  if (got.value) expect_same_cfg(*got.value, *want.value);
}

}  // namespace apcc::testref
