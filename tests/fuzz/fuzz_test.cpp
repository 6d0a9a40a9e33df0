// Seeded, bounded mutation fuzzing of every input that crosses a trust
// boundary: wire records, socket framing, compressed streams and
// assembler text. Each loop has a fixed seed and a fixed iteration
// count, so a run is deterministic and a failure names its mutant.
//
// The contract every input must meet: it throws CheckError (WireError
// for wire records) or it is accepted -- and an accepted wire record
// must parse to a serialize/parse fixed point, while assembler text
// must assemble, or fail, exactly as the test-side reference assembler
// does (tests/common/assembler_reference.hpp), and build the reference
// builder's CFG. Anything else (another exception type, a crash, a
// sanitizer report under the ASan+UBSan CI job) fails. The loops are a
// net against regressions; they are not expected to find anything on a
// healthy tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/record_split.hpp"
#include "common/same_build.hpp"
#include "compress/codec.hpp"
#include "isa/assembler.hpp"
#include "net/framer.hpp"
#include "serving/wire.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

#ifndef APCC_WIRE_DATA_DIR
#define APCC_WIRE_DATA_DIR "."
#endif

namespace apcc {
namespace {

using serving::wire::RawRecord;
using serving::wire::WireError;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

/// Drop one field (a run of characters other than space, tab and comma)
/// of `line`, or replace it with one to three of those delimiters.
void mutate_field(std::string& line, Rng& rng) {
  const auto is_delimiter = [](char c) {
    return c == ' ' || c == '\t' || c == ',';
  };
  std::vector<std::pair<std::size_t, std::size_t>> fields;  // (at, size)
  for (std::size_t i = 0; i < line.size();) {
    if (is_delimiter(line[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < line.size() && !is_delimiter(line[end])) ++end;
    fields.emplace_back(i, end - i);
    i = end;
  }
  if (fields.empty()) return;
  const auto [at, size] = fields[rng.next_below(fields.size())];
  std::string with;
  if (rng.next_bool(0.5)) {
    for (std::uint64_t n = 1 + rng.next_below(3); n-- > 0;) {
      with += " \t,"[rng.next_below(3)];
    }
  }
  line.replace(at, size, with);
}

/// One random edit of `text`: a byte flip, a truncation, a dropped,
/// duplicated or swapped line, a dropped field or one replaced with
/// delimiters, or -- when `keys` is non-empty -- an inserted line from
/// `keys`.
std::string mutate(const std::string& text, Rng& rng,
                   const std::vector<std::string>& keys = {}) {
  std::vector<std::string> lines = split_lines(text);
  switch (rng.next_below(keys.empty() ? 6 : 7)) {
    case 0: {
      std::string out = text;
      if (out.empty()) return out;
      const std::size_t at = rng.next_below(out.size());
      out[at] = rng.next_bool(0.5)
                    ? static_cast<char>(out[at] ^ (1 << rng.next_below(8)))
                    : static_cast<char>(0x20 + rng.next_below(0x5f));
      return out;
    }
    case 1:
      return text.substr(0, rng.next_below(text.size() + 1));
    case 2:
      if (!lines.empty()) {
        lines.erase(lines.begin() + rng.next_below(lines.size()));
      }
      return join_lines(lines);
    case 3:
      if (!lines.empty()) {
        const std::size_t at = rng.next_below(lines.size());
        lines.insert(lines.begin() + at, lines[at]);
      }
      return join_lines(lines);
    case 4:
      if (lines.size() >= 2) {
        std::swap(lines[rng.next_below(lines.size())],
                  lines[rng.next_below(lines.size())]);
      }
      return join_lines(lines);
    case 5:
      if (!lines.empty()) {
        mutate_field(lines[rng.next_below(lines.size())], rng);
      }
      return join_lines(lines);
    default:
      lines.insert(lines.begin() + rng.next_below(lines.size() + 1),
                   keys[rng.next_below(keys.size())]);
      return join_lines(lines);
  }
}

/// The golden wire records of tests/serving/data.
std::vector<RawRecord> golden_records() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(APCC_WIRE_DATA_DIR)) {
    if (entry.path().extension() == ".wire") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<RawRecord> records;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    testref::split_records(text.str(), records);
  }
  return records;
}

/// serialize(parse(text)) is a fixed point, or parsing throws
/// CheckError. Returns whether the text was accepted.
bool accepted_at_fixed_point(const std::string& text, bool is_result) {
  try {
    if (is_result) {
      const std::string once =
          serving::wire::serialize_result(serving::wire::parse_result(text));
      EXPECT_EQ(serving::wire::serialize_result(
                    serving::wire::parse_result(once)),
                once)
          << "accepted mutant:\n" << text;
    } else {
      const std::string once =
          serving::wire::serialize_job(serving::wire::parse_job(text));
      EXPECT_EQ(serving::wire::serialize_job(serving::wire::parse_job(once)),
                once)
          << "accepted mutant:\n" << text;
    }
    return true;
  } catch (const CheckError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected " << e.what() << " on mutant:\n" << text;
    return false;
  }
}

TEST(Fuzz, WireRecordMutantsAreRejectedOrFixedPoints) {
  const std::vector<RawRecord> records = golden_records();
  ASSERT_GE(records.size(), 10u);
  // Every removed key -- v5's two engine debug keys at record level and
  // as task kvs, v7's geometry-sharing key and verify task kv: a client
  // may still send them, and the wire must refuse every one.
  const std::vector<std::string> removed_keys = {
      "reference-scans 1", "reference-frontiers 1",
      "task label=x reference-scans=1",
      "task label=x reference-frontiers=0",
      "share-frontiers 1", "task label=x paranoid=1"};
  Rng rng(20261017);
  std::size_t accepted = 0;
  for (int i = 0; i < 6000; ++i) {
    const RawRecord& golden = records[rng.next_below(records.size())];
    std::string text = golden.text;
    for (std::uint64_t n = 1 + rng.next_below(3); n-- > 0;) {
      text = mutate(text, rng, removed_keys);
    }
    if (accepted_at_fixed_point(text, golden.is_result)) ++accepted;
    if (::testing::Test::HasFailure()) FAIL() << "iteration " << i;
  }
  // Some mutants (a flipped digit, a duplicated task line) stay valid;
  // a loop that accepts nothing is not exercising the accept path.
  EXPECT_GT(accepted, 0u);

  for (const RawRecord& golden : records) {
    if (golden.is_result) continue;
    for (const std::string& key : removed_keys) {
      std::vector<std::string> lines = split_lines(golden.text);
      lines.insert(lines.end() - 1, key);
      EXPECT_THROW((void)serving::wire::parse_job(join_lines(lines)),
                   WireError)
          << key;
    }
  }
}

/// Everything one splitter yields: the records, then the error it threw
/// ("" when none), prefixed by its line.
struct Framed {
  std::vector<RawRecord> records;
  std::string error;
};

std::string positioned(const WireError& e) {
  return std::to_string(e.line()) + ": " + e.what();
}

Framed read_whole(const std::string& text) {
  Framed out;
  try {
    testref::split_records(text, out.records);
  } catch (const WireError& e) {
    out.error = positioned(e);
  }
  return out;
}

Framed read_chunked(const std::string& text, Rng& rng) {
  Framed out;
  net::RecordFramer framer;
  try {
    for (std::size_t i = 0; i < text.size();) {
      const std::size_t chunk = 1 + rng.next_below(64);
      framer.feed(std::string_view(text).substr(i, chunk));
      i += chunk;
      while (auto record = framer.next()) out.records.push_back(*record);
    }
    framer.finish();
    while (auto record = framer.next()) out.records.push_back(*record);
  } catch (const WireError& e) {
    out.error = positioned(e);
  }
  return out;
}

TEST(Fuzz, FramerUnderRandomChunkingMatchesRecordReader) {
  const std::vector<RawRecord> records = golden_records();
  Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    // A stream of a few golden records with separators, then a few
    // edits anywhere in it (framing damage included).
    std::string stream;
    for (std::uint64_t n = 1 + rng.next_below(4); n-- > 0;) {
      if (rng.next_bool(0.5)) stream += rng.next_bool(0.5) ? "\n" : "# sep\n";
      stream += records[rng.next_below(records.size())].text;
    }
    for (std::uint64_t n = rng.next_below(3); n-- > 0;) {
      stream = mutate(stream, rng);
    }
    const Framed want = read_whole(stream);
    const Framed got = read_chunked(stream, rng);
    ASSERT_EQ(got.error, want.error) << "iteration " << i << ":\n" << stream;
    ASSERT_EQ(got.records.size(), want.records.size())
        << "iteration " << i << ":\n" << stream;
    for (std::size_t r = 0; r < want.records.size(); ++r) {
      ASSERT_EQ(got.records[r].text, want.records[r].text) << "iteration " << i;
      ASSERT_EQ(got.records[r].first_line, want.records[r].first_line)
          << "iteration " << i;
      ASSERT_EQ(got.records[r].is_result, want.records[r].is_result)
          << "iteration " << i;
    }
  }
}

TEST(Fuzz, EveryCodecSurvivesCorruptedStreams) {
  compress::BlockBytes blocks;
  for (const auto kind : workloads::all_workload_kinds()) {
    const workloads::Workload w = workloads::make_workload(kind);
    for (const compress::ByteView b : w.block_bytes) {
      if (!b.empty()) blocks.push_back(b);
    }
  }
  Rng rng(11);
  for (const auto kind : compress::all_codec_kinds()) {
    SCOPED_TRACE(compress::codec_kind_name(kind));
    const auto codec = compress::make_codec(kind, blocks);
    for (int i = 0; i < 400; ++i) {
      const compress::ByteView original = blocks[rng.next_below(blocks.size())];
      compress::Bytes stream = codec->compress(original);
      switch (rng.next_below(4)) {
        case 0:  // flip bits
          for (std::uint64_t n = 1 + rng.next_below(4);
               n-- > 0 && !stream.empty();) {
            stream[rng.next_below(stream.size())] ^=
                static_cast<std::uint8_t>(1 << rng.next_below(8));
          }
          break;
        case 1:  // truncate
          stream.resize(rng.next_below(stream.size() + 1));
          break;
        case 2:  // extend with noise
          for (std::uint64_t n = 1 + rng.next_below(16); n-- > 0;) {
            stream.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
          }
          break;
        default:  // replace with noise of the same length
          for (auto& byte : stream) {
            byte = static_cast<std::uint8_t>(rng.next_below(256));
          }
          break;
      }
      // Ask for the true size or a nearby wrong one.
      const std::size_t size =
          rng.next_bool(0.75) ? original.size()
                              : static_cast<std::size_t>(rng.next_below(
                                    original.size() * 2 + 8));
      try {
        const compress::Bytes out = codec->decompress(stream, size);
        ASSERT_EQ(out.size(), size) << "iteration " << i;
      } catch (const CheckError&) {
      } catch (const std::exception& e) {
        FAIL() << "iteration " << i << ": unexpected " << e.what();
      }
    }
  }
}

TEST(Fuzz, AssemblerMutantsAssembleOrThrowCheckError) {
  // Each mutant must also assemble as the reference assembler does (the
  // same Program or the same error text), and a mutant that assembles
  // must give the reference CFG builder's graph.
  Rng rng(3);
  std::size_t assembled = 0;
  for (const auto kind : workloads::all_workload_kinds()) {
    const std::string source = workloads::workload_source(kind);
    SCOPED_TRACE(static_cast<int>(kind));
    for (int i = 0; i < 120; ++i) {
      std::string text = source;
      for (std::uint64_t n = 1 + rng.next_below(3); n-- > 0;) {
        text = mutate(text, rng);
      }
      try {
        const auto program = testref::expect_same_assembly(text);
        if (program && program->word_count() > 0) {
          ++assembled;
          testref::expect_same_cfg_build(*program);
        }
      } catch (const std::exception& e) {
        FAIL() << "iteration " << i << ": unexpected " << e.what()
               << " on mutant:\n"
               << text;
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "iteration " << i << " on mutant:\n" << text;
      }
    }
  }
  // Many mutants (a dropped comment, a swapped ALU line) stay valid; a
  // loop that assembles nothing is not exercising the accept path.
  EXPECT_GT(assembled, 0u);
}

}  // namespace
}  // namespace apcc
