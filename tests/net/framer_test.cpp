// RecordFramer differentials: a wire stream fed to the framer in
// chunks of ANY size -- one byte at a time, odd sizes, whole-stream --
// must yield exactly the records the whole-string reference split
// (tests/common/record_split.hpp) cuts from the same bytes (same text,
// same absolute first_line, same header kind). Plus the framing error
// surface: garbage between records, oversized lines/records, and
// streams truncated mid-line or mid-record at finish().
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/record_split.hpp"
#include "net/framer.hpp"
#include "serving/wire.hpp"

namespace apcc::net {
namespace {

using serving::wire::RawRecord;
using serving::wire::WireError;

/// A small but representative stream: records separated by blank and
/// comment lines, both header kinds, comments *inside* a record.
std::string sample_stream() {
  std::string text;
  text += "# leading comment\n\n";
  text += serving::wire::kJobHeader + "\n";
  text += "kind run\n";
  text += "workload w-one\n";
  text += "end\n";
  text += "\n\n# separator\n";
  text += serving::wire::kResultHeader + "\n";
  text += "job 1\n";
  text += "status ok\n";
  text += "# a comment inside the record\n";
  text += "kind run\n";
  text += "end\n";
  text += serving::wire::kJobHeader + "\n";
  text += "kind sweep\n";
  text += "workload w-two\n";
  text += "task label=a strategy=on-demand kc=1 kd=1\n";
  text += "end\n";
  return text;
}

/// Framer under test: feed `text` in `chunk`-sized pieces, draining
/// next() after every feed (records may complete mid-stream).
std::vector<RawRecord> read_chunked(const std::string& text,
                                    std::size_t chunk) {
  RecordFramer framer;
  std::vector<RawRecord> records;
  for (std::size_t i = 0; i < text.size(); i += chunk) {
    framer.feed(std::string_view(text).substr(i, chunk));
    while (auto record = framer.next()) records.push_back(*record);
  }
  framer.finish();
  while (auto record = framer.next()) records.push_back(*record);
  return records;
}

void expect_same(const std::vector<RawRecord>& want,
                 const std::vector<RawRecord>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(got[i].text, want[i].text);
    EXPECT_EQ(got[i].first_line, want[i].first_line);
    EXPECT_EQ(got[i].is_result, want[i].is_result);
  }
}

TEST(RecordFramer, AnyChunkingMatchesWholeStreamRecordReader) {
  const std::string text = sample_stream();
  const auto want = testref::split_records(text);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_FALSE(want[0].is_result);
  EXPECT_TRUE(want[1].is_result);
  // 1 hits every byte boundary; the larger sizes hit misaligned line
  // splits; text.size() is the single-feed degenerate case.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{7},
                                  std::size_t{64}, text.size()}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    expect_same(want, read_chunked(text, chunk));
  }
}

TEST(RecordFramer, RecordsBecomeAvailableAsSoonAsTheirEndArrives) {
  // Streaming, not batching: after feeding exactly one record's bytes
  // the framer must hand it over -- it may not wait for more input.
  const std::string first =
      serving::wire::kJobHeader + "\nkind run\nworkload w\nend\n";
  RecordFramer framer;
  framer.feed(first);
  const auto record = framer.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(record->is_result);
  EXPECT_EQ(record->first_line, 1u);
  EXPECT_FALSE(framer.next().has_value());  // and then waits for more
}

TEST(RecordFramer, GarbageBetweenRecordsThrowsWithAbsoluteLine) {
  RecordFramer framer;
  framer.feed(serving::wire::kJobHeader + "\nkind run\nworkload w\nend\n");
  ASSERT_TRUE(framer.next().has_value());
  framer.feed("# fine\nnot a header\n");
  try {
    (void)framer.next();
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.line(), 6u);  // 4 record lines + 1 comment + the garbage
    EXPECT_EQ(e.snippet(), "not a header");
  }
}

TEST(RecordFramer, SecondRecordKeepsAbsoluteLineNumbers) {
  // The rebasing contract: a parse error in record N points at the
  // connection-absolute line, not line k of the record's own slice.
  RecordFramer framer;
  framer.feed(serving::wire::kJobHeader + "\nkind run\nworkload w\nend\n");
  ASSERT_TRUE(framer.next().has_value());
  framer.feed("\n" + serving::wire::kJobHeader + "\nkind run\nend\n");
  const auto second = framer.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->first_line, 6u);  // blank line 5, header line 6
  try {
    (void)serving::wire::parse_job(second->text, second->first_line);
    FAIL() << "expected WireError (kind run needs a workload)";
  } catch (const WireError& e) {
    EXPECT_GE(e.line(), 6u);
  }
}

TEST(RecordFramer, TruncatedRecordThrowsAtFinish) {
  RecordFramer framer;
  framer.feed(serving::wire::kJobHeader + "\nkind run\n");
  EXPECT_FALSE(framer.next().has_value());
  framer.finish();
  EXPECT_THROW((void)framer.next(), WireError);
}

TEST(RecordFramer, UnterminatedLastLineThrowsAtFinish) {
  RecordFramer framer;
  framer.feed("# a comment with no trailing newline");
  EXPECT_FALSE(framer.next().has_value());
  framer.finish();
  EXPECT_THROW((void)framer.next(), WireError);

  // A record whose 'end' lacks its newline ends mid-line, at that
  // line: the tail is reported before the record it leaves open.
  RecordFramer open_record;
  open_record.feed(serving::wire::kJobHeader + "\nkind run\nend");
  open_record.finish();
  try {
    (void)open_record.next();
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_STREQ(e.what(), "stream ends mid-line (no trailing newline)");
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.snippet(), "end");
  }
}

TEST(RecordFramer, CleanEofYieldsNulloptForever) {
  RecordFramer framer;
  framer.feed(serving::wire::kJobHeader + "\nkind run\nworkload w\nend\n");
  framer.feed("# trailing comment\n\n");
  ASSERT_TRUE(framer.next().has_value());
  framer.finish();
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_FALSE(framer.next().has_value());
}

TEST(RecordFramer, FinishBeforeDrainingStillYieldsBufferedRecords) {
  // finish() marks the stream; complete records already buffered must
  // still come out before the (clean, here) EOF.
  RecordFramer framer;
  framer.feed(serving::wire::kJobHeader + "\nkind run\nworkload w\nend\n");
  framer.finish();
  EXPECT_TRUE(framer.next().has_value());
  EXPECT_FALSE(framer.next().has_value());
}

TEST(RecordFramer, OversizedRecordThrows) {
  FramerOptions options;
  options.max_record_bytes = 64;
  RecordFramer framer(options);
  framer.feed(serving::wire::kJobHeader + "\n");
  std::string filler = "# ";
  filler.append(80, 'x');
  framer.feed(filler + "\n");
  EXPECT_THROW((void)framer.next(), WireError);
}

TEST(RecordFramer, OversizedUnterminatedLineThrowsWithoutNewline) {
  // A peer streaming an endless line must be cut off at the bound, not
  // buffered forever waiting for '\n'.
  FramerOptions options;
  options.max_record_bytes = 64;
  RecordFramer framer(options);
  framer.feed(std::string(80, 'x'));  // no newline anywhere
  EXPECT_THROW((void)framer.next(), WireError);
}

}  // namespace
}  // namespace apcc::net
