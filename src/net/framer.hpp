// RecordFramer: the one framing stage between raw bytes and the wire
// codec. Sockets, the stdin/stdout session and job files all cut their
// records here.
//
// Bytes arrive in chunks at arbitrary boundaries: feed() buffers
// whatever read() produced, and next() cuts one *complete* record's
// text, header line through its "end" line. The framing rules: blank
// and '#'-comment lines between records are skipped, a record opens
// with an apcc.job/apcc.result header, and every line -- the last one
// included -- ends in '\n'. The chunked-input differential in tests
// pins that any split of a stream into feed() chunks yields the same
// records as the whole stream fed at once.
//
// Absolute line numbers are tracked across the stream's lifetime, so a
// WireError from record 400 points at the 400th record's real line,
// not line 1 of its slice.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "serving/wire.hpp"

namespace apcc::net {

/// Framing limits. A record larger than max_record_bytes (or a single
/// line longer than the same bound) is a protocol error -- the one
/// DoS-shaped guard a length-tolerant text protocol needs.
struct FramerOptions {
  std::size_t max_record_bytes = 1 << 20;
};

class RecordFramer {
 public:
  explicit RecordFramer(FramerOptions options = {}) : options_(options) {}

  /// Append raw bytes (any chunking, including one byte at a time).
  void feed(std::string_view bytes);

  /// The next complete record, or nullopt until more bytes arrive.
  /// Throws serving::wire::WireError (absolute line numbers) on
  /// framing errors: garbage between records, an oversized record, or
  /// -- after finish() -- a truncated one.
  [[nodiscard]] std::optional<serving::wire::RawRecord> next();

  /// No more bytes will ever arrive (the peer half-closed, or the file
  /// is all fed). Marks the stream; keep calling next() -- it drains
  /// any still-buffered complete records, then throws WireError if the
  /// stream ended mid-line ("stream ends mid-line") or mid-record
  /// ("unterminated record", snippet: the record's header line). A
  /// clean end-of-stream -- between records, last line terminated --
  /// just yields nullopt.
  void finish();

  /// 1-based number of the last line consumed (diagnostics).
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  FramerOptions options_;
  /// Bytes fed and not yet dropped. Lines are consumed by offset and
  /// the consumed prefix is dropped once per feed(), never per line.
  std::string buffer_;
  std::size_t pos_ = 0;           // start of the first unconsumed line
  std::size_t record_start_ = 0;  // the open record's header offset
  std::size_t record_first_line_ = 0;  // 0 = not inside a record
  bool record_is_result_ = false;
  std::size_t line_ = 0;
  bool finished_ = false;
};

}  // namespace apcc::net
