// RecordReader's line-by-line record split, the reference the framer
// differentials compare against: a whole-string pass over the wire
// stream rules. It shares no code with net::RecordFramer (no buffer, no
// offsets carried across feeds), so a chunking or compaction bug in the
// framer cannot pass on both sides.
//
// The rules: blank and '#'-comment lines between records are skipped, a
// record opens with an apcc.job/apcc.result header and closes with an
// "end" line, and every line -- the last one included -- ends in '\n'.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "serving/wire.hpp"
#include "support/strings.hpp"

namespace apcc::testref {

/// Appends every record of `text` to `records`, with absolute first
/// lines, in order. Then throws serving::wire::WireError at the first
/// framing error, positioned like the framer's: garbage between records
/// at its line, an unterminated last line at its line, a record missing
/// its "end" at its header line (snippet: the header). Records before
/// the error stay appended, as the framer yields them before it throws.
inline void split_records(std::string_view text,
                          std::vector<serving::wire::RawRecord>& records) {
  using serving::wire::WireError;
  // Cut every line up front; an unterminated tail is not a line.
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(text.substr(start, nl - start));
  }
  const bool unterminated = start < text.size();

  std::size_t i = 0;
  while (i < lines.size()) {
    const std::string_view header = trim(lines[i]);
    ++i;
    if (header.empty() || header[0] == '#') continue;
    if (!starts_with(header, "apcc.job") &&
        !starts_with(header, "apcc.result")) {
      throw WireError(
          "expected an 'apcc.job' or 'apcc.result' record header", i,
          std::string(header));
    }
    serving::wire::RawRecord record;
    record.first_line = i;
    record.is_result = starts_with(header, "apcc.result");
    record.text = std::string(lines[i - 1]) + '\n';
    bool ended = false;
    while (!ended && i < lines.size()) {
      record.text += std::string(lines[i]) + '\n';
      ended = trim(lines[i]) == "end";
      ++i;
    }
    if (!ended) {
      if (unterminated) break;  // the tail's error comes first
      throw WireError("unterminated record (missing 'end')",
                      record.first_line, std::string(header));
    }
    records.push_back(std::move(record));
  }
  if (unterminated) {
    throw WireError("stream ends mid-line (no trailing newline)",
                    lines.size() + 1,
                    std::string(text.substr(start, 64)));
  }
}

/// The records of a stream that must split cleanly.
inline std::vector<serving::wire::RawRecord> split_records(
    std::string_view text) {
  std::vector<serving::wire::RawRecord> records;
  split_records(text, records);
  return records;
}

}  // namespace apcc::testref
