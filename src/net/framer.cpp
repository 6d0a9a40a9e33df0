#include "net/framer.hpp"

#include "support/strings.hpp"

namespace apcc::net {

using serving::wire::RawRecord;
using serving::wire::WireError;

void RecordFramer::feed(std::string_view bytes) {
  // An open record's lines stay buffered: they become its text, copied
  // once, when its 'end' arrives. Outside a record record_start_ is
  // unused, so it is 0 afterwards either way.
  const std::size_t consumed = record_first_line_ != 0 ? record_start_ : pos_;
  buffer_.erase(0, consumed);
  pos_ -= consumed;
  record_start_ = 0;
  buffer_.append(bytes.data(), bytes.size());
}

std::optional<RawRecord> RecordFramer::next() {
  const std::string_view buffer(buffer_);
  for (std::size_t nl = buffer.find('\n', pos_); nl != std::string_view::npos;
       nl = buffer.find('\n', pos_)) {
    const std::size_t start = pos_;
    pos_ = nl + 1;
    ++line_;
    const std::string_view content = trim(buffer.substr(start, nl - start));
    if (record_first_line_ == 0) {
      // Between records: skip separators, demand a known header.
      if (content.empty() || content[0] == '#') continue;
      if (!starts_with(content, "apcc.job") &&
          !starts_with(content, "apcc.result")) {
        throw WireError(
            "expected an 'apcc.job' or 'apcc.result' record header", line_,
            std::string(content));
      }
      record_start_ = start;
      record_first_line_ = line_;
      record_is_result_ = starts_with(content, "apcc.result");
    }
    if (pos_ - record_start_ > options_.max_record_bytes) {
      throw WireError("record exceeds the size limit (" +
                          std::to_string(options_.max_record_bytes) +
                          " bytes)",
                      record_first_line_,
                      std::string(buffer.substr(record_start_, 64)));
    }
    if (content != "end") continue;
    RawRecord record{
        std::string(buffer.substr(record_start_, pos_ - record_start_)),
        record_first_line_, record_is_result_};
    record_first_line_ = 0;
    return record;
  }

  const std::string_view tail = buffer.substr(pos_);
  if (tail.size() > options_.max_record_bytes) {
    throw WireError("line exceeds the record size limit (" +
                        std::to_string(options_.max_record_bytes) + " bytes)",
                    line_ + 1, std::string(tail.substr(0, 64)));
  }
  if (finished_ && !tail.empty()) {
    throw WireError("stream ends mid-line (no trailing newline)", line_ + 1,
                    std::string(tail.substr(0, 64)));
  }
  if (finished_ && record_first_line_ != 0) {
    const std::size_t header_end = buffer.find('\n', record_start_);
    throw WireError("unterminated record (missing 'end')", record_first_line_,
                    std::string(trim(buffer.substr(
                        record_start_, header_end - record_start_))));
  }
  return std::nullopt;
}

void RecordFramer::finish() {
  // Only mark: complete lines may still sit in the buffer, so the
  // truncation checks belong in next(), which drains them first --
  // finish() then next()-until-nullopt is correct in any feed order.
  finished_ = true;
}

}  // namespace apcc::net
