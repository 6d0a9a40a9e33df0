#include "support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "support/assert.hpp"

namespace apcc {

std::vector<std::string_view> split_fields(std::string_view s,
                                           std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t end = s.find_first_of(delims, start);
    const std::size_t stop = (end == std::string_view::npos) ? s.size() : end;
    if (stop > start) {
      out.push_back(s.substr(start, stop - start));
    }
    start = stop + 1;
  }
  return out;
}

namespace {

/// Whitespace as std::isspace sees it in the "C" locale, tested without
/// a locale lookup per character.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::int64_t parse_int(std::string_view s) {
  s = trim(s);
  APCC_CHECK(!s.empty(), "cannot parse empty integer");
  bool negative = false;
  if (s.front() == '-' || s.front() == '+') {
    negative = s.front() == '-';
    s.remove_prefix(1);
    APCC_CHECK(!s.empty(), "sign with no digits");
  }
  int base = 10;
  if (starts_with(s, "0x") || starts_with(s, "0X")) {
    base = 16;
    s.remove_prefix(2);
    APCC_CHECK(!s.empty(), "0x with no digits");
  }
  std::int64_t value = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, base);
  APCC_CHECK(ec == std::errc{} && ptr == last,
             "malformed integer literal: '" + std::string(s) + "'");
  return negative ? -value : value;
}

std::string human_bytes(std::uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  if (unit == 0) {
    os << bytes << " B";
  } else {
    os.precision(1);
    os << std::fixed << value << ' ' << kUnits[unit];
  }
  return os.str();
}

std::string percent(double fraction, int decimals) {
  std::ostringstream os;
  os.precision(decimals);
  os << std::fixed << fraction * 100.0 << '%';
  return os.str();
}

}  // namespace apcc
