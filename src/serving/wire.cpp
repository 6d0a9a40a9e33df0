#include "serving/wire.hpp"

#include <charconv>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "support/strings.hpp"

namespace apcc::serving::wire {
namespace {

// ------------------------------------------------------- primitives

/// One record line, where a WireError points.
struct Line {
  std::string_view text;   // trimmed content
  std::size_t number = 0;  // absolute 1-based line
};

[[noreturn]] void fail(const std::string& message, const Line& at) {
  throw WireError(message, at.number, std::string(at.text));
}

/// Canonical unsigned formatting (plain decimal).
std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

std::uint64_t parse_u64(std::string_view s, const char* what,
                        const Line& at) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size() || s.empty()) {
    fail(std::string("malformed ") + what + " '" + std::string(s) + "'", at);
  }
  return v;
}

double parse_double(std::string_view s, const char* what, const Line& at) {
  double v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size() || s.empty()) {
    fail(std::string("malformed ") + what + " '" + std::string(s) + "'", at);
  }
  return v;
}

bool parse_bool01(std::string_view s, const char* what, const Line& at) {
  if (s == "0") return false;
  if (s == "1") return true;
  fail(std::string(what) + " must be 0 or 1, got '" + std::string(s) + "'",
       at);
}

/// Strict narrowing: an out-of-range value is a malformed record, not
/// a silent wrap (4294967296 must never read back as "uncapped").
template <typename T>
T parse_uint(std::string_view s, const char* what, const Line& at) {
  static_assert(std::is_unsigned_v<T>);
  const std::uint64_t v = parse_u64(s, what, at);
  if constexpr (sizeof(T) < sizeof(v)) {
    if (v > std::numeric_limits<T>::max()) {
      fail(std::string(what) + " out of range: '" + std::string(s) + "'",
           at);
    }
  }
  return static_cast<T>(v);
}

/// unescape_field with wire positioning: malformed escapes become
/// WireErrors pointing at the line instead of bare CheckErrors.
std::string unescape_at(std::string_view s, const Line& at) {
  try {
    return unescape_field(s);
  } catch (const CheckError& e) {
    fail(e.what(), at);
  }
}

/// An enum value by the name its table gives it; an unknown name lists
/// the table's names.
template <typename E, std::size_t N>
E parse_enum(const NamedValue<E> (&table)[N], std::string_view s,
             const char* what, const Line& at) {
  if (const auto value = value_of(table, s)) return *value;
  fail(std::string("unknown ") + what + " '" + std::string(s) +
           "' (expected " + joined_names(table) + ")",
       at);
}

// --------------------------------------------------------- kv lines
// A kv line is a run of key=value tokens. Each line's keys are listed
// once below as keys(f, x), which calls f(key, member of x) for every
// key in canonical order: over a const x to write the line, over a
// mutable one to read it. The member's type picks how its value is
// spelled.

/// The `budget` member: a byte count, or "unbounded" at
/// Policy::kUnbounded.
template <typename U>
struct Budget {
  U& bytes;
};
template <typename U>
Budget(U&) -> Budget<U>;

// The name table of each enum a kv line carries.
const auto& names(runtime::DecompressionStrategy) {
  return runtime::kStrategyNames;
}
const auto& names(runtime::PredictorKind) { return runtime::kPredictorNames; }
const auto& names(runtime::VictimPolicy) { return runtime::kVictimNames; }
const auto& names(memory::FitPolicy) { return memory::kFitNames; }

/// Appends `v` in its canonical spelling. Numbers are std::to_chars':
/// plain decimal counts, and for doubles the shortest representation
/// that round-trips exactly (so "1", "0.5", "1.1000000000000001"-free).
template <typename T>
void put_value(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    out += escape_field(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_enum_v<T>) {
    out += name_of(names(v), v);
  } else {
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>,
                  "a kv value is a count or a double");
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
}

void put_value(std::string& out, Budget<const std::uint64_t> budget) {
  if (budget.bytes == runtime::Policy::kUnbounded) {
    out += "unbounded";
  } else {
    put_value(out, budget.bytes);
  }
}

/// Reads `s` into `member`; an error names `key`.
template <typename T>
void parse_value(std::string_view s, const char* key, const Line& at,
                 T& member) {
  if constexpr (std::is_same_v<T, std::string>) {
    member = unescape_at(s, at);
  } else if constexpr (std::is_same_v<T, bool>) {
    member = parse_bool01(s, key, at);
  } else if constexpr (std::is_enum_v<T>) {
    member = parse_enum(names(member), s, key, at);
  } else if constexpr (std::is_floating_point_v<T>) {
    member = parse_double(s, key, at);
  } else {
    member = parse_uint<T>(s, key, at);
  }
}

void parse_value(std::string_view s, const char* key, const Line& at,
                 Budget<std::uint64_t> budget) {
  budget.bytes = s == "unbounded" ? runtime::Policy::kUnbounded
                                  : parse_u64(s, key, at);
}

/// A `policy` line: the Policy knobs.
constexpr auto policy_keys = [](auto&& f, auto& policy) {
  f("kc", policy.compress_k);
  f("strategy", policy.strategy);
  f("kd", policy.predecompress_k);
  f("predictor", policy.predictor);
  f("budget", Budget{policy.memory_budget});
  f("victim", policy.victim_policy);
  f("units", policy.decompress_units);
  f("background-compression", policy.background_compression);
  f("background-decompression", policy.background_decompression);
  f("remember-sets", policy.use_remember_sets);
  f("recompress", policy.recompress_for_real);
};

/// A `costs` line: CostModel's key table (runtime/policy.hpp).
constexpr auto costs_keys = [](auto&& f, auto& costs) {
  runtime::for_each_cost(f, costs);
};

/// A task line: the label plus the full engine knob set.
constexpr auto task_keys = [](auto&& f, auto& task) {
  f("label", task.label);
  policy_keys(f, task.config.policy);
  costs_keys(f, task.config.costs);
  f("fit", task.config.fit);
};

/// A `run` line: RunResult's field table (sim/result.hpp).
constexpr auto run_keys = [](auto&& f, auto& run) {
  sim::for_each_field(f, run);
};

/// An `outcome` line of a sweep or campaign result.
constexpr auto outcome_keys = [](auto&& f, auto& outcome) {
  f("index", outcome.index);
  f("label", outcome.label);
  run_keys(f, outcome.result);
};

/// Appends " key=value" for each of `keys`' members of `x`.
template <typename Keys, typename T>
void put_kvs(std::string& out, Keys keys, const T& x) {
  keys(
      [&out](const char* key, const auto& member) {
        out += ' ';
        out += key;
        out += '=';
        put_value(out, member);
      },
      x);
}

/// Reads a kv line's tokens into `x` through `keys`, left to right, so
/// the first bad token names the error: no '=', an unknown or repeated
/// key, or a malformed value.
template <typename Keys, typename T>
void parse_kvs(std::string_view rest, const Line& at, Keys keys, T& x) {
  std::uint64_t seen = 0;  // bit i: the line's i-th key appeared
  for (const std::string_view token : split_fields(rest, " ")) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      fail("expected key=value, got '" + std::string(token) + "'", at);
    }
    const std::string_view key = token.substr(0, eq);
    bool known = false;
    std::size_t row = 0;
    keys(
        [&](const char* name, auto&& member) {
          if (!known && key == name) {
            known = true;
            APCC_ASSERT(row < 64, "a kv line lists at most 64 keys");
            const std::uint64_t bit = std::uint64_t{1} << row;
            if ((seen & bit) != 0) {
              fail("duplicate key '" + std::string(key) + "'", at);
            }
            seen |= bit;
            parse_value(token.substr(eq + 1), name, at, member);
          }
          ++row;
        },
        x);
    if (!known) fail("unknown key '" + std::string(key) + "'", at);
  }
}

// ------------------------------------------------------ line scanner

/// Iterates a record's lines, skipping blank and '#'-comment lines and
/// tracking absolute numbers.
class LineScanner {
 public:
  LineScanner(std::string_view text, std::size_t first_line)
      : text_(text), line_(first_line) {}

  std::optional<Line> next() {
    while (pos_ < text_.size()) {
      std::size_t eol = text_.find('\n', pos_);
      if (eol == std::string_view::npos) eol = text_.size();
      const std::string_view raw = text_.substr(pos_, eol - pos_);
      const std::size_t number = line_;
      pos_ = eol + 1;
      ++line_;
      const std::string_view content = trim(raw);
      if (content.empty() || content[0] == '#') continue;
      return Line{content, number};
    }
    return std::nullopt;
  }

  /// The line just past the scanned text (for missing-end errors).
  [[nodiscard]] Line eof() const { return Line{{}, line_}; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_;
};

/// Split "key rest..." on the first space run.
std::pair<std::string_view, std::string_view> key_rest(std::string_view s) {
  const std::size_t space = s.find(' ');
  if (space == std::string_view::npos) return {s, {}};
  return {s.substr(0, space), trim(s.substr(space + 1))};
}

void check_header(const Line& header, const std::string& expected,
                  const char* record_kind) {
  if (header.text == expected) return;
  if (starts_with(header.text, "apcc.job") ||
      starts_with(header.text, "apcc.result")) {
    fail("unsupported wire record header (expected '" + expected + "' -- a " +
             record_kind + " record of wire version " +
             std::to_string(kVersion) + ")",
         header);
  }
  fail("expected '" + expected + "' record header", header);
}

/// Tracks single-occurrence record keys.
class SeenKeys {
 public:
  void mark(std::string_view key, const Line& at) {
    if (!seen_.insert(std::string(key)).second) {
      fail("duplicate '" + std::string(key) + "' line", at);
    }
  }

 private:
  std::set<std::string> seen_;
};

}  // namespace

// ---------------------------------------------------- field encoding

std::string escape_field(std::string_view s) {
  if (s.empty()) return "-";
  if (s == "-") return "%2D";
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte > 0x20 && byte < 0x7F && byte != '%') {
      out += c;
    } else {
      out += '%';
      out += hex[byte >> 4];
      out += hex[byte & 0xF];
    }
  }
  return out;
}

std::string unescape_field(std::string_view s) {
  if (s == "-") return "";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    const auto nibble = [&](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    APCC_CHECK(i + 2 < s.size() && nibble(s[i + 1]) >= 0 &&
                   nibble(s[i + 2]) >= 0,
               "malformed %-escape in wire field '" + std::string(s) + "'");
    out += static_cast<char>(nibble(s[i + 1]) * 16 + nibble(s[i + 2]));
    i += 2;
  }
  return out;
}

// --------------------------------------------------------------- jobs

std::string serialize_job(const JobSpec& spec) {
  std::string out = kJobHeader;
  out += '\n';
  out += "kind ";
  out += job_kind_name(spec.kind);
  out += '\n';
  out += "client " + escape_field(spec.client) + '\n';
  out += "priority ";
  out += sweep::priority_name(spec.priority);
  out += '\n';
  out += "max-workers " + fmt_u64(spec.max_workers) + '\n';
  out += "deadline-ms " + fmt_u64(spec.deadline_ms) + '\n';
  out += "batch-cells " + fmt_u64(spec.batch_cells) + '\n';
  for (const std::string& ref : spec.workloads) {
    out += "workload " + escape_field(ref) + '\n';
  }
  out += "codec ";
  out += compress::codec_kind_name(spec.config.codec);
  out += '\n';
  out += "fit ";
  out += name_of(memory::kFitNames, spec.config.fit);
  out += '\n';
  out += "policy";
  put_kvs(out, policy_keys, spec.config.policy);
  out += "\ncosts";
  put_kvs(out, costs_keys, spec.config.costs);
  out += '\n';
  for (const sweep::SweepTask& task : spec.tasks) {
    out += "task";
    put_kvs(out, task_keys, task);
    out += '\n';
  }
  out += "end\n";
  return out;
}

JobSpec parse_job(std::string_view text, std::size_t first_line) {
  LineScanner lines(text, first_line);
  const auto header = lines.next();
  if (!header) fail("empty record", Line{{}, first_line});
  check_header(*header, kJobHeader, "job");

  JobSpec spec;
  SeenKeys seen;
  bool saw_kind = false;
  bool saw_end = false;
  std::optional<Line> grid;
  // Task lines are parsed after the whole record is read: keys may
  // appear in any order, and every task inherits the record-level
  // policy/costs/fit as its base.
  struct RawTask {
    Line line;
    std::string_view rest;
  };
  std::vector<RawTask> raw_tasks;
  while (const auto line = lines.next()) {
    if (line->text == "end") {
      saw_end = true;
      break;
    }
    const auto [key, rest] = key_rest(line->text);
    if (key != "workload" && key != "task") seen.mark(key, *line);
    if (rest.empty()) fail("'" + std::string(key) + "' needs a value", *line);
    if (key == "kind") {
      spec.kind = parse_enum(kJobKindNames, rest, "job kind", *line);
      saw_kind = true;
    } else if (key == "client") {
      spec.client = unescape_at(rest, *line);
    } else if (key == "priority") {
      spec.priority =
          parse_enum(sweep::kPriorityNames, rest, "priority", *line);
    } else if (key == "max-workers") {
      spec.max_workers = parse_uint<unsigned>(rest, "max-workers", *line);
    } else if (key == "deadline-ms") {
      spec.deadline_ms = parse_u64(rest, "deadline-ms", *line);
    } else if (key == "batch-cells") {
      // Optional since v4; omitted means 0 (the width-1 path), which
      // keeps v3-era records meaningful under the v4 header.
      spec.batch_cells = parse_uint<std::uint32_t>(rest, "batch-cells", *line);
    } else if (key == "workload") {
      spec.workloads.push_back(unescape_at(rest, *line));
    } else if (key == "codec") {
      spec.config.codec =
          parse_enum(compress::kCodecNames, rest, "codec", *line);
    } else if (key == "fit") {
      spec.config.fit = parse_enum(memory::kFitNames, rest, "fit", *line);
    } else if (key == "policy") {
      parse_kvs(rest, *line, policy_keys, spec.config.policy);
    } else if (key == "costs") {
      parse_kvs(rest, *line, costs_keys, spec.config.costs);
    } else if (key == "task") {
      raw_tasks.push_back(RawTask{*line, rest});
    } else if (key == "grid") {
      if (rest != "strategy-k") {
        fail("unknown grid '" + std::string(rest) + "' (expected strategy-k)",
             *line);
      }
      grid = Line{"grid strategy-k", line->number};
    } else {
      fail("unknown key '" + std::string(key) + "'", *line);
    }
  }
  if (!saw_end) fail("unterminated record (missing 'end')", lines.eof());
  if (!saw_kind) fail("record is missing 'kind'", *header);
  // Both explicit tasks and the grid sugar build on the same base: the
  // record-level engine config. (This is also why tasks parse after
  // the loop -- a `policy` line below a `task` line still applies.)
  const sim::EngineConfig base = core::engine_config(spec.config);
  for (const RawTask& raw : raw_tasks) {
    sweep::SweepTask& task = spec.tasks.emplace_back();
    task.config = base;
    parse_kvs(raw.rest, raw.line, task_keys, task);
  }
  if (grid) {
    if (!spec.tasks.empty()) {
      fail("'grid' and explicit 'task' lines are exclusive", *grid);
    }
    // Expand over the record's own base config; serialization emits
    // the explicit tasks, so the canonical form never contains 'grid'.
    spec.tasks = strategy_k_grid(base);
  }
  // A grid job with no grid -- or a campaign with no workloads -- would
  // "succeed" with zero outcomes: the silent-ignore trap this format
  // rejects everywhere else. (An in-process JobSpec keeps its
  // empty-job semantics; only records are held to this. The old batch
  // format's bare `campaign` meant "whole suite"; a record spells its
  // workloads out.)
  if (spec.kind != JobKind::kRun && spec.tasks.empty()) {
    fail(std::string(job_kind_name(spec.kind)) +
             " record needs 'task' lines or 'grid strategy-k'",
         *header);
  }
  if (spec.kind == JobKind::kCampaign && spec.workloads.empty()) {
    fail("campaign record needs at least one 'workload' line", *header);
  }
  try {
    validate(spec);
  } catch (const WireError&) {
    throw;
  } catch (const CheckError& e) {
    fail(e.what(), *header);
  }
  return spec;
}

// ------------------------------------------------------------ results

std::string serialize_result(const ResultRecord& record) {
  std::string out = kResultHeader;
  out += '\n';
  out += "job " + fmt_u64(record.job) + '\n';
  out += "client " + escape_field(record.client) + '\n';
  if (!record.ok()) {
    // Non-ok records never carry a payload -- they are byte-identical
    // however far the job got before failing/being cancelled.
    out += "status ";
    out += status_name(record.status);
    out += '\n';
    if (!record.error.empty()) {
      out += "error " + escape_field(record.error) + '\n';
    }
    out += "end\n";
    return out;
  }
  out += "status ok\n";
  out += "kind ";
  out += job_kind_name(record.result.kind);
  out += '\n';
  const auto outcome_line = [&out](const sweep::SweepOutcome& outcome) {
    out += "outcome";
    put_kvs(out, outcome_keys, outcome);
    out += '\n';
  };
  switch (record.result.kind) {
    case JobKind::kRun:
      out += "run";
      put_kvs(out, run_keys, record.result.run);
      out += '\n';
      break;
    case JobKind::kSweep:
      for (const auto& outcome : record.result.sweep) outcome_line(outcome);
      break;
    case JobKind::kCampaign:
      for (const auto& group : record.result.campaign) {
        out += "group " + escape_field(group.workload) + '\n';
        for (const auto& outcome : group.outcomes) outcome_line(outcome);
      }
      break;
  }
  out += "end\n";
  return out;
}

ResultRecord parse_result(std::string_view text, std::size_t first_line) {
  LineScanner lines(text, first_line);
  const auto header = lines.next();
  if (!header) fail("empty record", Line{{}, first_line});
  check_header(*header, kResultHeader, "result");

  ResultRecord record;
  SeenKeys seen;
  bool saw_status = false;
  bool status_ok = false;
  bool saw_kind = false;
  bool saw_run = false;
  bool saw_end = false;
  while (const auto line = lines.next()) {
    if (line->text == "end") {
      saw_end = true;
      break;
    }
    const auto [key, rest] = key_rest(line->text);
    if (key != "outcome" && key != "group") seen.mark(key, *line);
    if (rest.empty()) fail("'" + std::string(key) + "' needs a value", *line);
    if (key == "job") {
      record.job = parse_u64(rest, "job", *line);
    } else if (key == "client") {
      record.client = unescape_at(rest, *line);
    } else if (key == "status") {
      record.status = parse_enum(kStatusNames, rest, "status", *line);
      saw_status = true;
      status_ok = record.status == JobStatus::kOk;
    } else if (key == "error") {
      record.error = unescape_at(rest, *line);
      if (record.error.empty()) {
        fail("'error' needs a non-empty message", *line);
      }
    } else if (key == "kind") {
      record.result.kind =
          parse_enum(kJobKindNames, rest, "result kind", *line);
      saw_kind = true;
    } else if (key == "run") {
      parse_kvs(rest, *line, run_keys, record.result.run);
      saw_run = true;
    } else if (key == "outcome") {
      auto& outcomes = record.result.campaign.empty()
                           ? record.result.sweep
                           : record.result.campaign.back().outcomes;
      parse_kvs(rest, *line, outcome_keys, outcomes.emplace_back());
    } else if (key == "group") {
      record.result.campaign.push_back(
          sweep::CampaignResult{unescape_at(rest, *line), {}});
    } else {
      fail("unknown key '" + std::string(key) + "'", *line);
    }
  }
  if (!saw_end) fail("unterminated record (missing 'end')", lines.eof());
  if (!saw_status) fail("record is missing 'status'", *header);
  if (!status_ok) {
    // kError always explains itself; the lifecycle statuses are
    // self-describing, so their message is optional.
    if (record.status == JobStatus::kError && record.error.empty()) {
      fail("status error record is missing 'error'", *header);
    }
    if (saw_kind || saw_run || !record.result.sweep.empty() ||
        !record.result.campaign.empty()) {
      fail(std::string("status ") + status_name(record.status) +
               " record cannot carry a payload",
           *header);
    }
    return record;
  }
  if (!record.error.empty()) {
    fail("status ok record cannot carry 'error'", *header);
  }
  if (!saw_kind) fail("status ok record is missing 'kind'", *header);
  switch (record.result.kind) {
    case JobKind::kRun:
      if (!saw_run || !record.result.sweep.empty() ||
          !record.result.campaign.empty()) {
        fail("run result needs exactly one 'run' line and no outcomes",
             *header);
      }
      break;
    case JobKind::kSweep:
      if (saw_run || !record.result.campaign.empty()) {
        fail("sweep result carries only 'outcome' lines", *header);
      }
      break;
    case JobKind::kCampaign:
      if (saw_run || !record.result.sweep.empty()) {
        fail("campaign outcomes must follow a 'group' line", *header);
      }
      break;
  }
  return record;
}

}  // namespace apcc::serving::wire
