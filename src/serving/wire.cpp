#include "serving/wire.hpp"

#include <charconv>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/strings.hpp"

namespace apcc::serving::wire {
namespace {

// ------------------------------------------------------- primitives

[[noreturn]] void fail(const std::string& message, std::size_t line,
                       std::string_view snippet) {
  throw WireError(message, line, std::string(snippet));
}

/// Canonical unsigned formatting (plain decimal).
std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// Canonical double formatting: std::to_chars' shortest representation
/// that round-trips exactly (so "1", "0.5", "1.1000000000000001"-free).
std::string fmt_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::uint64_t parse_u64(std::string_view s, const char* what,
                        std::size_t line, std::string_view snippet) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size() || s.empty()) {
    fail(std::string("malformed ") + what + " '" + std::string(s) + "'",
         line, snippet);
  }
  return v;
}

double parse_double(std::string_view s, const char* what, std::size_t line,
                    std::string_view snippet) {
  double v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size() || s.empty()) {
    fail(std::string("malformed ") + what + " '" + std::string(s) + "'",
         line, snippet);
  }
  return v;
}

bool parse_bool01(std::string_view s, const char* what, std::size_t line,
                  std::string_view snippet) {
  if (s == "0") return false;
  if (s == "1") return true;
  fail(std::string(what) + " must be 0 or 1, got '" + std::string(s) + "'",
       line, snippet);
}

/// Strict narrowing: an out-of-range value is a malformed record, not
/// a silent wrap (4294967296 must never read back as "uncapped").
std::uint32_t parse_u32(std::string_view s, const char* what,
                        std::size_t line, std::string_view snippet) {
  const std::uint64_t v = parse_u64(s, what, line, snippet);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    fail(std::string(what) + " out of range: '" + std::string(s) + "'",
         line, snippet);
  }
  return static_cast<std::uint32_t>(v);
}

unsigned parse_unsigned(std::string_view s, const char* what,
                        std::size_t line, std::string_view snippet) {
  const std::uint64_t v = parse_u64(s, what, line, snippet);
  if (v > std::numeric_limits<unsigned>::max()) {
    fail(std::string(what) + " out of range: '" + std::string(s) + "'",
         line, snippet);
  }
  return static_cast<unsigned>(v);
}

/// unescape_field with wire positioning: malformed escapes become
/// WireErrors pointing at the line instead of bare CheckErrors.
std::string unescape_at(std::string_view s, std::size_t line,
                        std::string_view snippet) {
  try {
    return unescape_field(s);
  } catch (const CheckError& e) {
    fail(e.what(), line, snippet);
  }
}

// ------------------------------------------------------ enum tables

template <typename E>
struct EnumName {
  E value;
  const char* name;
};

// The wire names come from the library's canonical *_name functions
// wherever one exists, so the format cannot drift from the names the
// reports and CLI banners print. (FitPolicy has no name function; its
// two names live only here.)
const EnumName<JobKind> kJobKinds[] = {
    {JobKind::kRun, job_kind_name(JobKind::kRun)},
    {JobKind::kSweep, job_kind_name(JobKind::kSweep)},
    {JobKind::kCampaign, job_kind_name(JobKind::kCampaign)},
};

const EnumName<JobStatus> kStatuses[] = {
    {JobStatus::kOk, status_name(JobStatus::kOk)},
    {JobStatus::kError, status_name(JobStatus::kError)},
    {JobStatus::kRejected, status_name(JobStatus::kRejected)},
    {JobStatus::kCancelled, status_name(JobStatus::kCancelled)},
    {JobStatus::kDeadlineExceeded,
     status_name(JobStatus::kDeadlineExceeded)},
};

const EnumName<sweep::Priority> kPriorities[] = {
    {sweep::Priority::kHigh, sweep::priority_name(sweep::Priority::kHigh)},
    {sweep::Priority::kNormal,
     sweep::priority_name(sweep::Priority::kNormal)},
    {sweep::Priority::kBatch, sweep::priority_name(sweep::Priority::kBatch)},
};

const EnumName<compress::CodecKind> kCodecs[] = {
    {compress::CodecKind::kNull,
     compress::codec_kind_name(compress::CodecKind::kNull)},
    {compress::CodecKind::kMtfRle,
     compress::codec_kind_name(compress::CodecKind::kMtfRle)},
    {compress::CodecKind::kHuffman,
     compress::codec_kind_name(compress::CodecKind::kHuffman)},
    {compress::CodecKind::kSharedHuffman,
     compress::codec_kind_name(compress::CodecKind::kSharedHuffman)},
    {compress::CodecKind::kLzss,
     compress::codec_kind_name(compress::CodecKind::kLzss)},
    {compress::CodecKind::kCodePack,
     compress::codec_kind_name(compress::CodecKind::kCodePack)},
    {compress::CodecKind::kFieldSplit,
     compress::codec_kind_name(compress::CodecKind::kFieldSplit)},
};

const EnumName<runtime::DecompressionStrategy> kStrategies[] = {
    {runtime::DecompressionStrategy::kOnDemand,
     runtime::strategy_name(runtime::DecompressionStrategy::kOnDemand)},
    {runtime::DecompressionStrategy::kPreAll,
     runtime::strategy_name(runtime::DecompressionStrategy::kPreAll)},
    {runtime::DecompressionStrategy::kPreSingle,
     runtime::strategy_name(runtime::DecompressionStrategy::kPreSingle)},
};

const EnumName<runtime::PredictorKind> kPredictors[] = {
    {runtime::PredictorKind::kProfile,
     runtime::predictor_name(runtime::PredictorKind::kProfile)},
    {runtime::PredictorKind::kStatic,
     runtime::predictor_name(runtime::PredictorKind::kStatic)},
    {runtime::PredictorKind::kOracle,
     runtime::predictor_name(runtime::PredictorKind::kOracle)},
};

const EnumName<runtime::VictimPolicy> kVictims[] = {
    {runtime::VictimPolicy::kLru,
     runtime::victim_policy_name(runtime::VictimPolicy::kLru)},
    {runtime::VictimPolicy::kMru,
     runtime::victim_policy_name(runtime::VictimPolicy::kMru)},
    {runtime::VictimPolicy::kLargest,
     runtime::victim_policy_name(runtime::VictimPolicy::kLargest)},
};

constexpr EnumName<memory::FitPolicy> kFits[] = {
    {memory::FitPolicy::kFirstFit, "first-fit"},
    {memory::FitPolicy::kBestFit, "best-fit"},
};

template <typename E, std::size_t N>
const char* enum_name(const EnumName<E> (&table)[N], E value) {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

template <typename E, std::size_t N>
E parse_enum(const EnumName<E> (&table)[N], std::string_view s,
             const char* what, std::size_t line, std::string_view snippet) {
  for (const auto& entry : table) {
    if (s == entry.name) return entry.value;
  }
  std::string expected;
  for (const auto& entry : table) {
    if (!expected.empty()) expected += "|";
    expected += entry.name;
  }
  fail(std::string("unknown ") + what + " '" + std::string(s) +
           "' (expected " + expected + ")",
       line, snippet);
}

// --------------------------------------------------------- kv lines

/// Appends " key=value".
void kv(std::string& out, const char* key, const std::string& value) {
  out += ' ';
  out += key;
  out += '=';
  out += value;
}

void policy_kvs(std::string& out, const runtime::Policy& p) {
  kv(out, "kc", fmt_u64(p.compress_k));
  kv(out, "strategy", enum_name(kStrategies, p.strategy));
  kv(out, "kd", fmt_u64(p.predecompress_k));
  kv(out, "predictor", enum_name(kPredictors, p.predictor));
  kv(out, "budget",
     p.memory_budget == runtime::Policy::kUnbounded ? "unbounded"
                                                    : fmt_u64(p.memory_budget));
  kv(out, "victim", enum_name(kVictims, p.victim_policy));
  kv(out, "units", fmt_u64(p.decompress_units));
  kv(out, "background-compression", p.background_compression ? "1" : "0");
  kv(out, "background-decompression", p.background_decompression ? "1" : "0");
  kv(out, "remember-sets", p.use_remember_sets ? "1" : "0");
  kv(out, "recompress", p.recompress_for_real ? "1" : "0");
}

void costs_kvs(std::string& out, const runtime::CostModel& c) {
  kv(out, "cpi", fmt_double(c.cycles_per_instruction));
  kv(out, "exception", fmt_u64(c.exception_cycles));
  kv(out, "patch", fmt_u64(c.patch_branch_cycles));
  kv(out, "unpatch", fmt_u64(c.unpatch_branch_cycles));
  kv(out, "delete", fmt_u64(c.delete_block_cycles));
  kv(out, "alloc", fmt_u64(c.alloc_block_cycles));
  kv(out, "dispatch", fmt_u64(c.dispatch_job_cycles));
}

void result_kvs(std::string& out, const sim::RunResult& r) {
  kv(out, "total-cycles", fmt_u64(r.total_cycles));
  kv(out, "baseline-cycles", fmt_u64(r.baseline_cycles));
  kv(out, "busy-cycles", fmt_u64(r.busy_cycles));
  kv(out, "stall-cycles", fmt_u64(r.stall_cycles));
  kv(out, "exception-cycles", fmt_u64(r.exception_cycles));
  kv(out, "critical-decompress-cycles",
     fmt_u64(r.critical_decompress_cycles));
  kv(out, "patch-cycles", fmt_u64(r.patch_cycles));
  kv(out, "block-entries", fmt_u64(r.block_entries));
  kv(out, "exceptions", fmt_u64(r.exceptions));
  kv(out, "demand-decompressions", fmt_u64(r.demand_decompressions));
  kv(out, "predecompressions", fmt_u64(r.predecompressions));
  kv(out, "predecompress-hits", fmt_u64(r.predecompress_hits));
  kv(out, "predecompress-partial", fmt_u64(r.predecompress_partial));
  kv(out, "wasted-predecompressions", fmt_u64(r.wasted_predecompressions));
  kv(out, "deletions", fmt_u64(r.deletions));
  kv(out, "evictions", fmt_u64(r.evictions));
  kv(out, "patches", fmt_u64(r.patches));
  kv(out, "unpatches", fmt_u64(r.unpatches));
  kv(out, "dropped-requests", fmt_u64(r.dropped_requests));
  kv(out, "decomp-helper-busy", fmt_u64(r.decomp_helper_busy_cycles));
  kv(out, "comp-helper-busy", fmt_u64(r.comp_helper_busy_cycles));
  kv(out, "original-bytes", fmt_u64(r.original_image_bytes));
  kv(out, "compressed-area-bytes", fmt_u64(r.compressed_area_bytes));
  kv(out, "peak-bytes", fmt_u64(r.peak_occupancy_bytes));
  kv(out, "avg-bytes", fmt_double(r.avg_occupancy_bytes));
  kv(out, "codec-ratio", fmt_double(r.codec_ratio));
  kv(out, "alloc-capacity", fmt_u64(r.allocator.capacity));
  kv(out, "alloc-used", fmt_u64(r.allocator.used));
  kv(out, "alloc-free", fmt_u64(r.allocator.free));
  kv(out, "alloc-largest-run", fmt_u64(r.allocator.largest_free_run));
  kv(out, "alloc-live", fmt_u64(r.allocator.live_allocations));
  kv(out, "alloc-total", fmt_u64(r.allocator.total_allocations));
  kv(out, "alloc-failed", fmt_u64(r.allocator.failed_allocations));
}

/// Key=value dispatcher for one kv line: registered handlers, duplicate
/// and unknown-key detection, positioned errors.
class KvParser {
 public:
  KvParser(std::size_t line, std::string_view snippet)
      : line_(line), snippet_(snippet) {}

  void add(const char* key, std::function<void(std::string_view)> handler) {
    handlers_[key] = std::move(handler);
  }

  void run(std::string_view rest) {
    for (const std::string_view token : split_fields(rest, " ")) {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) {
        fail("expected key=value, got '" + std::string(token) + "'", line_,
             snippet_);
      }
      const std::string key(token.substr(0, eq));
      const auto it = handlers_.find(key);
      if (it == handlers_.end()) {
        fail("unknown key '" + key + "'", line_, snippet_);
      }
      if (!seen_.insert(key).second) {
        fail("duplicate key '" + key + "'", line_, snippet_);
      }
      it->second(token.substr(eq + 1));
    }
  }

 private:
  std::size_t line_;
  std::string_view snippet_;
  std::map<std::string, std::function<void(std::string_view)>> handlers_;
  std::set<std::string> seen_;
};

void add_policy_keys(KvParser& p, runtime::Policy& policy, std::size_t line,
                     std::string_view snippet) {
  p.add("kc", [&policy, line, snippet](std::string_view v) {
    policy.compress_k = parse_u32(v, "kc", line, snippet);
  });
  p.add("strategy", [&policy, line, snippet](std::string_view v) {
    policy.strategy = parse_enum(kStrategies, v, "strategy", line, snippet);
  });
  p.add("kd", [&policy, line, snippet](std::string_view v) {
    policy.predecompress_k = parse_u32(v, "kd", line, snippet);
  });
  p.add("predictor", [&policy, line, snippet](std::string_view v) {
    policy.predictor = parse_enum(kPredictors, v, "predictor", line, snippet);
  });
  p.add("budget", [&policy, line, snippet](std::string_view v) {
    policy.memory_budget = v == "unbounded"
                               ? runtime::Policy::kUnbounded
                               : parse_u64(v, "budget", line, snippet);
  });
  p.add("victim", [&policy, line, snippet](std::string_view v) {
    policy.victim_policy = parse_enum(kVictims, v, "victim", line, snippet);
  });
  p.add("units", [&policy, line, snippet](std::string_view v) {
    policy.decompress_units = parse_unsigned(v, "units", line, snippet);
  });
  p.add("background-compression", [&policy, line, snippet](std::string_view v) {
    policy.background_compression =
        parse_bool01(v, "background-compression", line, snippet);
  });
  p.add("background-decompression",
        [&policy, line, snippet](std::string_view v) {
          policy.background_decompression =
              parse_bool01(v, "background-decompression", line, snippet);
        });
  p.add("remember-sets", [&policy, line, snippet](std::string_view v) {
    policy.use_remember_sets = parse_bool01(v, "remember-sets", line, snippet);
  });
  p.add("recompress", [&policy, line, snippet](std::string_view v) {
    policy.recompress_for_real = parse_bool01(v, "recompress", line, snippet);
  });
}

void add_costs_keys(KvParser& p, runtime::CostModel& costs, std::size_t line,
                    std::string_view snippet) {
  p.add("cpi", [&costs, line, snippet](std::string_view v) {
    costs.cycles_per_instruction = parse_double(v, "cpi", line, snippet);
  });
  p.add("exception", [&costs, line, snippet](std::string_view v) {
    costs.exception_cycles = parse_u64(v, "exception", line, snippet);
  });
  p.add("patch", [&costs, line, snippet](std::string_view v) {
    costs.patch_branch_cycles = parse_u64(v, "patch", line, snippet);
  });
  p.add("unpatch", [&costs, line, snippet](std::string_view v) {
    costs.unpatch_branch_cycles = parse_u64(v, "unpatch", line, snippet);
  });
  p.add("delete", [&costs, line, snippet](std::string_view v) {
    costs.delete_block_cycles = parse_u64(v, "delete", line, snippet);
  });
  p.add("alloc", [&costs, line, snippet](std::string_view v) {
    costs.alloc_block_cycles = parse_u64(v, "alloc", line, snippet);
  });
  p.add("dispatch", [&costs, line, snippet](std::string_view v) {
    costs.dispatch_job_cycles = parse_u64(v, "dispatch", line, snippet);
  });
}

void add_result_keys(KvParser& p, sim::RunResult& r, std::size_t line,
                     std::string_view snippet) {
  const auto u64 = [line, snippet](std::uint64_t& field, const char* what) {
    return [&field, what, line, snippet](std::string_view v) {
      field = parse_u64(v, what, line, snippet);
    };
  };
  p.add("total-cycles", u64(r.total_cycles, "total-cycles"));
  p.add("baseline-cycles", u64(r.baseline_cycles, "baseline-cycles"));
  p.add("busy-cycles", u64(r.busy_cycles, "busy-cycles"));
  p.add("stall-cycles", u64(r.stall_cycles, "stall-cycles"));
  p.add("exception-cycles", u64(r.exception_cycles, "exception-cycles"));
  p.add("critical-decompress-cycles",
        u64(r.critical_decompress_cycles, "critical-decompress-cycles"));
  p.add("patch-cycles", u64(r.patch_cycles, "patch-cycles"));
  p.add("block-entries", u64(r.block_entries, "block-entries"));
  p.add("exceptions", u64(r.exceptions, "exceptions"));
  p.add("demand-decompressions",
        u64(r.demand_decompressions, "demand-decompressions"));
  p.add("predecompressions", u64(r.predecompressions, "predecompressions"));
  p.add("predecompress-hits", u64(r.predecompress_hits, "predecompress-hits"));
  p.add("predecompress-partial",
        u64(r.predecompress_partial, "predecompress-partial"));
  p.add("wasted-predecompressions",
        u64(r.wasted_predecompressions, "wasted-predecompressions"));
  p.add("deletions", u64(r.deletions, "deletions"));
  p.add("evictions", u64(r.evictions, "evictions"));
  p.add("patches", u64(r.patches, "patches"));
  p.add("unpatches", u64(r.unpatches, "unpatches"));
  p.add("dropped-requests", u64(r.dropped_requests, "dropped-requests"));
  p.add("decomp-helper-busy",
        u64(r.decomp_helper_busy_cycles, "decomp-helper-busy"));
  p.add("comp-helper-busy", u64(r.comp_helper_busy_cycles, "comp-helper-busy"));
  p.add("original-bytes", u64(r.original_image_bytes, "original-bytes"));
  p.add("compressed-area-bytes",
        u64(r.compressed_area_bytes, "compressed-area-bytes"));
  p.add("peak-bytes", u64(r.peak_occupancy_bytes, "peak-bytes"));
  p.add("avg-bytes", [&r, line, snippet](std::string_view v) {
    r.avg_occupancy_bytes = parse_double(v, "avg-bytes", line, snippet);
  });
  p.add("codec-ratio", [&r, line, snippet](std::string_view v) {
    r.codec_ratio = parse_double(v, "codec-ratio", line, snippet);
  });
  p.add("alloc-capacity", u64(r.allocator.capacity, "alloc-capacity"));
  p.add("alloc-used", u64(r.allocator.used, "alloc-used"));
  p.add("alloc-free", u64(r.allocator.free, "alloc-free"));
  p.add("alloc-largest-run",
        u64(r.allocator.largest_free_run, "alloc-largest-run"));
  p.add("alloc-live", u64(r.allocator.live_allocations, "alloc-live"));
  p.add("alloc-total", u64(r.allocator.total_allocations, "alloc-total"));
  p.add("alloc-failed", u64(r.allocator.failed_allocations, "alloc-failed"));
}

sim::RunResult parse_result_kvs(std::string_view rest, std::size_t line,
                                std::string_view snippet) {
  sim::RunResult r;
  KvParser p(line, snippet);
  add_result_keys(p, r, line, snippet);
  p.run(rest);
  return r;
}

/// One task line: the label plus the full engine knob set.
void task_line(std::string& out, const sweep::SweepTask& task) {
  out += "task";
  kv(out, "label", escape_field(task.label));
  policy_kvs(out, task.config.policy);
  costs_kvs(out, task.config.costs);
  kv(out, "fit", enum_name(kFits, task.config.fit));
  out += '\n';
}

/// Parse one task line over `base` -- the record-level engine config
/// (policy/costs/fit), so a record's `policy`/`costs` lines are the
/// base every task inherits and task kvs override per cell (exactly
/// what the `grid strategy-k` sugar expands over).
sweep::SweepTask parse_task_kvs(std::string_view rest, std::size_t line,
                                std::string_view snippet,
                                const sim::EngineConfig& base) {
  sweep::SweepTask task;
  task.config = base;
  KvParser p(line, snippet);
  p.add("label", [&task, line, snippet](std::string_view v) {
    task.label = unescape_at(v, line, snippet);
  });
  add_policy_keys(p, task.config.policy, line, snippet);
  add_costs_keys(p, task.config.costs, line, snippet);
  p.add("fit", [&task, line, snippet](std::string_view v) {
    task.config.fit = parse_enum(kFits, v, "fit", line, snippet);
  });
  p.run(rest);
  return task;
}

/// One outcome line (sweep/campaign results).
void outcome_line(std::string& out, const sweep::SweepOutcome& outcome) {
  out += "outcome";
  kv(out, "index", fmt_u64(outcome.index));
  kv(out, "label", escape_field(outcome.label));
  result_kvs(out, outcome.result);
  out += '\n';
}

sweep::SweepOutcome parse_outcome_kvs(std::string_view rest, std::size_t line,
                                      std::string_view snippet) {
  sweep::SweepOutcome outcome;
  KvParser p(line, snippet);
  p.add("index", [&outcome, line, snippet](std::string_view v) {
    outcome.index =
        static_cast<std::size_t>(parse_u64(v, "index", line, snippet));
  });
  p.add("label", [&outcome, line, snippet](std::string_view v) {
    outcome.label = unescape_at(v, line, snippet);
  });
  add_result_keys(p, outcome.result, line, snippet);
  p.run(rest);
  return outcome;
}

// ------------------------------------------------------ line scanner

struct Line {
  std::string_view text;   // trimmed content
  std::size_t number = 0;  // absolute 1-based line
};

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

  /// The line number just past the scanned text (for missing-end errors).
  [[nodiscard]] std::size_t eof_line() const { return line_; }

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
         header.number, header.text);
  }
  fail("expected '" + expected + "' record header", header.number,
       header.text);
}

/// Tracks single-occurrence record keys.
class SeenKeys {
 public:
  void mark(std::string_view key, std::size_t line,
            std::string_view snippet) {
    if (!seen_.insert(std::string(key)).second) {
      fail("duplicate '" + std::string(key) + "' line", line, snippet);
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
  out += enum_name(kJobKinds, spec.kind);
  out += '\n';
  out += "client " + escape_field(spec.client) + '\n';
  out += "priority ";
  out += enum_name(kPriorities, spec.priority);
  out += '\n';
  out += "max-workers " + fmt_u64(spec.max_workers) + '\n';
  out += "deadline-ms " + fmt_u64(spec.deadline_ms) + '\n';
  out += "batch-cells " + fmt_u64(spec.batch_cells) + '\n';
  for (const std::string& ref : spec.workloads) {
    out += "workload " + escape_field(ref) + '\n';
  }
  out += "codec ";
  out += enum_name(kCodecs, spec.config.codec);
  out += '\n';
  out += "fit ";
  out += enum_name(kFits, spec.config.fit);
  out += '\n';
  {
    std::string line = "policy";
    policy_kvs(line, spec.config.policy);
    out += line + '\n';
  }
  {
    std::string line = "costs";
    costs_kvs(line, spec.config.costs);
    out += line + '\n';
  }
  for (const sweep::SweepTask& task : spec.tasks) {
    task_line(out, task);
  }
  out += "end\n";
  return out;
}

JobSpec parse_job(std::string_view text, std::size_t first_line) {
  LineScanner lines(text, first_line);
  const auto header = lines.next();
  if (!header) fail("empty record", first_line, "");
  check_header(*header, kJobHeader, "job");

  JobSpec spec;
  SeenKeys seen;
  bool saw_kind = false;
  bool saw_end = false;
  bool saw_grid = false;
  std::size_t grid_line = 0;
  // Task lines are parsed after the whole record is read: keys may
  // appear in any order, and every task inherits the record-level
  // policy/costs/fit as its base.
  struct RawTask {
    std::string_view rest;
    std::size_t number = 0;
    std::string_view snippet;
  };
  std::vector<RawTask> raw_tasks;
  while (const auto line = lines.next()) {
    if (line->text == "end") {
      saw_end = true;
      break;
    }
    const auto [key, rest] = key_rest(line->text);
    if (key != "workload" && key != "task") {
      seen.mark(key, line->number, line->text);
    }
    if (rest.empty()) {
      fail("'" + std::string(key) + "' needs a value", line->number,
           line->text);
    }
    if (key == "kind") {
      spec.kind = parse_enum(kJobKinds, rest, "job kind", line->number,
                             line->text);
      saw_kind = true;
    } else if (key == "client") {
      spec.client = unescape_at(rest, line->number, line->text);
    } else if (key == "priority") {
      spec.priority =
          parse_enum(kPriorities, rest, "priority", line->number, line->text);
    } else if (key == "max-workers") {
      spec.max_workers =
          parse_unsigned(rest, "max-workers", line->number, line->text);
    } else if (key == "deadline-ms") {
      spec.deadline_ms =
          parse_u64(rest, "deadline-ms", line->number, line->text);
    } else if (key == "batch-cells") {
      // Optional since v4; omitted means 0 (the width-1 path), which
      // keeps v3-era records meaningful under the v4 header.
      spec.batch_cells =
          parse_u32(rest, "batch-cells", line->number, line->text);
    } else if (key == "workload") {
      spec.workloads.push_back(unescape_at(rest, line->number, line->text));
    } else if (key == "codec") {
      spec.config.codec =
          parse_enum(kCodecs, rest, "codec", line->number, line->text);
    } else if (key == "fit") {
      spec.config.fit =
          parse_enum(kFits, rest, "fit", line->number, line->text);
    } else if (key == "policy") {
      KvParser p(line->number, line->text);
      add_policy_keys(p, spec.config.policy, line->number, line->text);
      p.run(rest);
    } else if (key == "costs") {
      KvParser p(line->number, line->text);
      add_costs_keys(p, spec.config.costs, line->number, line->text);
      p.run(rest);
    } else if (key == "task") {
      raw_tasks.push_back(RawTask{rest, line->number, line->text});
    } else if (key == "grid") {
      if (rest != "strategy-k") {
        fail("unknown grid '" + std::string(rest) +
                 "' (expected strategy-k)",
             line->number, line->text);
      }
      saw_grid = true;
      grid_line = line->number;
    } else {
      fail("unknown key '" + std::string(key) + "'", line->number,
           line->text);
    }
  }
  if (!saw_end) {
    fail("unterminated record (missing 'end')", lines.eof_line(), "");
  }
  if (!saw_kind) {
    fail("record is missing 'kind'", header->number, header->text);
  }
  // Both explicit tasks and the grid sugar build on the same base: the
  // record-level engine config. (This is also why tasks parse after
  // the loop -- a `policy` line below a `task` line still applies.)
  const sim::EngineConfig base = core::engine_config(spec.config);
  for (const RawTask& raw : raw_tasks) {
    spec.tasks.push_back(
        parse_task_kvs(raw.rest, raw.number, raw.snippet, base));
  }
  if (saw_grid) {
    if (!spec.tasks.empty()) {
      fail("'grid' and explicit 'task' lines are exclusive", grid_line,
           "grid strategy-k");
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
         header->number, header->text);
  }
  if (spec.kind == JobKind::kCampaign && spec.workloads.empty()) {
    fail("campaign record needs at least one 'workload' line",
         header->number, header->text);
  }
  try {
    validate(spec);
  } catch (const WireError&) {
    throw;
  } catch (const CheckError& e) {
    fail(e.what(), header->number, header->text);
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
    out += enum_name(kStatuses, record.status);
    out += '\n';
    if (!record.error.empty()) {
      out += "error " + escape_field(record.error) + '\n';
    }
    out += "end\n";
    return out;
  }
  out += "status ok\n";
  out += "kind ";
  out += enum_name(kJobKinds, record.result.kind);
  out += '\n';
  switch (record.result.kind) {
    case JobKind::kRun: {
      std::string line = "run";
      result_kvs(line, record.result.run);
      out += line + '\n';
      break;
    }
    case JobKind::kSweep:
      for (const auto& outcome : record.result.sweep) {
        outcome_line(out, outcome);
      }
      break;
    case JobKind::kCampaign:
      for (const auto& group : record.result.campaign) {
        out += "group " + escape_field(group.workload) + '\n';
        for (const auto& outcome : group.outcomes) {
          outcome_line(out, outcome);
        }
      }
      break;
  }
  out += "end\n";
  return out;
}

ResultRecord parse_result(std::string_view text, std::size_t first_line) {
  LineScanner lines(text, first_line);
  const auto header = lines.next();
  if (!header) fail("empty record", first_line, "");
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
    if (key != "outcome" && key != "group") {
      seen.mark(key, line->number, line->text);
    }
    if (rest.empty()) {
      fail("'" + std::string(key) + "' needs a value", line->number,
           line->text);
    }
    if (key == "job") {
      record.job = parse_u64(rest, "job", line->number, line->text);
    } else if (key == "client") {
      record.client = unescape_at(rest, line->number, line->text);
    } else if (key == "status") {
      record.status =
          parse_enum(kStatuses, rest, "status", line->number, line->text);
      saw_status = true;
      status_ok = record.status == JobStatus::kOk;
    } else if (key == "error") {
      record.error = unescape_at(rest, line->number, line->text);
      if (record.error.empty()) {
        fail("'error' needs a non-empty message", line->number, line->text);
      }
    } else if (key == "kind") {
      record.result.kind = parse_enum(kJobKinds, rest, "result kind",
                                      line->number, line->text);
      saw_kind = true;
    } else if (key == "run") {
      record.result.run = parse_result_kvs(rest, line->number, line->text);
      saw_run = true;
    } else if (key == "outcome") {
      const auto outcome =
          parse_outcome_kvs(rest, line->number, line->text);
      if (!record.result.campaign.empty()) {
        record.result.campaign.back().outcomes.push_back(outcome);
      } else {
        record.result.sweep.push_back(outcome);
      }
    } else if (key == "group") {
      record.result.campaign.push_back(
          sweep::CampaignResult{unescape_at(rest, line->number, line->text), {}});
    } else {
      fail("unknown key '" + std::string(key) + "'", line->number,
           line->text);
    }
  }
  if (!saw_end) {
    fail("unterminated record (missing 'end')", lines.eof_line(), "");
  }
  if (!saw_status) {
    fail("record is missing 'status'", header->number, header->text);
  }
  if (!status_ok) {
    // kError always explains itself; the lifecycle statuses are
    // self-describing, so their message is optional.
    if (record.status == JobStatus::kError && record.error.empty()) {
      fail("status error record is missing 'error'", header->number,
           header->text);
    }
    if (saw_kind || saw_run || !record.result.sweep.empty() ||
        !record.result.campaign.empty()) {
      fail(std::string("status ") + status_name(record.status) +
               " record cannot carry a payload",
           header->number, header->text);
    }
    return record;
  }
  if (!record.error.empty()) {
    fail("status ok record cannot carry 'error'", header->number,
         header->text);
  }
  if (!saw_kind) {
    fail("status ok record is missing 'kind'", header->number, header->text);
  }
  switch (record.result.kind) {
    case JobKind::kRun:
      if (!saw_run || !record.result.sweep.empty() ||
          !record.result.campaign.empty()) {
        fail("run result needs exactly one 'run' line and no outcomes",
             header->number, header->text);
      }
      break;
    case JobKind::kSweep:
      if (saw_run || !record.result.campaign.empty()) {
        fail("sweep result carries only 'outcome' lines", header->number,
             header->text);
      }
      break;
    case JobKind::kCampaign:
      if (saw_run || !record.result.sweep.empty()) {
        fail("campaign outcomes must follow a 'group' line", header->number,
             header->text);
      }
      break;
  }
  return record;
}

}  // namespace apcc::serving::wire
