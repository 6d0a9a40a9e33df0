// The APCC wire format: a canonical, versioned text codec for JobSpec
// and every job result type.
//
// This is what lets jobs and results leave the address space: batch job
// files, the `apcc_cli serve` stdin/stdout front door, and the golden
// round-trip ctests (Wire.CliRoundTrip.*) all speak exactly this format.
// Records are line-oriented text:
//
//   apcc.job v7                      <- strict versioned header
//   kind sweep
//   client bench-rig
//   priority high
//   max-workers 2
//   deadline-ms 0
//   batch-cells 0
//   workload gsm-like
//   codec huffman-shared
//   ...
//   task label=on-demand/k=1 strategy=on-demand kc=1 kd=1 ...
//   end
//
//   apcc.result v7
//   job 1
//   client bench-rig
//   status ok
//   kind sweep
//   outcome index=0 label=on-demand/k=1 total-cycles=8124 ...
//   end
//
// v3 (PR 6) adds the optional `deadline-ms` job field (0 = none) and
// widens result `status` from ok|error to the full JobStatus set --
// ok | error | rejected | cancelled | deadline-exceeded. Only `ok`
// carries a payload; `error` requires an `error` message line; the
// other non-ok statuses may carry one.
//
// v4 adds the optional `batch-cells` job field (0 = the width-1
// path): grid cells stepped in lockstep per pool work item
// for sweep/campaign jobs. Omitting it reproduces v3 behaviour exactly;
// any value changes scheduling granularity, never results. Result
// records are unchanged from v3 apart from the header version.
//
// v5 removes the engine's two debug-path keys from job records and
// task lines (docs/API.md, "Migrating wire v4 -> v5"): a record that
// carries either fails with "unknown key" at its line. Nothing else
// changed.
//
// v6 removes three values of the job-level `codec` key -- fpc, bdi and
// adaptive (docs/API.md, "Migrating wire v5 -> v6"): a record that names
// one fails with "unknown codec" at its line. Nothing else changed.
//
// v7 removes the job-level geometry-sharing key (the service always
// borrows its cached geometry) and the decompress-and-verify debug kv of
// policy and task lines (docs/API.md, "Migrating wire v6 -> v7"): a
// record that carries either fails with "unknown key" at its line.
// Nothing else changed.
//
// Contract:
//  * **Strict**: the header must match byte-for-byte (a future schema
//    change must bump the version deliberately); unknown keys,
//    duplicate single-occurrence keys, malformed values, and missing
//    `end` are errors, never silently ignored. Errors throw WireError
//    carrying the offending line number and a snippet.
//  * **Lenient about omission**: every key except `kind` (and the
//    workload arity the job kind demands) has the library default, so
//    hand-written job files stay short.
//  * **Canonical**: serialize() always emits every field, in a fixed
//    order, with fixed formatting (shortest round-trip for doubles).
//    serialize(parse(text)) is therefore a fixed point: running it
//    twice yields byte-identical output, which is what the golden
//    round-trip ctests diff against.
//  * **Bounded**: a value the engine or the clock cannot take (kc 0,
//    kd above 64, units outside 1..64, cpi not finite in [0, 65536], a
//    per-event cost above 2^32 - 1, deadline-ms above 2^40) fails
//    serving::validate, a WireError at the record header.
//  * **One listing per vocabulary**: `run` and `outcome` kvs iterate
//    RunResult's field table (sim::for_each_field), `costs` kvs
//    CostModel's (runtime::for_each_cost), `policy` kvs the policy
//    table in wire.cpp, and every enum value is spelled by the name
//    table next to its enum (support/names.hpp).
//  * Field values that may contain spaces / non-printable bytes
//    (workload refs, task labels, client tags, error messages) are
//    percent-escaped; an empty string is the sentinel "-".
//
// Sugar: a job record may say `grid strategy-k` instead of explicit
// `task` lines -- it expands at parse time to the standard strategy x k
// grid (serving::strategy_k_grid) over the record's own base config.
// Serialization always emits the expanded tasks, keeping the canonical
// form explicit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "serving/job_spec.hpp"
#include "support/assert.hpp"

namespace apcc::serving::wire {

/// The wire schema version both record headers carry. Any change to
/// the record grammar, key set, or value formats must bump
/// JobSpec::kWireVersion (and regenerate the golden files in
/// tests/serving/data); the header strings derive from it so the
/// version is stated in exactly one place.
inline constexpr int kVersion = JobSpec::kWireVersion;
inline const std::string kJobHeader = "apcc.job v" + std::to_string(kVersion);
inline const std::string kResultHeader =
    "apcc.result v" + std::to_string(kVersion);

/// A malformed record: `line()` is the 1-based line the error was
/// detected on (absolute, given the `first_line` the parse call was
/// handed) and `snippet()` is that line's text, for diagnostics that
/// point at the offending input.
class WireError : public CheckError {
 public:
  WireError(const std::string& message, std::size_t line,
            std::string snippet)
      : CheckError(message), line_(line), snippet_(std::move(snippet)) {}

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] const std::string& snippet() const { return snippet_; }

 private:
  std::size_t line_;
  std::string snippet_;
};

// ------------------------------------------------------------- jobs

/// Canonical text for one job record (header through "end\n").
[[nodiscard]] std::string serialize_job(const JobSpec& spec);

/// Parse one job record. `first_line` is the absolute line number of
/// the record's header line in its source, so WireErrors point at the
/// real file/stream position. Blank and '#'-comment lines inside the
/// record are skipped (and counted).
[[nodiscard]] JobSpec parse_job(std::string_view text,
                                std::size_t first_line = 1);

// ----------------------------------------------------------- results

/// One job's wire-visible outcome: the submission sequence number the
/// stream assigned it, the echoed client tag, and either the unified
/// JobResult payload (status ok) or a status + message explaining why
/// there is none.
struct ResultRecord {
  std::uint64_t job = 0;
  std::string client;
  /// How the job resolved. Only kOk records carry a payload.
  JobStatus status = JobStatus::kOk;
  /// The non-ok explanation: required for kError, optional for the
  /// lifecycle statuses (rejected / cancelled / deadline-exceeded),
  /// forbidden for kOk.
  std::string error;
  JobResult result;

  [[nodiscard]] bool ok() const { return status == JobStatus::kOk; }
};

[[nodiscard]] std::string serialize_result(const ResultRecord& record);

[[nodiscard]] ResultRecord parse_result(std::string_view text,
                                        std::size_t first_line = 1);

// ------------------------------------------------------------ streams

/// One raw record cut out of a stream by net::RecordFramer: the exact
/// text from its header line through its "end" line, where it started,
/// and which header it carried. Feed `text`/`first_line` to parse_job /
/// parse_result.
struct RawRecord {
  std::string text;
  std::size_t first_line = 0;
  bool is_result = false;
};

// -------------------------------------------------- field encoding

/// Percent-escape a free-form field for a wire line: bytes outside
/// printable-ASCII, '%', and spaces become %XX (uppercase hex); the
/// empty string is "-" (and a literal "-" is "%2D"). Deterministic,
/// so canonical.
[[nodiscard]] std::string escape_field(std::string_view s);

/// Inverse of escape_field; throws CheckError on malformed escapes.
[[nodiscard]] std::string unescape_field(std::string_view s);

}  // namespace apcc::serving::wire
