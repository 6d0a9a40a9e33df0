// serving::JobSpec -- the one canonical job representation.
//
// A single versioned, self-describing value: the job kind, the workload
// references, the policy grid, and the scheduling metadata (QoS) the
// pool needs -- everything a job *is*, with nothing tied to one address
// space. One value type means one validation routine, one wire codec
// (serving/wire.hpp), and one submission path: Service::submit(JobSpec)
// returning a JobHandle<JobResult>, for in-process callers and wire
// records alike.
//
// Workload references are strings so a JobSpec can leave the process:
//   "gsm-like"   -- resolved against registered workload names (first
//                   registration wins; the CLI registers each spec once)
//   "@3"         -- a literal WorkloadId, exact and collision-proof;
//                   what in-process callers use.
//
// QoS fields feed sweep::Pool's scheduler: a strict priority class
// (high > normal > batch, lowest-job-id tie-break), a max-worker budget
// (0 = uncapped), and a free-form client tag for attribution. All three
// affect only *when* cells run -- never what any job returns; the
// differential tests pin mixed-priority/budgeted submissions
// byte-identical to plain FIFO.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "sim/result.hpp"
#include "support/names.hpp"
#include "sweep/pool.hpp"
#include "sweep/sweep.hpp"

namespace apcc::serving {

/// What a job does; selects which JobSpec fields are meaningful and
/// which JobResult member carries the outcome.
enum class JobKind : std::uint8_t {
  kRun,       // one workload, one configuration -> sim::RunResult
  kSweep,     // one workload, a task grid       -> vector<SweepOutcome>
  kCampaign,  // many workloads, one grid        -> vector<CampaignResult>
};

inline constexpr NamedValue<JobKind> kJobKindNames[] = {
    {JobKind::kRun, "run"},
    {JobKind::kSweep, "sweep"},
    {JobKind::kCampaign, "campaign"},
};

[[nodiscard]] inline const char* job_kind_name(JobKind kind) {
  return name_of(kJobKindNames, kind);
}

/// How a submitted job resolved. kOk is the only status with a
/// payload; every other status carries a human-readable message in
/// JobResult::error instead. kError means an item threw (the handle
/// rethrows it); kRejected/kCancelled/kDeadlineExceeded are the
/// admission-control and lifecycle outcomes -- structured results, not
/// exceptions, so an overloaded or draining service never throws at a
/// well-formed caller.
enum class JobStatus : std::uint8_t {
  kOk,
  kError,
  kRejected,
  kCancelled,
  kDeadlineExceeded,
};

/// The one canonical status spelling, shared by the library, the wire
/// codec, and the CLI (so the strings cannot drift as statuses
/// multiply).
inline constexpr NamedValue<JobStatus> kStatusNames[] = {
    {JobStatus::kOk, "ok"},
    {JobStatus::kError, "error"},
    {JobStatus::kRejected, "rejected"},
    {JobStatus::kCancelled, "cancelled"},
    {JobStatus::kDeadlineExceeded, "deadline-exceeded"},
};

[[nodiscard]] inline const char* status_name(JobStatus status) {
  return name_of(kStatusNames, status);
}

/// The canonical, versioned job value. kWireVersion names the wire
/// schema (serving/wire.hpp) this struct round-trips through; bump it
/// deliberately whenever a field is added, removed, or re-interpreted.
/// v3: added the optional `deadline-ms` job field and the rejected /
/// cancelled / deadline-exceeded result statuses.
/// v4: added the optional `batch-cells` job field (lockstep multi-cell
/// stepping for sweep/campaign); omitted means 0, the width-1 path,
/// which is byte-identical to every batched setting.
/// v5: removed the engine's two debug-path keys (full-table scans and
/// the per-exit frontier BFS) at job and task level; the engine no
/// longer has those paths (docs/API.md, "Migrating wire v4 -> v5").
/// v6: removed the `fpc`, `bdi` and `adaptive` values of the job-level
/// `codec` key; the library no longer has those codecs (docs/API.md,
/// "Migrating wire v5 -> v6").
/// v7: removed the job-level geometry-sharing key (the service always
/// borrows its cached geometry) and the decompress-and-verify debug kv
/// of policy and task lines (the engine no longer has that path;
/// docs/API.md, "Migrating wire v6 -> v7").
struct JobSpec {
  static constexpr int kWireVersion = 7;

  JobKind kind = JobKind::kRun;
  /// Workload references ("@<id>" or a registered name). Exactly one
  /// for run/sweep; zero or more for campaign.
  std::vector<std::string> workloads;
  /// Codec + baseline engine knobs. run uses the whole config; sweep
  /// and campaign take the codec (image artifact key) from here and
  /// every engine knob from the task grid.
  core::SystemConfig config{};
  /// The policy grid (sweep/campaign). Must be empty for run.
  std::vector<sweep::SweepTask> tasks;
  /// Grid cells stepped per pool work item (sweep/campaign only; a run
  /// job has a single cell and rejects a nonzero value): each work item
  /// advances max(1, batch_cells) consecutive grid cells in lockstep
  /// through one sim::BatchEngine, so 0 and 1 are the same width-1
  /// path. Scheduling granularity changes; results never do.
  std::uint32_t batch_cells = 0;

  // -- QoS / scheduling metadata --------------------------------------
  sweep::Priority priority = sweep::Priority::kNormal;
  /// Max pool workers on this job's cells concurrently; 0 = uncapped.
  unsigned max_workers = 0;
  /// Relative deadline in milliseconds, enforced at dispatch: a cell
  /// claimed after submit-time + deadline is skipped and the job
  /// resolves as deadline-exceeded. 0 = no job deadline (the service's
  /// ServiceLimits::default_deadline_ms, if any, applies instead).
  /// At most kMaxDeadlineMs.
  std::uint64_t deadline_ms = 0;
  /// 2^40 ms, about 35 years: submit time plus any deadline up to this
  /// stays far inside steady_clock's signed nanosecond range.
  static constexpr std::uint64_t kMaxDeadlineMs = std::uint64_t{1} << 40;
  /// Free-form client tag, echoed into wire results for attribution
  /// (and the key ServiceLimits::max_queued_per_client counts by).
  std::string client;
};

/// The unified outcome: `status` says whether the job produced a
/// payload, `kind` says which member carries it: callers read `.run`,
/// `.sweep`, or `.campaign`. Kept a plain struct (not a variant) so the
/// wire codec can stream it.
struct JobResult {
  JobKind kind = JobKind::kRun;
  /// kOk: the kind-selected member below is the outcome. Anything
  /// else: the payload members are empty and `error` explains why.
  JobStatus status = JobStatus::kOk;
  /// Human-readable message for non-ok statuses (the rejection reason,
  /// "job cancelled", the first item failure's message, ...).
  std::string error;
  sim::RunResult run{};
  std::vector<sweep::SweepOutcome> sweep;
  std::vector<sweep::CampaignResult> campaign;

  [[nodiscard]] bool ok() const { return status == JobStatus::kOk; }
};

/// Structural validation (kind known, workload arity, run has no grid,
/// priority in range) and range checks on every value the engine or
/// the clock would otherwise take unchecked: deadline_ms, and the engine
/// knobs of the base config and of every task (kc >= 1, kd <= 64,
/// units in 1..64, cpi finite in [0, 65536], each per-event cost at
/// most 2^32 - 1). Throws CheckError naming the violation and its wire key.
/// Service::submit(JobSpec) calls this; the CLI calls it per parsed
/// record so a bad batch line is reported with its file position before
/// anything is submitted.
void validate(const JobSpec& spec);

/// The standard strategy x k policy grid (every DecompressionStrategy
/// x k in {1,2,4,8}, labels "<strategy>/k=<k>") varied over `base` --
/// the grid the sweep/campaign CLI subcommands and the wire format's
/// "grid strategy-k" sugar expand to.
[[nodiscard]] std::vector<sweep::SweepTask> strategy_k_grid(
    const sim::EngineConfig& base);

}  // namespace apcc::serving
