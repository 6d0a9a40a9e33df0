// apcc::serving::Service -- the persistent job-submission API.
//
// The one-shot entry point (CodeCompressionSystem::run) rebuilds the
// compressed BlockImage per system and re-materializes frontier
// geometry per call. That is the wrong shape for the workload the
// ROADMAP aims at -- the same suite replayed under many policy grids,
// by many clients -- where the expensive transforms are *artifacts of
// the workload*, not of the request. Service inverts the lifecycle, and
// it is the one runner that runs a grid in parallel:
//
//   serving::Service service;                          // resident pool
//   auto id = service.register_workload(
//       workloads::make_workload(WorkloadKind::kGsmLike));
//   serving::JobSpec spec;                  // the canonical front door
//   spec.kind = serving::JobKind::kSweep;
//   spec.workloads = {"@" + std::to_string(id)};
//   spec.tasks = grid;
//   spec.priority = sweep::Priority::kHigh;
//   auto handle = service.submit(std::move(spec));
//   const serving::JobResult& r = handle.wait();
//
//  * register_workload() hands the Service ownership of a workload; the
//    returned WorkloadId names it in every later job (JobSpecs may also
//    reference it by registered name -- see job_spec.hpp).
//  * The Service owns a per-workload **artifact cache**: the compressed
//    BlockImage keyed by codec kind and the materialized FrontierCache
//    keyed by predecompress_k (the lists of the blocks the workload's
//    trace exits, the only ones its cells read), each in one
//    serving::ArtifactSlot
//    (artifact_slot.hpp). Artifacts are built lazily -- by the first
//    pool worker whose job needs them, never on the submitting thread --
//    deduplicated by the slot's claim-build / wait handshake, and
//    immutable afterwards, so any number of concurrent jobs borrow them
//    without copies or locks.
//  * submit(JobSpec) is the one submission path: it validates the
//    spec, resolves its workload references, enqueues the job onto one
//    shared sweep::Pool under the spec's QoS (priority class, worker
//    budget), and returns a future-style JobHandle<JobResult>
//    immediately. Every kind runs as a grid -- a run job is a 1x1 grid
//    -- cut into the cell executor's chunks (sweep.hpp), one pool work
//    item per chunk, each stepped by one sim::BatchEngine.
//
// The invariant the whole design hangs on: a job's outcome is
// **byte-identical** to running each of its cells alone, in order, on a
// width-1 BatchEngine. Cached images are built by the same codec
// training on the same bytes; borrowed geometry, built for the blocks
// the workload's trace exits, holds exactly the lists an owned cache
// would compute there (pinned by the engine-equivalence grid and
// tests/sim/restricted_geometry_test.cpp); scheduling -- including priorities and budgets -- only changes
// *when* a cell runs, never what it computes. tests/serving pins the
// differentials (service_test.cpp, job_spec_test.cpp).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/system.hpp"
#include "serving/artifact_slot.hpp"
#include "serving/cache.hpp"
#include "serving/fault_plan.hpp"
#include "serving/job_spec.hpp"
#include "support/assert.hpp"
#include "sweep/pool.hpp"
#include "sweep/sweep.hpp"
#include "workloads/suite.hpp"

namespace apcc::serving {

/// Names a workload registered with a Service (dense, 0-based).
using WorkloadId = std::size_t;

/// Job identifier: unique per Service, shared with the pool's work
/// items so the scheduler and diagnostics can attribute cells to jobs.
using JobId = sweep::Pool::JobId;

/// Admission control and default lifecycle bounds. Every limit is
/// "0 = unbounded/none"; an over-limit submit() resolves as a
/// structured *rejected* JobResult -- never a throw, never a stall --
/// so an overloaded service stays responsive instead of queueing
/// without bound (the ROADMAP front-door requirement).
struct ServiceLimits {
  /// Max jobs submitted-but-not-finalized, service-wide.
  std::size_t max_queued_jobs = 0;
  /// Max live jobs per JobSpec::client tag (the empty tag is a tag).
  std::size_t max_queued_per_client = 0;
  /// Deadline applied to jobs that carry none of their own
  /// (JobSpec::deadline_ms == 0), in milliseconds. At most
  /// JobSpec::kMaxDeadlineMs; the constructor throws CheckError above.
  std::uint64_t default_deadline_ms = 0;
};

struct ServiceOptions {
  /// Largest resident pool width: the pool starts one thread per worker.
  static constexpr unsigned kMaxWorkers = 1024;

  /// Resident pool width; 0 means hardware concurrency (clamped to at
  /// least 1). 1 still means one resident worker *thread* -- submit()
  /// never runs work inline. At most kMaxWorkers; the constructor
  /// throws CheckError above.
  unsigned workers = 0;
  ServiceLimits limits;
  /// Byte ceiling for the resident artifact cache (see cache.hpp); 0 --
  /// the default -- grows without bound. Under a budget, publishes
  /// trigger a cost-aware eviction pass; evicted artifacts are
  /// transparently rebuilt (bit-identical) by the next job that needs
  /// them, so a budget never changes any job outcome -- only when
  /// artifacts are rebuilt.
  CacheBudget cache_budget;
  /// Deterministic fault injection (tests / soak runs); null -- the
  /// default -- costs one branch per fault point. See fault_plan.hpp.
  std::shared_ptr<const FaultPlan> faults;
  /// Server-side fair-share weights by client tag; absent tags weigh 1.
  /// Weights are deployment policy, not job payload -- they never cross
  /// the wire, so the wire format is unchanged.
  std::map<std::string, unsigned> client_weights;
};

namespace detail {

/// Shared completion state of one submitted job; every copy of its
/// JobHandle is a view of the same object.
struct JobState {
  JobId id = 0;
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool done = false;
  std::exception_ptr failure;
  JobResult value;
  /// The job's cooperative-cancellation token: items poll it at task
  /// boundaries, the pool reads it at every claim. Set for every
  /// pool-backed job; null for jobs that resolved at admission
  /// (rejected) and so have nothing to cancel.
  std::shared_ptr<sweep::CancelToken> token;
  /// The pool the job runs on; weak so a handle outliving its Service
  /// degrades cancel() to a no-op instead of dangling.
  std::weak_ptr<sweep::Pool> pool;
  /// Completion callback (at most one), armed via JobHandle::on_ready
  /// and fired exactly once, outside this mutex, on whichever thread
  /// resolves the job.
  std::function<void()> callback;
};

}  // namespace detail

/// Future-style result of a submitted job. Handles are cheap shared
/// references: copy them, stash them, wait from any thread. wait()
/// blocks until the job retires; the returned reference stays valid
/// for the handle's lifetime. JobResult is the one result type: the
/// template parameter survives only as the spelling
/// JobHandle<JobResult>.
template <typename T>
class JobHandle {
  static_assert(std::is_same_v<T, JobResult>,
                "a JobHandle carries the job's JobResult");

 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] JobId id() const { return state_ ? state_->id : 0; }

  /// True once the job has retired (never blocks).
  [[nodiscard]] bool ready() const {
    if (!state_) return false;
    const std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->done;
  }

  /// Request cooperative cancellation: queued cells are skipped at
  /// their next claim, running cells observe the token at their next
  /// task boundary, and the job resolves (deterministically, payload-
  /// free) as kCancelled -- unless it completed or failed first.
  /// Returns false when there was nothing left to cancel: the job
  /// already finalized, never reached the pool, or the Service is
  /// gone. Always non-blocking; wait() still resolves exactly once.
  bool cancel() const {
    if (!state_) return false;
    if (const auto pool = state_->pool.lock()) {
      return pool->cancel(state_->id);
    }
    return false;
  }

  /// True once cooperative cancellation has been requested for the job
  /// -- by cancel(), a deadline, a fault plan, or shutdown's drain
  /// deadline -- whether or not the job has resolved yet. Lets callers
  /// (and tests) observe the request before the affected items retire.
  [[nodiscard]] bool cancel_requested() const {
    return state_ && state_->token && state_->token->cancelled();
  }

  /// Arm a completion callback: `fn` runs exactly once, after the job
  /// resolves (the result is readable from inside it), on whichever
  /// thread resolved the job -- or synchronously right here when it
  /// already resolved (rejected-at-admission handles land this way).
  /// One callback per job; arming again replaces an unfired callback.
  /// `fn` must not block -- the net layer uses it to nudge an event
  /// loop, nothing more.
  void on_ready(std::function<void()> fn) const {
    APCC_CHECK(state_ != nullptr, "on_ready() on an empty JobHandle");
    {
      const std::lock_guard<std::mutex> lock(state_->mutex);
      if (!state_->done) {
        state_->callback = std::move(fn);
        return;
      }
    }
    fn();
  }

  /// Block until the job retires and return its result; a failed job
  /// (kError) rethrows its first failure. Rejected / cancelled /
  /// deadline-exceeded are ordinary payload-free results. May be called
  /// repeatedly and from several threads.
  const JobResult& wait() const {
    APCC_CHECK(state_ != nullptr, "wait() on an empty JobHandle");
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (state_->failure) std::rethrow_exception(state_->failure);
    return state_->value;
  }

 private:
  friend class Service;

  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Drains every in-flight job (their handles all become ready), then
  /// stops the pool.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Take ownership of a workload; the id names it in later jobs.
  /// Registration is cheap -- no artifact is built until a job needs
  /// it -- and safe while jobs are in flight. JobSpecs may reference
  /// the workload as "@<id>" or by its name (first registration of a
  /// name wins for name lookups).
  WorkloadId register_workload(workloads::Workload workload);

  [[nodiscard]] std::size_t workload_count() const;
  [[nodiscard]] const workloads::Workload& workload(WorkloadId id) const;

  /// Resolve a JobSpec workload reference ("@<id>" or a registered
  /// name); throws CheckError for unknown references.
  [[nodiscard]] WorkloadId resolve(const std::string& ref) const;

  /// The front door: validate `spec`, resolve its workload references,
  /// and enqueue it under its QoS (priority class, worker budget).
  /// Returns immediately; errors in the spec throw synchronously.
  [[nodiscard]] JobHandle<JobResult> submit(JobSpec spec);

  /// Block until every job submitted so far has retired.
  void drain();

  /// Orderly teardown, distinct from the destructor: stop admitting
  /// (later submits resolve as rejected), let in-flight jobs finish,
  /// and fail still-queued (unstarted) jobs as cancelled. With a
  /// drain_deadline, jobs still running when it elapses are cancelled
  /// cooperatively and the call blocks until every handle resolved --
  /// shutdown never abandons a handle. Idempotent; the destructor
  /// calls shutdown(std::nullopt) if nobody did.
  void shutdown(std::optional<std::chrono::milliseconds> drain_deadline =
                    std::nullopt);

  /// Artifact-cache observability (tests pin dedup, reuse, and
  /// eviction on these; counters are cumulative since construction).
  /// One serving::ArtifactStats per artifact kind -- see cache.hpp for
  /// the counter semantics (built/borrows vs hits/misses/rebuilds vs
  /// evictions/evicted_bytes, resident bytes/entries).
  using CacheStats = serving::CacheStats;
  [[nodiscard]] CacheStats cache_stats() const;

  [[nodiscard]] unsigned workers() const;

  /// The geometry slot of a registered workload at predecompress_k, if
  /// an admitted job needs it. Exposed for tests and diagnostics: ready(),
  /// pins(), and builder() -- which thread materialized it (pinned off
  /// the submitting thread).
  [[nodiscard]] const ArtifactSlot* frontier_slot(
      WorkloadId id, unsigned predecompress_k) const;

 private:
  struct Registered;

  /// RAII record of one grid cell's borrowed artifacts. Every borrow
  /// (and every publish -- the builder borrows what it built) pins the
  /// artifact's slot; the lease unpins at destruction, which the item
  /// function arranges to happen only after the cell's engine run
  /// finished. While a lease is live its artifacts are never eviction
  /// victims, so engines hold plain references with no locking --
  /// exactly the pre-budget borrowing contract. Movable (a chunk's cells
  /// collect their leases into a vector that outlives the BatchEngine
  /// run), not copyable (a pin has one owner).
  class CellLease {
   public:
    CellLease() = default;
    CellLease(CellLease&& other) noexcept;
    CellLease& operator=(CellLease&& other) noexcept;
    CellLease(const CellLease&) = delete;
    CellLease& operator=(const CellLease&) = delete;
    ~CellLease();

    /// Drop the borrows now (idempotent; the destructor calls it).
    void release();

   private:
    friend class Service;
    /// Take over one pin acquire() just placed on `slot`.
    void hold(ArtifactSlot& slot);
    /// A cell borrows one image, and one geometry if it plans.
    std::array<ArtifactSlot*, 2> slots_{};
  };

  /// Resolve (build-or-borrow) the image / geometry artifact for a cell
  /// of the job whose cancel token is `token` (may be null): resolve()
  /// the slot with the kind's build.
  const runtime::BlockImage& image_for(Registered& entry,
                                       compress::CodecKind codec,
                                       const sweep::CancelToken* token,
                                       CellLease& lease);
  const runtime::FrontierCache& frontiers_for(Registered& entry, unsigned k,
                                              const sweep::CancelToken* token,
                                              CellLease& lease);

  /// The one resolve path: acquire `slot` for one cell (building the
  /// artifact when this call claims it), hand the pin to `lease`, and
  /// count the outcome into `stats`. A publish records the artifact's
  /// bytes and `rebuild_cost` in the ledger and runs the eviction pass.
  /// A claim that rolls back still counts its miss before the exception
  /// propagates.
  const Artifact& resolve(ArtifactSlot& slot, ArtifactStats& stats,
                          std::uint64_t rebuild_cost,
                          const sweep::CancelToken* token, CellLease& lease,
                          const std::function<Artifact()>& build);

  /// The publish-time eviction pass (call with mutex_ held): snapshot
  /// every resident artifact into a cache.hpp CacheEntry view, in
  /// registry order, images before geometry, each by key; run
  /// plan_evictions once against the budget's total_bytes (0 under the
  /// fault plan's evict_at_publish flush); and evict the victims. A
  /// victim re-checks ready/unpinned under its slot's own lock, so a
  /// borrow that raced the snapshot simply exempts its artifact this
  /// pass (budgets are pressure, not guarantees).
  void evict_over_budget_locked();

  /// The per-item prologue: polls the job token (false = the item must
  /// return without doing work) and evaluates the fault plan's task-
  /// boundary schedule (which may throw the injected failure).
  bool task_boundary(detail::JobState& state);

  Registered& entry(WorkloadId id);

  mutable std::mutex mutex_;  // registry + slot maps + ledger + stats
  std::vector<std::unique_ptr<Registered>> registry_;
  CacheStats stats_;
  /// Admission numbers, one per admitted job: the ledger's clock.
  /// Admission stamps the last_use of every slot the job will borrow
  /// with its number, before any of its cells runs, so recency is a
  /// function of the job sequence -- never of which pool worker reached
  /// a slot first, nor of wall time.
  std::uint64_t admitted_ = 0;
  /// Successful publishes (images + geometry), the fault plan's
  /// evict_at_publish ordinal.
  std::size_t publish_count_ = 0;

  // -- admission / lifecycle (guarded by mutex_) ----------------------
  const ServiceLimits limits_;
  /// Fair-share weights by client tag (immutable deployment policy;
  /// absent tags weigh 1).
  const std::map<std::string, unsigned> client_weights_;
  const CacheBudget budget_;
  const std::shared_ptr<const FaultPlan> faults_;
  bool accepting_ = true;
  std::size_t live_jobs_ = 0;
  std::map<std::string, std::size_t> live_per_client_;
  /// States of admitted-but-not-finalized jobs, keyed by state address
  /// (ids are not assigned yet at insertion). shutdown() walks this to
  /// cancel still-queued work.
  std::map<const detail::JobState*, std::shared_ptr<detail::JobState>>
      live_states_;

  // -- fault-plan progress (count-based schedules) --------------------
  std::atomic<std::size_t> fault_boundaries_{0};
  std::atomic<std::size_t> fault_builds_{0};

  // Declared last: the pool's destructor drains worker threads that
  // touch the members above, so it must die first. shared_ptr so job
  // states can hold a weak reference for JobHandle::cancel().
  std::shared_ptr<sweep::Pool> pool_;
};

}  // namespace apcc::serving
