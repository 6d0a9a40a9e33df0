// The resident worker pool under serving::Service.
//
// Every parallel grid in this codebase reduces to the same shape: a
// job of N independent work items identified by a flat index, claimed
// off a shared counter by a fixed set of worker threads. Pool keeps
// that loop *resident* -- one pool owned by a long-lived Service, with
// several jobs (grids, campaigns) in flight at once:
//
//  * submit() enqueues a job (total item count + per-item callback +
//    finalize callback, plus optional QoS: a priority class and a
//    per-job worker budget) and returns a JobId immediately; work items
//    carry (job, index) so the scheduler can interleave jobs.
//  * Scheduling is by strict priority class (high > normal > batch)
//    with cross-job overflow: workers claim items from the
//    highest-class job that still has unclaimed items, so job A's long
//    tail overlaps job B's head instead of the pool draining and
//    refilling per job. Priorities are strict -- a ready high-class
//    item always beats a batch item. Because every result is keyed by
//    its item index and collected order-independently, scheduling
//    affects only *when* an item runs, never what any job returns.
//  * **Within** a class the pick is weighted fair share keyed by the
//    job's client tag: every tag carries a virtual-time account,
//    each dispatched item charges its account kVtimeUnit/weight, and
//    the claimable tag with the smallest vtime goes first (ties break
//    on the lexicographically smaller tag, then the lowest job id, so
//    the claim order stays deterministic). A tag that goes idle and
//    returns is aged forward to the busiest-minus-nothing baseline --
//    max(own vtime, min active vtime) -- so it resumes sharing instead
//    of monopolizing the pool to repay its idle time. Jobs that carry
//    no tag all share the "" account, which gives exactly the
//    lowest-id-first order: the same jobs submitted untagged are the
//    reference the fairness differentials compare tagged runs against
//    (scheduling may change when an item runs -- never any result).
//  * A job's max_workers budget caps how many pool threads run its
//    items concurrently (0 = no cap). A budget-capped job yields its
//    surplus workers to lower-priority jobs instead of idling them.
//  * The first exception a job's item throws cancels that job's
//    remaining unclaimed (not-yet-started) items -- whatever priority
//    class they were queued under; other jobs are unaffected -- and is
//    handed to the job's finalize callback, which runs exactly once, on
//    a pool thread, after the job's last item retires.
//
// Three lifecycle controls extend the same claim loop, all of which
// change only *whether* an item runs, never what a run item computes:
//
//  * **Cancellation** is cooperative and two-speed. cancel(id) marks
//    the job so every still-unclaimed item is skipped at claim time
//    (immediate), and requests the job's CancelToken so items already
//    on a worker can bail at their next task boundary (the token is
//    shared with the submitter via SubmitOptions::cancel; items that
//    ignore it simply run to completion). A job may also be cancelled
//    from inside one of its own items by requesting the token -- the
//    claim loop observes the token before dispatching each item.
//  * **Deadlines** are enforced at dispatch: the first claim attempted
//    at or after SubmitOptions::deadline cancels the job with outcome
//    kDeadlineExceeded. Items already running are not interrupted
//    (their token is requested, so boundary-checking items stop
//    early). A job with no deadline never reads the clock.
//  * **stop()** is the explicit teardown path, the destructor's drain
//    made callable early: it finishes every queued job, then joins the
//    workers. After stop() returns, submit() still hands out ids but
//    finalizes the job immediately as cancelled -- callers get a
//    resolved handle, never a stall. (Service::shutdown cancels
//    still-queued jobs itself before it stops the pool.)
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "support/names.hpp"

namespace apcc::sweep {

/// Strict scheduling classes for pool jobs. Lower value = more urgent;
/// a claimable item of a higher class always runs before a lower one
/// (no aging), ties broken by lowest job id.
enum class Priority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kBatch = 2,
};

inline constexpr NamedValue<Priority> kPriorityNames[] = {
    {Priority::kHigh, "high"},
    {Priority::kNormal, "normal"},
    {Priority::kBatch, "batch"},
};

[[nodiscard]] inline const char* priority_name(Priority p) {
  return name_of(kPriorityNames, p);
}

/// Why a job finalized. Failure wins over cancellation (the first
/// thrown exception is the job's outcome even if a cancel raced it);
/// deadline and explicit cancel report whichever was observed first.
enum class JobOutcome : std::uint8_t {
  kCompleted,
  kFailed,
  kCancelled,
  kDeadlineExceeded,
};

/// What a finalize callback learns about its job.
struct FinalizeInfo {
  JobOutcome outcome = JobOutcome::kCompleted;
  /// The first exception any item threw; set iff outcome == kFailed.
  std::exception_ptr failure;
};

/// Cooperative cancellation flag shared between a job's submitter, the
/// pool's claim loop, and the job's running items. request() is
/// idempotent and thread-safe; items poll cancelled() at their task
/// boundaries and return early once it flips.
class CancelToken {
 public:
  [[nodiscard]] bool cancelled() const {
    return flag_.load(std::memory_order_relaxed);
  }
  void request() { flag_.store(true, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Per-job QoS and lifecycle knobs for Pool::submit().
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Max pool threads running this job's items concurrently; 0 = no
  /// cap. Affects scheduling only, never outcomes.
  unsigned max_workers = 0;
  /// Fair-share account this job's items are charged to (the empty tag
  /// is a real account -- the one untagged jobs share). Affects only
  /// the within-class claim order, never outcomes.
  std::string client;
  /// Fair-share weight of this job's items: an item costs
  /// kVtimeUnit/weight virtual time, so a weight-2 client sustains
  /// twice the items of a weight-1 client under contention. 0 is
  /// treated as 1.
  unsigned weight = 1;
  /// Cooperative cancellation token. Optional: when null the job can
  /// still be cancelled via Pool::cancel(), but running items have no
  /// flag to poll. The pool also *reads* the token at every claim, so
  /// an item can cancel its own job by requesting it.
  std::shared_ptr<CancelToken> cancel;
  /// Enforced at dispatch: the first item claim at or after this
  /// instant cancels the job with outcome kDeadlineExceeded. nullopt =
  /// no deadline (the claim loop never reads the clock).
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

class Pool {
 public:
  using JobId = std::uint64_t;

  /// One dispatched item's virtual-time cost at weight 1 (divided by
  /// the job's weight when charged). Large enough that integer
  /// division keeps weights 1..kVtimeUnit distinguishable.
  static constexpr std::uint64_t kVtimeUnit = 1u << 20;

  /// Item callback: called once per index in [0, total), possibly
  /// concurrently from several pool threads.
  using ItemFn = std::function<void(std::size_t)>;
  /// Finalize callback: called exactly once per job, from a pool
  /// thread, after every item has retired (run or skipped). The info
  /// says how the job ended and carries the first item failure.
  using FinalizeFn = std::function<void(const FinalizeInfo&)>;

  /// Spin up `workers` resident threads (clamped to at least 1).
  explicit Pool(unsigned workers);

  /// Equivalent to stop(): drains every submitted job (finalizers
  /// included), then joins.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueue a job and return its id without running anything on the
  /// calling thread. A job with total == 0 is finalized immediately
  /// (synchronously, with outcome kCompleted). After stop() the job is
  /// instead finalized immediately as kCancelled -- submit() never
  /// blocks and never loses a finalize.
  JobId submit(std::size_t total, ItemFn item, FinalizeFn finalize,
               SubmitOptions options = {});

  /// Cancel a job: every still-unclaimed item is skipped, the job's
  /// token (if any) is requested so running items can stop at their
  /// next boundary, and the job finalizes with outcome kCancelled once
  /// in-flight items retire. Returns false when the job has already
  /// finalized (or was never issued) -- cancelling twice is a no-op.
  bool cancel(JobId id);

  /// cancel(id), but only if no item of the job has been claimed yet
  /// -- the "still queued" half of a graceful shutdown. Returns true
  /// iff the job was live and unstarted (and is now cancelled).
  bool cancel_if_unstarted(JobId id);

  /// Block until every job submitted so far has finalized.
  void drain();

  /// drain() with a timeout; true when everything finalized in time.
  bool drain_for(std::chrono::milliseconds timeout);

  /// Explicit teardown: refuse-and-finalize future submits, finish
  /// every queued job (finalizers included), join the workers.
  /// Idempotent; the second call (and the destructor afterwards) is a
  /// cheap no-op.
  void stop();

 private:
  /// Why a job stopped claiming items; kFailure wins for the outcome.
  enum class CancelCause : std::uint8_t { kNone, kFailure, kCancel,
                                          kDeadline };

  struct Job {
    JobId id = 0;
    std::size_t total = 0;
    ItemFn item;
    FinalizeFn finalize;
    Priority priority = Priority::kNormal;
    unsigned max_workers = 0;  // 0 = unbudgeted
    std::string client;        // fair-share account (the empty tag is one)
    unsigned weight = 1;       // item cost = kVtimeUnit / weight
    std::shared_ptr<CancelToken> token;  // may be null
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::size_t next = 0;     // next unclaimed index (guarded by mutex_)
    std::size_t done = 0;     // retired items (guarded by mutex_)
    unsigned running = 0;     // items currently on a worker (mutex_)
    bool cancelled = false;   // skip remaining unclaimed items
    CancelCause cause = CancelCause::kNone;
    std::exception_ptr failure;
  };

  void worker_loop();

  /// The best claimable job among queued jobs with an unclaimed item
  /// whose worker budget has a free slot (cancelled jobs bypass the
  /// budget -- their items are skipped, not run): highest priority
  /// class first; within the class, the minimum-vtime client tag (ties
  /// to the lexicographically smaller tag), then the lowest job id.
  /// nullptr when nothing is claimable.
  [[nodiscard]] std::shared_ptr<Job> claimable_locked();

  /// Per-tag fair-share account. `live` counts queued (not yet
  /// retired) jobs under the tag; the account is erased when it drops
  /// to zero, so a returning tag re-enters at the active baseline (the
  /// aging rule) instead of replaying banked idle time.
  struct ClientShare {
    std::uint64_t vtime = 0;
    std::size_t live = 0;
  };

  /// The account for `tag`, created at the aging baseline
  /// (max of 0 and the minimum vtime among live accounts) if absent.
  /// Caller holds mutex_.
  ClientShare& share_locked(const std::string& tag);

  /// Charge one dispatched item of `job` to its account. Caller holds
  /// mutex_.
  void charge_locked(const Job& job);

  /// Drop one live job from its account when it leaves queue_, erasing
  /// the account at zero so a returning tag re-enters at the aging
  /// baseline. Caller holds mutex_.
  void release_locked(const Job& job);

  /// Mark a job cancelled (first cause wins), request its token, and
  /// wake budget-gated workers to drain the skipped tail. Caller holds
  /// mutex_. No-op on an already-cancelled job.
  void cancel_locked(Job& job, CancelCause cause);

  /// The live job with this id, or nullptr. Caller holds mutex_.
  [[nodiscard]] std::shared_ptr<Job> find_locked(JobId id);

  /// If no item of `job` was ever claimed, finalize and retire it on
  /// the calling thread (briefly dropping `lock` for the finalizer) --
  /// cancelling queued work resolves immediately, without a worker.
  void finalize_unstarted_locked(std::unique_lock<std::mutex>& lock,
                                 const std::shared_ptr<Job>& job);

  /// What finalize should report for a retiring job. Caller holds
  /// mutex_ (reads cause/failure).
  [[nodiscard]] static FinalizeInfo finalize_info(const Job& job);

  /// Count one finalized job and wake drain() waiters. Caller holds
  /// mutex_.
  void retire_locked();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;      // workers: new work or shutdown
  std::condition_variable finished_cv_;  // waiters: some job finalized
  std::deque<std::shared_ptr<Job>> queue_;  // submitted, not yet retired
  /// Fair-share accounts of tags with live jobs (guarded by mutex_).
  std::map<std::string, ClientShare> shares_;
  JobId next_id_ = 1;
  std::size_t finalized_ = 0;  // jobs whose finalize has run
  bool stopping_ = false;
  bool stopped_ = false;  // workers joined; submit() cancels instantly
  std::vector<std::thread> threads_;
};

}  // namespace apcc::sweep
