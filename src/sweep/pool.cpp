#include "sweep/pool.hpp"

#include <algorithm>

namespace apcc::sweep {

Pool::Pool(unsigned workers) {
  const unsigned count = std::max(1u, workers);
  threads_.reserve(count);
  for (unsigned w = 0; w < count; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Pool::~Pool() { stop(); }

std::shared_ptr<Pool::Job> Pool::claimable_locked() {
  // queue_ is in submission (= ascending id) order, so within an equal
  // (class, account vtime, tag) the first hit is the lowest id -- the
  // deterministic final tie-break. A cancelled job's remaining items
  // are skipped without running, so the worker budget does not apply
  // to them (holding them back would only delay the finalize).
  std::shared_ptr<Job> best;
  std::uint64_t best_vtime = 0;
  for (const auto& job : queue_) {
    if (job->next >= job->total) continue;
    if (!job->cancelled && job->max_workers != 0 &&
        job->running >= job->max_workers) {
      continue;
    }
    if (!best || job->priority < best->priority) {
      best = job;
      best_vtime = share_locked(job->client).vtime;
      continue;
    }
    if (job->priority != best->priority) continue;
    // Same class: the least-served account goes first, so a heavy
    // tenant's backlog cannot starve a light one queued behind it.
    const std::uint64_t vtime = share_locked(job->client).vtime;
    if (vtime < best_vtime ||
        (vtime == best_vtime && job->client < best->client)) {
      best = job;
      best_vtime = vtime;
    }
  }
  return best;
}

Pool::ClientShare& Pool::share_locked(const std::string& tag) {
  const auto it = shares_.find(tag);
  if (it != shares_.end()) return it->second;
  // Aging: a new (or returning) tag enters at the minimum vtime among
  // live accounts, so it shares from now on instead of replaying the
  // credit it banked while absent and monopolizing the pool.
  std::uint64_t baseline = 0;
  bool any = false;
  for (const auto& entry : shares_) {
    if (!any || entry.second.vtime < baseline) baseline = entry.second.vtime;
    any = true;
  }
  ClientShare share;
  share.vtime = baseline;
  return shares_.emplace(tag, share).first->second;
}

void Pool::charge_locked(const Job& job) {
  share_locked(job.client).vtime += kVtimeUnit / std::max(1u, job.weight);
}

void Pool::release_locked(const Job& job) {
  const auto it = shares_.find(job.client);
  if (it == shares_.end()) return;
  if (it->second.live > 0) --it->second.live;
  if (it->second.live == 0) shares_.erase(it);
}

void Pool::cancel_locked(Job& job, CancelCause cause) {
  if (job.cancelled) return;
  job.cancelled = true;
  job.cause = cause;
  // Running items observe the request at their next task boundary;
  // items that never poll simply finish.
  if (job.token) job.token->request();
  // Skipping bypasses the worker budget, so budget-gated idle workers
  // can help drain the cancelled tail.
  work_cv_.notify_all();
}

std::shared_ptr<Pool::Job> Pool::find_locked(JobId id) {
  for (const auto& job : queue_) {
    if (job->id == id) return job;
  }
  return nullptr;
}

FinalizeInfo Pool::finalize_info(const Job& job) {
  // Failure wins: the first thrown exception is the job's outcome even
  // when a cancel or deadline raced it -- callers must not lose the
  // error. Otherwise the first-observed cancel cause is reported.
  if (job.failure) return {JobOutcome::kFailed, job.failure};
  switch (job.cause) {
    case CancelCause::kCancel: return {JobOutcome::kCancelled, nullptr};
    case CancelCause::kDeadline:
      return {JobOutcome::kDeadlineExceeded, nullptr};
    case CancelCause::kNone:
    case CancelCause::kFailure: break;
  }
  return {JobOutcome::kCompleted, nullptr};
}

void Pool::retire_locked() {
  ++finalized_;
  finished_cv_.notify_all();
}

Pool::JobId Pool::submit(std::size_t total, ItemFn item, FinalizeFn finalize,
                         SubmitOptions options) {
  std::shared_ptr<Job> job = std::make_shared<Job>();
  job->total = total;
  job->item = std::move(item);
  job->finalize = std::move(finalize);
  job->priority = options.priority;
  job->max_workers = options.max_workers;
  job->client = std::move(options.client);
  job->weight = options.weight;
  job->token = std::move(options.cancel);
  job->deadline = options.deadline;
  bool dead = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job->id = next_id_++;
    dead = stopping_;
    if (!dead && total > 0) {
      queue_.push_back(job);
      ++share_locked(job->client).live;
    }
  }
  if (dead) {
    // The pool is stopping or stopped: never enqueue, but never stall
    // or drop the finalize either -- the job resolves as cancelled on
    // the calling thread, exactly once.
    if (job->token) job->token->request();
    if (job->finalize) job->finalize({JobOutcome::kCancelled, nullptr});
    const std::lock_guard<std::mutex> lock(mutex_);
    retire_locked();
    return job->id;
  }
  if (total == 0) {
    // Nothing to schedule: finalize synchronously (callers get a handle
    // that is already ready) and retire the job.
    if (job->finalize) job->finalize({JobOutcome::kCompleted, nullptr});
    const std::lock_guard<std::mutex> lock(mutex_);
    retire_locked();
    return job->id;
  }
  work_cv_.notify_all();
  return job->id;
}

void Pool::finalize_unstarted_locked(std::unique_lock<std::mutex>& lock,
                                     const std::shared_ptr<Job>& job) {
  if (job->next != 0 || job->running != 0 || job->done != 0) return;
  // No item was ever claimed: resolve the job right here on the
  // cancelling thread instead of waking a worker to skip through its
  // items -- cancelling *queued* work is immediate even when every
  // worker is busy (the property shutdown's still-queued policy needs).
  job->next = job->total;
  job->done = job->total;
  queue_.erase(std::find(queue_.begin(), queue_.end(), job));
  release_locked(*job);
  const FinalizeFn finalize = std::move(job->finalize);
  const FinalizeInfo info = finalize_info(*job);
  lock.unlock();
  if (finalize) finalize(info);
  lock.lock();
  retire_locked();
  work_cv_.notify_all();
}

bool Pool::cancel(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::shared_ptr<Job> job = find_locked(id);
  if (!job) return false;  // already finalized (or never issued)
  cancel_locked(*job, CancelCause::kCancel);
  finalize_unstarted_locked(lock, job);
  return true;
}

bool Pool::cancel_if_unstarted(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::shared_ptr<Job> job = find_locked(id);
  if (!job || job->next > 0) return false;
  cancel_locked(*job, CancelCause::kCancel);
  finalize_unstarted_locked(lock, job);
  return true;
}

void Pool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const std::shared_ptr<Job> job = claimable_locked();
    if (!job) {
      if (stopping_ && queue_.empty()) return;
      work_cv_.wait(lock);
      continue;
    }

    // Dispatch-time lifecycle checks, cheapest first. A job with no
    // deadline never reads the clock; a job with no token never loads
    // the atomic.
    if (!job->cancelled) {
      if (job->token && job->token->cancelled()) {
        // An item (or the submitter) requested the token directly --
        // honour it as an explicit cancel.
        cancel_locked(*job, CancelCause::kCancel);
      } else if (job->deadline &&
                 std::chrono::steady_clock::now() >= *job->deadline) {
        cancel_locked(*job, CancelCause::kDeadline);
      }
    }

    const std::size_t index = job->next++;
    const bool skip = job->cancelled;
    if (!skip) {
      ++job->running;
      // Skipped items cost nothing: a cancelled backlog should not
      // penalize its tenant's future share.
      charge_locked(*job);
    }
    lock.unlock();

    std::exception_ptr error;
    if (!skip) {
      try {
        job->item(index);
      } catch (...) {
        error = std::current_exception();
      }
    }

    lock.lock();
    if (!skip) {
      --job->running;
      // An item may have requested the token itself (self-cancel);
      // observe it here too, or a request made by the job's *last*
      // item would never be seen by a claim.
      if (!job->cancelled && job->token && job->token->cancelled()) {
        cancel_locked(*job, CancelCause::kCancel);
      }
      // Freeing a budget slot can make this job claimable again for a
      // worker that went idle on the budget gate.
      if (job->max_workers != 0 && job->next < job->total) {
        work_cv_.notify_all();
      }
    }
    if (error) {
      if (!job->failure) job->failure = error;
      // Remaining unclaimed (not yet started) items of *this* job are
      // skipped -- whichever priority class queued behind them; their
      // results would be discarded anyway. Other jobs are unaffected.
      cancel_locked(*job, CancelCause::kFailure);
    }
    ++job->done;
    if (job->done == job->total) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), job));
      release_locked(*job);
      const FinalizeFn finalize = std::move(job->finalize);
      const FinalizeInfo info = finalize_info(*job);
      lock.unlock();
      if (finalize) finalize(info);
      lock.lock();
      retire_locked();
      // A retiring job can be what a stopping pool's idle workers were
      // waiting on.
      work_cv_.notify_all();
    }
  }
}

void Pool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  finished_cv_.wait(lock, [&] { return finalized_ == next_id_ - 1; });
}

bool Pool::drain_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return finished_cv_.wait_for(lock, timeout,
                               [&] { return finalized_ == next_id_ - 1; });
}

void Pool::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    // Workers finish every queued job, then exit once the queue is empty.
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
}

}  // namespace apcc::sweep
