// Resident Pool semantics: job ids, cross-job scheduling, failure
// cancellation scoped to one job, drain, the zero-item fast path, the
// QoS scheduler -- strict priority classes with the lowest-id
// tie-break, per-job worker budgets, and cancellation of
// queued-but-unstarted items across priority classes -- and the
// robustness surface: cooperative cancellation (queued skip + token
// signalling + self-cancel), dispatch-time deadlines, failure-wins
// outcome precedence, stop(), and submit-after-stop. (Service
// equivalence is pinned by the sweep and serving differential tests;
// these cover the pool directly. The TSan CI job runs this binary.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/pool.hpp"

namespace apcc::sweep {
namespace {

/// SubmitOptions carrying just the QoS fields the scheduling tests vary.
SubmitOptions qos(Priority priority, unsigned max_workers) {
  SubmitOptions options;
  options.priority = priority;
  options.max_workers = max_workers;
  return options;
}

TEST(Pool, RunsEveryIndexExactlyOnce) {
  Pool pool(4);
  std::mutex mutex;
  std::multiset<std::size_t> seen;
  pool.submit(
      100,
      [&](std::size_t i) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen.insert(i);
      },
      nullptr);
  pool.drain();
  ASSERT_EQ(seen.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(Pool, JobIdsAreUniqueAndFinalizeRunsOnce) {
  Pool pool(2);
  std::atomic<int> finalized{0};
  const auto a = pool.submit(3, [](std::size_t) {},
                             [&](const FinalizeInfo&) { ++finalized; });
  const auto b = pool.submit(3, [](std::size_t) {},
                             [&](const FinalizeInfo&) { ++finalized; });
  EXPECT_NE(a, b);
  pool.drain();
  EXPECT_EQ(finalized.load(), 2);
}

TEST(Pool, SeveralJobsInFlightAllComplete) {
  Pool pool(3);
  std::atomic<std::size_t> items{0};
  for (int j = 0; j < 5; ++j) {
    pool.submit(20, [&](std::size_t) { ++items; }, nullptr);
  }
  pool.drain();
  EXPECT_EQ(items.load(), 100u);
}

TEST(Pool, FailureCancelsOnlyTheFailingJob) {
  Pool pool(2);
  std::atomic<std::size_t> poisoned_ran{0};
  std::atomic<std::size_t> healthy_ran{0};
  FinalizeInfo poisoned_info;
  FinalizeInfo healthy_info;
  pool.submit(
      50,
      [&](std::size_t i) {
        if (i == 0) throw std::runtime_error("boom");
        ++poisoned_ran;
      },
      [&](const FinalizeInfo& info) { poisoned_info = info; });
  pool.submit(
      50, [&](std::size_t) { ++healthy_ran; },
      [&](const FinalizeInfo& info) { healthy_info = info; });
  pool.drain();
  EXPECT_EQ(poisoned_info.outcome, JobOutcome::kFailed);
  ASSERT_TRUE(poisoned_info.failure != nullptr);
  EXPECT_THROW(std::rethrow_exception(poisoned_info.failure),
               std::runtime_error);
  EXPECT_EQ(healthy_info.outcome, JobOutcome::kCompleted);
  EXPECT_TRUE(healthy_info.failure == nullptr);
  EXPECT_EQ(healthy_ran.load(), 50u);  // unaffected by the other job
  EXPECT_LT(poisoned_ran.load(), 50u);  // tail skipped after the throw
}

TEST(Pool, ZeroItemJobFinalizesImmediately) {
  Pool pool(1);
  bool finalized = false;
  pool.submit(0, nullptr, [&](const FinalizeInfo& info) {
    EXPECT_EQ(info.outcome, JobOutcome::kCompleted);
    EXPECT_TRUE(info.failure == nullptr);
    finalized = true;
  });
  EXPECT_TRUE(finalized);  // synchronous, no pool round trip
  pool.drain();  // and drain() returns at once
}

TEST(Pool, DestructorDrainsOutstandingJobs) {
  std::atomic<std::size_t> ran{0};
  {
    Pool pool(2);
    pool.submit(64, [&](std::size_t) { ++ran; }, nullptr);
  }
  EXPECT_EQ(ran.load(), 64u);
}

/// Parks pool workers until release(), so tests can queue jobs while
/// nothing can start -- the deterministic setup for scheduling tests.
/// await_arrivals() lets the test be sure the workers really are
/// parked (claims already made) before it submits anything else.
class Gate {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void await_arrivals(unsigned n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  unsigned arrived_ = 0;
  bool open_ = false;
};

TEST(Pool, PriorityName) {
  EXPECT_STREQ(priority_name(Priority::kHigh), "high");
  EXPECT_STREQ(priority_name(Priority::kNormal), "normal");
  EXPECT_STREQ(priority_name(Priority::kBatch), "batch");
}

TEST(Pool, StrictPriorityClaimsHighestClassLowestIdFirst) {
  // One worker, parked behind a gate while four jobs queue up: a batch
  // job, a normal job, and two high jobs. Released, the single worker
  // must drain them in strict class order -- and within the high class
  // in submission (= lowest job id) order.
  Pool pool(1);
  Gate gate;
  pool.submit(1, [&](std::size_t) { gate.wait(); }, nullptr);
  gate.await_arrivals(1);

  std::mutex mutex;
  std::vector<char> order;
  const auto recorder = [&](char tag) {
    return [&, tag](std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(tag);
    };
  };
  pool.submit(2, recorder('a'), nullptr, qos(Priority::kBatch, 0));
  pool.submit(2, recorder('b'), nullptr, qos(Priority::kNormal, 0));
  pool.submit(2, recorder('c'), nullptr, qos(Priority::kHigh, 0));
  pool.submit(2, recorder('d'), nullptr, qos(Priority::kHigh, 0));
  gate.release();
  pool.drain();
  EXPECT_EQ((std::vector<char>{'c', 'c', 'd', 'd', 'b', 'b', 'a', 'a'}),
            order);
}

TEST(Pool, WorkerBudgetCapsConcurrencyAndFreesSlots) {
  Pool pool(4);
  std::atomic<unsigned> running{0};
  std::atomic<unsigned> peak{0};
  std::atomic<std::size_t> other_ran{0};
  pool.submit(
      48,
      [&](std::size_t) {
        const unsigned now = ++running;
        unsigned seen = peak.load();
        while (seen < now && !peak.compare_exchange_weak(seen, now)) {
        }
        // A little work so items overlap when the scheduler lets them.
        volatile unsigned spin = 0;
        for (int i = 0; i < 2000; ++i) spin = spin + static_cast<unsigned>(i);
        --running;
      },
      nullptr, qos(Priority::kNormal, 2));
  // The surplus workers must flow to other jobs instead of idling.
  pool.submit(
      48, [&](std::size_t) { ++other_ran; }, nullptr,
      qos(Priority::kBatch, 0));
  pool.drain();
  EXPECT_LE(peak.load(), 2u);  // the budget is a hard cap
  EXPECT_EQ(other_ran.load(), 48u);
}

TEST(Pool, FailureCancelsQueuedItemsAcrossPriorityClasses) {
  // A failing high-priority job with queued-but-unstarted items must
  // cancel only its own items -- the batch-class job sharing the pool
  // runs to completion -- and leave the pool serviceable. The budget
  // of 1 makes the poison job sequential, so its item 0 throws before
  // any sibling starts: every remaining item is provably
  // queued-but-unstarted and must be skipped.
  Pool pool(2);
  Gate gate;
  pool.submit(2, [&](std::size_t) { gate.wait(); }, nullptr);
  gate.await_arrivals(2);

  std::atomic<std::size_t> poison_ran{0};
  std::atomic<std::size_t> healthy_ran{0};
  FinalizeInfo poison_info;
  FinalizeInfo healthy_info;
  pool.submit(
      40,
      [&](std::size_t i) {
        if (i == 0) throw std::runtime_error("boom");
        ++poison_ran;
      },
      [&](const FinalizeInfo& info) { poison_info = info; },
      qos(Priority::kHigh, 1));
  pool.submit(
      40, [&](std::size_t) { ++healthy_ran; },
      [&](const FinalizeInfo& info) { healthy_info = info; },
      qos(Priority::kBatch, 0));
  gate.release();
  pool.drain();
  EXPECT_EQ(poison_info.outcome, JobOutcome::kFailed);
  ASSERT_TRUE(poison_info.failure != nullptr);
  EXPECT_THROW(std::rethrow_exception(poison_info.failure),
               std::runtime_error);
  EXPECT_EQ(poison_ran.load(), 0u);    // every sibling was unstarted
  EXPECT_TRUE(healthy_info.failure == nullptr);
  EXPECT_EQ(healthy_ran.load(), 40u);  // the other class is untouched

  // Serviceable afterwards: a fresh job runs cleanly.
  std::atomic<std::size_t> after{0};
  pool.submit(
      8, [&](std::size_t) { ++after; }, nullptr, qos(Priority::kHigh, 0));
  pool.drain();
  EXPECT_EQ(after.load(), 8u);
}

TEST(Pool, CancelSkipsQueuedItemsImmediately) {
  // The only worker is parked behind the gate, so the second job is
  // provably all-queued when cancel() lands: it must finalize as
  // kCancelled on the cancelling thread, before any worker frees up,
  // and run zero items.
  Pool pool(1);
  Gate gate;
  pool.submit(1, [&](std::size_t) { gate.wait(); }, nullptr);
  gate.await_arrivals(1);

  std::atomic<std::size_t> ran{0};
  FinalizeInfo info;
  std::atomic<bool> finalized{false};
  const auto id = pool.submit(
      16, [&](std::size_t) { ++ran; },
      [&](const FinalizeInfo& i) {
        info = i;
        finalized = true;
      });
  EXPECT_TRUE(pool.cancel(id));
  EXPECT_TRUE(finalized.load());  // resolved without a worker
  EXPECT_EQ(info.outcome, JobOutcome::kCancelled);
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_FALSE(pool.cancel(id));  // second cancel is a no-op
  gate.release();
  pool.drain();
}

TEST(Pool, CancelSignalsRunningItemsViaToken) {
  // A running item polls the shared token at its "task boundary" and
  // bails once cancel() requests it; the job finalizes kCancelled and
  // the items queued behind the running one never start. One worker,
  // so item 0 is provably the only item ever dispatched.
  Pool pool(1);
  const auto token = std::make_shared<CancelToken>();
  Gate started;
  std::atomic<std::size_t> ran{0};
  FinalizeInfo info;
  SubmitOptions options;
  options.cancel = token;
  const auto id = pool.submit(
      32,
      [&](std::size_t i) {
        if (i == 0) {
          started.wait();  // parked until the cancel below has landed
          // Task boundary: poll the token, stop early once requested.
          if (token->cancelled()) return;
        }
        ++ran;
      },
      [&](const FinalizeInfo& i) { info = i; }, options);
  started.await_arrivals(1);
  EXPECT_TRUE(pool.cancel(id));
  EXPECT_TRUE(token->cancelled());  // cancel() requested the token
  started.release();
  pool.drain();
  EXPECT_EQ(info.outcome, JobOutcome::kCancelled);
  EXPECT_EQ(ran.load(), 0u);  // item 0 bailed; the tail was skipped
}

TEST(Pool, ItemCanCancelItsOwnJobThroughTheToken) {
  // Self-cancellation: an item requests the token; the claim loop (or
  // the post-item check, if this was the last claim) observes it and
  // the job finalizes kCancelled.
  Pool pool(1);
  const auto token = std::make_shared<CancelToken>();
  std::atomic<std::size_t> ran{0};
  FinalizeInfo info;
  SubmitOptions options;
  options.cancel = token;
  pool.submit(
      8,
      [&](std::size_t i) {
        ++ran;
        if (i == 2) token->request();
      },
      [&](const FinalizeInfo& i) { info = i; }, options);
  pool.drain();
  EXPECT_EQ(info.outcome, JobOutcome::kCancelled);
  EXPECT_EQ(ran.load(), 3u);  // items 0..2 ran, the rest were skipped
}

TEST(Pool, DeadlineIsEnforcedAtDispatch) {
  Pool pool(2);
  // Already expired: no item may start.
  {
    std::atomic<std::size_t> ran{0};
    FinalizeInfo info;
    SubmitOptions options;
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    pool.submit(
        8, [&](std::size_t) { ++ran; },
        [&](const FinalizeInfo& i) { info = i; }, options);
    pool.drain();
    EXPECT_EQ(info.outcome, JobOutcome::kDeadlineExceeded);
    EXPECT_EQ(ran.load(), 0u);
  }
  // Far in the future: runs to completion.
  {
    std::atomic<std::size_t> ran{0};
    FinalizeInfo info;
    SubmitOptions options;
    options.deadline = std::chrono::steady_clock::now() +
                       std::chrono::hours(1);
    pool.submit(
        8, [&](std::size_t) { ++ran; },
        [&](const FinalizeInfo& i) { info = i; }, options);
    pool.drain();
    EXPECT_EQ(info.outcome, JobOutcome::kCompleted);
    EXPECT_EQ(ran.load(), 8u);
  }
}

TEST(Pool, FailureWinsOverCancel) {
  // An item throws while a cancel() races in: the finalize must report
  // kFailed and carry the exception -- callers never lose the error.
  Pool pool(1);
  FinalizeInfo info;
  const auto id = pool.submit(
      4,
      [&](std::size_t) { throw std::runtime_error("boom"); },
      [&](const FinalizeInfo& i) { info = i; });
  pool.drain();
  pool.cancel(id);  // after finalize: a no-op, not an overwrite
  EXPECT_EQ(info.outcome, JobOutcome::kFailed);
  ASSERT_TRUE(info.failure != nullptr);
}

TEST(Pool, StopDrainFinishesQueuedJobs) {
  Pool pool(2);
  std::atomic<std::size_t> ran{0};
  FinalizeInfo info;
  pool.submit(
      24, [&](std::size_t) { ++ran; },
      [&](const FinalizeInfo& i) { info = i; });
  pool.stop();
  EXPECT_EQ(ran.load(), 24u);
  EXPECT_EQ(info.outcome, JobOutcome::kCompleted);
  pool.stop();  // idempotent
}

TEST(Pool, SubmitAfterStopFinalizesAsCancelled) {
  Pool pool(1);
  pool.stop();
  std::atomic<std::size_t> ran{0};
  FinalizeInfo info;
  bool finalized = false;
  const auto token = std::make_shared<CancelToken>();
  SubmitOptions options;
  options.cancel = token;
  pool.submit(
      8, [&](std::size_t) { ++ran; },
      [&](const FinalizeInfo& i) {
        info = i;
        finalized = true;
      },
      options);
  EXPECT_TRUE(finalized);  // synchronous: no worker left to stall on
  EXPECT_EQ(info.outcome, JobOutcome::kCancelled);
  EXPECT_TRUE(token->cancelled());
  EXPECT_EQ(ran.load(), 0u);
  pool.drain();  // the job is retired, so drain() returns at once
}

/// SubmitOptions carrying the fair-share fields the QoS tests vary.
SubmitOptions tenant(const std::string& client, unsigned weight = 1,
                     Priority priority = Priority::kNormal) {
  SubmitOptions options;
  options.priority = priority;
  options.client = client;
  options.weight = weight;
  return options;
}

TEST(Pool, FairShareAlternatesEqualWeightTenants) {
  // One worker parked while two equal-weight tenants queue six items
  // each: the virtual-time pick must strictly alternate their items
  // (ties break to the lexicographically smaller tag, so "heavy"
  // leads), instead of draining the lower job id first.
  Pool pool(1);
  Gate gate;
  pool.submit(1, [&](std::size_t) { gate.wait(); }, nullptr);
  gate.await_arrivals(1);

  std::mutex mutex;
  std::vector<char> order;
  const auto recorder = [&](char tag) {
    return [&, tag](std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(tag);
    };
  };
  pool.submit(6, recorder('h'), nullptr, tenant("heavy"));
  pool.submit(6, recorder('l'), nullptr, tenant("light"));
  gate.release();
  pool.drain();
  EXPECT_EQ((std::vector<char>{'h', 'l', 'h', 'l', 'h', 'l', 'h', 'l',
                               'h', 'l', 'h', 'l'}),
            order);
}

TEST(Pool, LightTenantIsNotStarvedByAHeavyBacklog) {
  // The acceptance scenario: one tenant has piled up three 8-item jobs
  // when a second tenant submits four items. Fair share completes the
  // light tenant's work interleaved with the backlog's head -- while
  // the same jobs submitted untagged (one shared account: lowest id
  // first) make it wait out all 24 backlog items. Same items, same
  // results, different *when*.
  for (const bool tagged : {true, false}) {
    SCOPED_TRACE(tagged ? "tagged" : "untagged reference");
    Pool pool(1);
    Gate gate;
    pool.submit(1, [&](std::size_t) { gate.wait(); }, nullptr);
    gate.await_arrivals(1);

    std::mutex mutex;
    std::vector<char> order;
    const auto recorder = [&](char tag) {
      return [&, tag](std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        order.push_back(tag);
      };
    };
    for (int j = 0; j < 3; ++j) {
      pool.submit(8, recorder('h'), nullptr, tenant(tagged ? "heavy" : ""));
    }
    pool.submit(4, recorder('l'), nullptr, tenant(tagged ? "light" : ""));
    gate.release();
    pool.drain();
    ASSERT_EQ(order.size(), 28u);
    const auto last_light =
        std::find(order.rbegin(), order.rend(), 'l');
    const auto last_index = static_cast<std::size_t>(
        order.rend() - last_light - 1);
    if (tagged) {
      // Strict alternation until the light tenant is done: its last
      // item is the 8th dispatch, nowhere near the backlog's tail.
      EXPECT_EQ(last_index, 7u);
      for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i], (i % 2 == 0) ? 'h' : 'l') << "position " << i;
      }
    } else {
      // The reference: light was submitted last, so it runs last.
      EXPECT_EQ(last_index, 27u);
      EXPECT_EQ(order[23], 'h');
      EXPECT_EQ(order[24], 'l');
    }
  }
}

TEST(Pool, WeightsSkewDispatchInProportion) {
  // Weight 3 vs weight 1: the heavy-weighted tenant's items cost a
  // third of the virtual time, so it sustains three dispatches per one
  // of the other tenant's under contention -- 6 of the first 8 -- and
  // the light-weighted tenant still finishes (weights shift share,
  // they never starve).
  Pool pool(1);
  Gate gate;
  pool.submit(1, [&](std::size_t) { gate.wait(); }, nullptr);
  gate.await_arrivals(1);

  std::mutex mutex;
  std::vector<char> order;
  const auto recorder = [&](char tag) {
    return [&, tag](std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(tag);
    };
  };
  pool.submit(12, recorder('b'), nullptr, tenant("big", 3));
  pool.submit(12, recorder('s'), nullptr, tenant("small", 1));
  gate.release();
  pool.drain();
  ASSERT_EQ(order.size(), 24u);
  EXPECT_EQ(std::count(order.begin(), order.begin() + 8, 'b'), 6);
  EXPECT_EQ(order.back(), 's');  // big exhausted first, small completed
}

TEST(Pool, ReturningTenantResumesAtTheActiveBaseline) {
  // The aging rule: a tenant that joins while another has been running
  // enters at the active minimum virtual time -- it shares from now on
  // instead of monopolizing the worker to repay the time it was absent.
  Pool pool(1);
  Gate midway;
  std::mutex mutex;
  std::vector<char> order;
  pool.submit(
      8,
      [&](std::size_t i) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          order.push_back('b');
        }
        if (i == 4) midway.wait();  // five items charged, then park
      },
      nullptr, tenant("busy"));
  midway.await_arrivals(1);
  pool.submit(
      2,
      [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        order.push_back('i');
      },
      nullptr, tenant("idle"));
  midway.release();
  pool.drain();
  // Tie at the baseline goes to "busy" (smaller tag), then the two
  // tenants alternate: the newcomer does NOT run both items first,
  // which is what a zero-entry (no aging) account would do.
  EXPECT_EQ((std::vector<char>{'b', 'b', 'b', 'b', 'b', 'b', 'i', 'b',
                               'i', 'b'}),
            order);
}

TEST(Pool, UntaggedJobsKeepLowestIdOrderUnderFairShare) {
  // Tag-less jobs all share the "" account, so fair share degenerates
  // to the lowest-id-first order: the claim sequence of jobs that carry
  // no tenant is plain submission order, which makes untagged
  // submissions the reference the tagged differentials compare against.
  Pool pool(1);
  Gate gate;
  pool.submit(1, [&](std::size_t) { gate.wait(); }, nullptr);
  gate.await_arrivals(1);

  std::mutex mutex;
  std::vector<char> order;
  const auto recorder = [&](char tag) {
    return [&, tag](std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(tag);
    };
  };
  pool.submit(2, recorder('a'), nullptr);
  pool.submit(2, recorder('b'), nullptr);
  pool.submit(2, recorder('c'), nullptr);
  gate.release();
  pool.drain();
  EXPECT_EQ((std::vector<char>{'a', 'a', 'b', 'b', 'c', 'c'}), order);
}

TEST(Pool, StrictClassOrderTrumpsFairShare) {
  // Priorities stay strict: a high-class job runs before a batch job
  // even when the batch tenant's tag sorts first and both accounts sit
  // at the same virtual time. Fair share only arbitrates *within* a
  // class.
  Pool pool(1);
  Gate gate;
  pool.submit(1, [&](std::size_t) { gate.wait(); }, nullptr);
  gate.await_arrivals(1);

  std::mutex mutex;
  std::vector<char> order;
  const auto recorder = [&](char tag) {
    return [&, tag](std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(tag);
    };
  };
  pool.submit(2, recorder('a'), nullptr,
              tenant("aaa", 1, Priority::kBatch));
  pool.submit(2, recorder('z'), nullptr,
              tenant("zzz", 1, Priority::kHigh));
  gate.release();
  pool.drain();
  EXPECT_EQ((std::vector<char>{'z', 'z', 'a', 'a'}), order);
}

}  // namespace
}  // namespace apcc::sweep
