// serving::FaultPlan -- deterministic fault injection for the serving
// robustness paths.
//
// The rollback, cancellation, rejection, and drain machinery in
// Service/Pool only fires on failures, and real failures are rare and
// timing-dependent -- exactly the code a test suite silently stops
// covering. A FaultPlan is a declarative, seeded schedule of injected
// faults the Service consults at its two well-defined fault points:
//
//  * the **image build** (an image slot's claim-build handshake),
//    counted service-wide in claim order, and
//  * the **task boundary** (the top of every pool item, before any
//    engine work), counted service-wide in dispatch order.
//
// All schedules are count-based, never clock-based, so a plan injects
// the same fault at the same logical point on every run; the injected
// error messages embed the seed and the fault ordinal (and nothing
// execution-order-dependent), so the resulting result records are
// byte-identical at any worker count. An empty plan is zero-cost: the
// Service holds a null pointer and every hook is a single branch.
//
// tests/serving/fault_injection_test.cpp drives every robustness path
// through this plan; it is equally usable for manual soak runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace apcc::serving {

struct FaultPlan {
  /// Echoed into every injected error message, so a failure seen in a
  /// log names the plan that caused it. Not an RNG seed -- schedules
  /// are deterministic counts, the seed is an identification tag.
  std::uint64_t seed = 0;

  /// Fail the Nth image build attempt, 1-based, counted service-wide
  /// (geometry builds are not counted); 0 = never. The injected throw
  /// exercises the claim-rollback path: the slot returns to idle and
  /// waiters re-claim.
  std::size_t fail_image_build = 0;

  /// Throw at the Nth task boundary, 1-based, counted service-wide
  /// across all jobs' items; 0 = never. The throw is the job's first
  /// failure, so the pool cancels its remaining items.
  std::size_t throw_in_task = 0;

  /// Request the owning job's cancellation at the Nth task boundary,
  /// 1-based; 0 = never. The injecting cell itself is skipped.
  std::size_t cancel_at_boundary = 0;

  /// Treat every per-job deadline as already expired at dispatch --
  /// the deterministic driver for the deadline-exceeded path (a real
  /// wall-clock expiry is inherently racy). Jobs without a deadline
  /// are unaffected.
  bool expire_deadlines = false;

  /// At the Nth successful artifact publish (images + frontier
  /// geometry, 1-based, counted service-wide in publish order), force
  /// an eviction pass that reclaims every unpinned resident artifact
  /// regardless of the configured budget; 0 = never. Pinned artifacts
  /// (borrowed by in-flight cells -- including the publisher itself)
  /// survive, exactly as under real budget pressure, so this is the
  /// deterministic driver for the evict-then-rebuild path without
  /// having to tune a byte budget per workload.
  std::size_t evict_at_publish = 0;

  /// Test seam: called at every task boundary with the 1-based
  /// boundary ordinal, before the declarative faults above are
  /// evaluated. Tests use it to park a cell on a gate so queue depth
  /// is under test control (admission and drain tests). Must be
  /// thread-safe; must not throw.
  std::function<void(std::size_t)> on_boundary;

  /// True when the plan injects nothing (on_boundary still fires).
  [[nodiscard]] bool empty() const {
    return fail_image_build == 0 && throw_in_task == 0 &&
           cancel_at_boundary == 0 && !expire_deadlines &&
           evict_at_publish == 0 && !on_boundary;
  }
};

}  // namespace apcc::serving
