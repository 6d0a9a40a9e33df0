// serving cache types: the budget, per-kind statistics, and the pure
// cost-aware eviction policy.
//
// The paper's whole premise is operating under a hard memory budget --
// its engine manages decompressed blocks under a byte ceiling with
// budget-LRU machinery (reproduction tables E5 and E9) -- and the
// Service's artifact cache inherits the same discipline at the serving
// layer: compressed BlockImages and materialized FrontierCaches are
// resident artifacts competing for one byte budget, evicted cost-aware
// (not merely recency-aware) and transparently rebuilt through their
// slot's claim-build/wait handshake (artifact_slot.hpp) when a later job
// needs them again.
//
// Division of labour:
//  * CacheBudget / ArtifactStats / CacheStats are plain values --
//    configuration in (ServiceOptions::cache_budget), observability out
//    (Service::cache_stats()).
//  * plan_evictions() is a pure function: resident set + budget ->
//    victim list. The Service merely snapshots its slots into
//    CacheEntry views under its mutex and applies the returned plan;
//    everything policy-shaped lives here, under unit test
//    (tests/serving/cache_test.cpp).
//
// The determinism contract (ROADMAP invariant): eviction only changes
// *when* an artifact is rebuilt, never any job outcome. Rebuilt
// artifacts are byte-identical to their first build (codec training
// over the same bytes, BFS over the same CFG and trace), so the
// differential suites pass byte-identical with any budget -- including
// one small enough to force constant thrash
// (tests/serving/eviction_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace apcc::serving {

/// The byte ceiling for the Service's resident artifact cache, shared
/// by images and frontier geometry; 0 -- the default -- grows without
/// bound. Budgets are pressure, not hard guarantees: an artifact
/// borrowed by an in-flight cell is pinned and never evicted, so the
/// resident set may transiently exceed the budget until those cells
/// retire and the next publish re-evaluates. A budget byte is an exact
/// byte of an artifact's arrays (its resident_bytes()); a codec's own
/// tables are not counted.
struct CacheBudget {
  std::uint64_t total_bytes = 0;
};

/// Cumulative counters for one artifact kind (images or frontier
/// geometry). Two vocabularies, one ledger: built/borrows count
/// *successful* resolutions, hits/misses/rebuilds count *attempts* -- a
/// miss is any claim of a build (including ones that then fail or are
/// cancelled and roll back), a hit is a ready-artifact borrow (also
/// after waiting out another cell's build), and a rebuild is a miss on
/// a slot whose previous claim rolled back. Eviction adds the third
/// vocabulary: evictions/evicted_bytes count artifacts dropped under
/// budget pressure; an evicted key's next claim is an ordinary miss
/// that rebuilds the artifact bit-identically. `bytes` is the
/// *resident* footprint (grows at publish, shrinks at evict); `entries`
/// is the resident artifact count, snapshotted at cache_stats() query
/// time.
struct ArtifactStats {
  std::size_t built = 0;          // artifacts materialized
  std::size_t borrows = 0;        // cells served by a cached artifact
  std::size_t hits = 0;           // ready-artifact borrows
  std::size_t misses = 0;         // build attempts claimed
  std::size_t rebuilds = 0;       // claims after a failed build
  std::size_t evictions = 0;      // artifacts evicted under budget
  std::uint64_t evicted_bytes = 0;  // cumulative bytes evicted
  std::uint64_t bytes = 0;        // exact resident bytes
  std::size_t entries = 0;        // resident artifacts (query time)
};

/// Artifact-cache observability, one ArtifactStats per kind.
struct CacheStats {
  ArtifactStats images;
  ArtifactStats frontiers;
};

/// One resident artifact, as the eviction policy sees it: how big it
/// is, what rebuilding it would cost, when it was last useful, and
/// whether an in-flight cell holds a borrow (pinned artifacts are never
/// victims -- a cell's artifact stays alive until the cell retires).
struct CacheEntry {
  std::uint64_t bytes = 0;         // resident footprint
  std::uint64_t rebuild_cost = 0;  // deterministic rebuild estimate
  std::uint64_t last_use = 0;      // newest admitted job needing it
  bool pinned = false;             // borrowed by an in-flight cell
};

/// Cost-aware LRU: pick victims until the resident set fits
/// `budget_bytes` (an exact ceiling here -- the caller interprets its
/// own "0 = unbounded" convention and simply doesn't call; budget 0 to
/// this function means "evict everything unpinned", the fault-injection
/// forced flush). `clock` is the ledger's newest stamp (the Service's
/// latest admission number).
///
/// The score is a cost-weighted staleness: an entry's eviction
/// priority is (clock - last_use) * bytes / max(rebuild_cost, 1) --
/// "stale resident bytes per unit of rebuild cost". A big, stale,
/// cheap-to-rebuild artifact (geometry: one BFS per exited block) goes
/// long before a small, recent, expensive one (a trained codec image).
/// Pure LRU is the rebuild_cost == bytes special case. Ties break on
/// older last_use, then lower index, so the plan is a deterministic
/// function of its inputs. Pinned entries are never selected; if
/// evicting every unpinned entry still leaves the set over budget, the
/// plan simply returns all of them (budgets are pressure, not
/// guarantees).
///
/// Returns indices into `entries`, in eviction order.
[[nodiscard]] std::vector<std::size_t> plan_evictions(
    std::span<const CacheEntry> entries, std::uint64_t budget_bytes,
    std::uint64_t clock);

/// Deterministic rebuild-cost estimates, shared by the Service's ledger
/// and the policy tests. Units are abstract "work" (comparable across
/// kinds, not wall-clock): rebuilding an image means retraining the
/// codec over every block byte, so its cost scales with the original
/// image size; rebuilding frontier geometry means one k-bounded BFS per
/// block the workload's trace exits (the only lists it builds), so its
/// cost scales with exited_blocks * (k + 1). The Service counts a
/// workload's exited blocks once, at registration. The estimates only
/// steer eviction *order*; they can be wrong by a constant factor
/// without affecting any job outcome.
[[nodiscard]] std::uint64_t estimate_image_cost(
    std::uint64_t original_bytes);
[[nodiscard]] std::uint64_t estimate_frontier_cost(std::size_t exited_blocks,
                                                   unsigned k);

/// The one shared rendering of a CacheStats snapshot (the CLI batch
/// summary) -- two lines, one per artifact kind, newline-terminated,
/// eviction counters included so a log line proves the budget
/// machinery ran.
[[nodiscard]] std::string format_cache_stats(const CacheStats& stats);

}  // namespace apcc::serving
