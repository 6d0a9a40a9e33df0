// Suite-wide sweep campaigns: one policy grid x many workloads, one pool.
//
// The paper's evaluation (fig3 / E10-style design-space exploration) is
// inherently a *suite x grid* matrix: the same policy grid run over every
// benchmark workload. run_campaign cuts the whole (workload x task)
// matrix into the cell executor's chunks (sweep.hpp) on one
// work-stealing queue over one shared thread pool, so a long workload's
// tail tasks and a short workload's grid interleave instead of the pool
// draining and refilling per workload; run_sweep is a one-workload
// campaign. Outcomes come back grouped per workload, in task order,
// byte-identical to running each workload's grid sequentially
// (tests/sweep/campaign_test.cpp pins that).
//
// Shared geometry: the planner/predictor FrontierCache is keyed on
// (CFG, predecompress_k) -- per workload-and-k, not per task -- so
// rebuilding it per cell is waste. A campaign creates one SharedFrontier
// handshake slot per distinct (workload, k) key; the first pool worker
// whose cell needs a key claims its build and materializes the cache on
// that worker (overlapping with other cells' simulation -- the calling
// thread never builds geometry when workers > 1), after which the cache
// is immutable and every later engine over that key borrows it via
// EngineConfig::shared_frontiers.
// Borrowed geometry holds exactly the lists an owned cache would
// compute, so it cannot change any outcome; the differential tests pin
// borrowed == owned bit-identically.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/frontier_cache.hpp"
#include "sweep/sweep.hpp"

namespace apcc::sweep {

/// One workload in a campaign: a display name plus borrowed, immutable
/// simulation inputs. The pointed-to objects must outlive the call and
/// must not be mutated while the campaign runs.
struct CampaignWorkload {
  std::string name;
  const cfg::Cfg* cfg = nullptr;
  const runtime::BlockImage* image = nullptr;
  const cfg::BlockTrace* trace = nullptr;
};

/// One workload's slice of the campaign: the grid's outcomes in task
/// order, exactly what run_sweep over that workload alone would return.
struct CampaignResult {
  std::string workload;
  std::vector<SweepOutcome> outcomes;
};

struct CampaignOptions {
  /// Worker threads for the shared pool; 0 means hardware concurrency
  /// (clamped to at least 1), and the pool never exceeds the number of
  /// matrix cells. 1 runs the whole matrix inline, workload-major.
  unsigned workers = 0;
  /// Build one materialized FrontierCache per (workload, predecompress_k)
  /// and have every cell borrow it, instead of each cell's
  /// planner/predictor rebuilding identical geometry. Off leaves
  /// geometry to each chunk's BatchEngine (the run_sweep behaviour):
  /// shared by the chunk's cells that plan at the same k, owned and
  /// lazy for a lone planner. Outcomes are bit-identical either way.
  bool share_frontiers = true;
  /// Matrix cells stepped per pool work item (see
  /// SweepOptions::batch_cells). Batches never span workloads: each
  /// workload's grid is chunked independently, so a batch shares one
  /// (CFG, image, trace) triple. 0 and 1 are the same width-1 path;
  /// results are byte-identical at any value.
  std::uint32_t batch_cells = 0;
};

/// Run `grid` over every workload, sharded across one shared pool, and
/// return per-workload task-ordered outcomes. A CheckError thrown by any
/// cell is rethrown on the calling thread after the pool drains.
[[nodiscard]] std::vector<CampaignResult> run_campaign(
    const std::vector<CampaignWorkload>& workloads,
    const std::vector<SweepTask>& grid, const CampaignOptions& options = {});

}  // namespace apcc::sweep
