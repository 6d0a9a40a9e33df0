// The policy grid's value types and the cell executor every grid runs
// through.
//
// The paper's evaluation (and the fig3 / E10 tables) is a grid of
// policy configurations run over the same workload. Each grid point is
// an independent engine cell, and everything a cell reads -- the Cfg,
// the BlockImage, the trace -- is immutable after construction, so the
// grid shards across a thread pool with zero shared mutable state.
// Results funnel into a thread-safe ResultSink and come back in task
// order, so a parallel grid is byte-identical to running it
// sequentially (the differential tests in tests/sweep and tests/serving
// pin that against an independent per-cell loop).
//
// serving::Service is the one runner that runs a grid in parallel: it
// cuts a job's (workloads x grid) matrix with chunk_cells() and runs
// each chunk -- one pool work item -- through run_chunk(), i.e. one
// sim::BatchEngine. Width 1 is the per-cell run. On one thread, a grid
// is one BatchEngine over its configs (or one per chunk_cells() chunk).
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "cfg/cfg.hpp"
#include "cfg/trace.hpp"
#include "runtime/block_image.hpp"
#include "sim/step_policy.hpp"
#include "sim/result.hpp"

namespace apcc::sweep {

/// One grid point: a label for reports plus the full engine knob set.
struct SweepTask {
  std::string label;
  sim::EngineConfig config{};
};

/// One grid point's outcome. `index` is the task's position in the
/// submitted list, so ordered collection is deterministic regardless of
/// which worker ran it.
struct SweepOutcome {
  std::size_t index = 0;
  std::string label;
  sim::RunResult result{};
};

/// One workload's slice of a campaign (a serving::JobSpec of kind
/// campaign): the grid's outcomes in task order, exactly what a sweep
/// job over that workload alone would return.
struct CampaignResult {
  std::string workload;
  std::vector<SweepOutcome> outcomes;
};

/// Thread-safe collection point for sweep outcomes.
class ResultSink {
 public:
  void push(SweepOutcome outcome);

  [[nodiscard]] std::size_t size() const;

  /// Drain the sink, returning the outcomes sorted by task index.
  [[nodiscard]] std::vector<SweepOutcome> take_sorted();

 private:
  mutable std::mutex mutex_;
  std::vector<SweepOutcome> outcomes_;
};

/// A run of consecutive grid cells of one workload: one pool work item,
/// stepped by one BatchEngine.
struct CellChunk {
  std::size_t workload = 0;
  std::size_t begin = 0;  // grid task range [begin, end)
  std::size_t end = 0;
};

/// Split the workload-major (workloads x grid_size) matrix into chunks
/// of max(1, batch_cells) cells, each advanced in lockstep by one
/// sim::BatchEngine (amortized trace decode, block metadata, and
/// frontier geometry). 0 and 1 are the same width-1 path; results are
/// byte-identical at every width. Chunks never span workloads (a chunk
/// shares one (cfg, image, trace) triple), so each workload's last chunk
/// may be narrower; at width 1, chunk i is matrix cell i.
[[nodiscard]] std::vector<CellChunk> chunk_cells(std::size_t workloads,
                                                 std::size_t grid_size,
                                                 std::uint32_t batch_cells);

/// Run one chunk: the grid cells `cells` (ascending task indexes) under
/// `configs` (index-aligned) through one BatchEngine over (cfg, image,
/// trace). Every ok cell lands in `sink` labelled from `grid`; the first
/// failing cell's error is rethrown after its siblings have landed.
void run_chunk(const cfg::Cfg& cfg, const runtime::BlockImage& image,
               const cfg::BlockTrace& trace,
               const std::vector<SweepTask>& grid,
               const std::vector<std::size_t>& cells,
               std::vector<sim::EngineConfig> configs, ResultSink& sink);

}  // namespace apcc::sweep
