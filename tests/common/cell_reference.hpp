// The independent per-cell reference the sweep and serving
// differentials compare against: a plain loop that runs one width-1
// sim::BatchEngine per task, in task order -- no pool, no ResultSink, no
// chunker. Everything under test (Service sweep, campaign and run
// jobs) goes through the cell executor (sweep::chunk_cells +
// run_chunk), so a chunking bug -- a dropped tail chunk, a chunk that
// spans workloads -- cannot pass on both sides of a differential.
#pragma once

#include <vector>

#include "core/system.hpp"
#include "sim/batch_engine.hpp"
#include "sweep/sweep.hpp"

namespace apcc::testref {

/// Every task run alone over (cfg, image, trace), in task order.
inline std::vector<sweep::SweepOutcome> per_cell_sweep(
    const cfg::Cfg& cfg, const runtime::BlockImage& image,
    const cfg::BlockTrace& trace, const std::vector<sweep::SweepTask>& tasks) {
  std::vector<sweep::SweepOutcome> outcomes;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    sim::BatchEngine engine(cfg, image, {tasks[i].config});
    outcomes.push_back(sweep::SweepOutcome{
        i, tasks[i].label, engine.run(trace).front().value()});
  }
  return outcomes;
}

/// Same, over a system's image and default trace.
inline std::vector<sweep::SweepOutcome> per_cell_sweep(
    const core::CodeCompressionSystem& system,
    const std::vector<sweep::SweepTask>& tasks) {
  return per_cell_sweep(system.cfg(), system.image(), system.default_trace(),
                        tasks);
}

}  // namespace apcc::testref
