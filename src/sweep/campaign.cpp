#include "sweep/campaign.hpp"

#include <map>

#include "support/assert.hpp"
#include "sweep/pool.hpp"

namespace apcc::sweep {

namespace {

/// One SharedFrontier handshake slot per runtime::FrontierKey -- (CFG
/// identity, predecompress_k) -- the grid needs. The submitting thread
/// only creates the (cheap, empty) slots; the first pool worker whose
/// cell needs a key claims its build and materializes on the worker, so
/// geometry construction overlaps with simulation of cells over other
/// keys instead of serializing on the caller before the pool starts.
using GeometryMap =
    std::map<runtime::FrontierKey, std::unique_ptr<runtime::SharedFrontier>>;

GeometryMap make_geometry_slots(const std::vector<CampaignWorkload>& workloads,
                                const std::vector<SweepTask>& grid) {
  GeometryMap geometry;
  for (const CampaignWorkload& workload : workloads) {
    for (const SweepTask& task : grid) {
      const unsigned k = task.config.policy.predecompress_k;
      auto& slot = geometry[runtime::FrontierKey{workload.cfg, k}];
      if (!slot) {
        slot = std::make_unique<runtime::SharedFrontier>(*workload.cfg, k);
      }
    }
  }
  return geometry;
}

}  // namespace

std::vector<CampaignResult> run_campaign(
    const std::vector<CampaignWorkload>& workloads,
    const std::vector<SweepTask>& grid, const CampaignOptions& options) {
  std::vector<CampaignResult> results(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const CampaignWorkload& workload = workloads[w];
    APCC_CHECK(workload.cfg != nullptr && workload.image != nullptr &&
                   workload.trace != nullptr,
               "campaign workload '" + workload.name +
                   "' has a null cfg/image/trace");
    results[w].workload = workload.name;
  }
  if (workloads.empty() || grid.empty()) return results;

  GeometryMap geometry;
  if (options.share_frontiers) geometry = make_geometry_slots(workloads, grid);

  // Workload-major chunks, so the one-worker inline order is exactly
  // "each workload's grid sequentially".
  const std::vector<CellChunk> chunks =
      chunk_cells(workloads.size(), grid.size(), options.batch_cells);
  SweepOptions pool_options;
  pool_options.workers = options.workers;
  const unsigned workers = resolve_workers(pool_options, chunks.size());

  std::vector<ResultSink> sinks(workloads.size());
  detail::parallel_for_index(chunks.size(), workers, [&](std::size_t c) {
    const CellChunk& chunk = chunks[c];
    const CampaignWorkload& workload = workloads[chunk.workload];
    std::vector<std::size_t> cells;
    std::vector<sim::EngineConfig> configs;
    for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
      sim::EngineConfig config = grid[t].config;
      if (options.share_frontiers) {
        // Claim-build or wait: first cell over this (workload, k) key
        // materializes the cache on its worker, everyone later borrows.
        config.shared_frontiers =
            geometry
                .at(runtime::FrontierKey{workload.cfg,
                                         config.policy.predecompress_k})
                ->acquire();
      }
      cells.push_back(t);
      configs.push_back(config);
    }
    run_chunk(*workload.cfg, *workload.image, *workload.trace, grid, cells,
              std::move(configs), sinks[chunk.workload]);
  });

  for (std::size_t w = 0; w < workloads.size(); ++w) {
    results[w].outcomes = sinks[w].take_sorted();
  }
  return results;
}

}  // namespace apcc::sweep
