#include "sim/batch_engine.hpp"

#include <map>
#include <utility>

#include "runtime/frontier_cache.hpp"
#include "support/assert.hpp"

namespace apcc::sim {

BatchEngine::BatchEngine(const cfg::Cfg& cfg, const runtime::BlockImage& image,
                         std::vector<EngineConfig> configs)
    : cfg_(cfg),
      image_(image),
      configs_(std::move(configs)),
      sinks_(configs_.size()),
      policy_(cfg, image) {
  APCC_CHECK(!configs_.empty(), "batch needs at least one cell");
}

void BatchEngine::set_event_sink(std::size_t cell, EventSink sink) {
  APCC_CHECK(cell < sinks_.size(), "cell index out of range");
  sinks_[cell] = std::move(sink);
}

std::vector<CellOutcome> BatchEngine::run(const cfg::BlockTrace& trace) {
  APCC_CHECK(!trace.empty(), "cannot run an empty trace");
  cfg::validate_trace(cfg_, trace);

  // Batch-amortized immutable inputs, declared before `cells` so the
  // borrowing planners are destroyed first. One FrontierCache per
  // predecompress_k the batch plans at, holding the lists of the blocks
  // this trace exits, lent to every planning cell that does not already
  // borrow the caller's (the Service's) geometry. On-demand cells plan
  // nothing and get none.
  std::map<std::uint32_t, runtime::FrontierCache> frontiers;
  std::vector<EngineConfig> cell_configs = configs_;
  for (EngineConfig& config : cell_configs) {
    if (config.shared_frontiers != nullptr ||
        !runtime::plans_ahead(config.policy.strategy)) {
      continue;
    }
    const std::uint32_t k = config.policy.predecompress_k;
    const auto [it, built] = frontiers.try_emplace(k, cfg_, k);
    if (built) it->second.materialize(trace);
    config.shared_frontiers = &it->second;
  }

  // Shared execution-cost tables (per distinct cycles_per_instruction)
  // and predictors (per kind and k; predict() is const and the batch
  // steps cells on one thread). Only a pre-single planner reads a
  // predictor, so other cells get none.
  std::map<double, std::unique_ptr<std::vector<std::uint64_t>>> cost_tables;
  std::map<std::pair<runtime::PredictorKind, std::uint32_t>,
           std::unique_ptr<runtime::Predictor>>
      predictors;

  std::vector<EngineCell> cells(cell_configs.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EngineCell& cell = cells[i];
    cell.config = cell_configs[i];
    cell.sink = sinks_[i];

    const double cpi = cell.config.costs.cycles_per_instruction;
    auto ct = cost_tables.find(cpi);
    if (ct == cost_tables.end()) {
      ct = cost_tables
               .emplace(cpi, std::make_unique<std::vector<std::uint64_t>>(
                                 exec_cycles_table(cfg_, cell.config.costs)))
               .first;
    }
    cell.exec_cycles = ct->second.get();

    if (cell.config.policy.strategy ==
        runtime::DecompressionStrategy::kPreSingle) {
      const std::pair key{cell.config.policy.predictor,
                          cell.config.policy.predecompress_k};
      auto pr = predictors.find(key);
      if (pr == predictors.end()) {
        pr = predictors
                 .emplace(key, runtime::make_predictor(
                                   key.first, cfg_, key.second, trace))
                 .first;
      }
      cell.predictor = pr->second.get();
    }

    try {
      policy_.init_cell(cell);
    } catch (...) {
      cell.failed = true;
      cell.error = std::current_exception();
    }
  }

  // Tiled lockstep scan: the batch advances through the trace one
  // cache-resident tile at a time, and within a tile each live cell
  // steps through every event before the next cell runs. Cells are
  // independent, so this interleaving is byte-identical to any other --
  // the tile keeps the trace hot across cells while each cell's state
  // stays hot for a whole tile instead of one event (rotating cells
  // per event measured ~4% *slower* than width-1 runs on the fig3 grid;
  // tiling recovers that, leaving the shared setup above as pure
  // savings -- a measured win where setup is a real fraction of the
  // cell, see bench_sweep_scaling's bm_sweep_batch_widecfg). A
  // throwing cell is retired in place; its siblings keep stepping.
  constexpr std::size_t kTraceTile = 4096;
  for (std::size_t begin = 0; begin < trace.size(); begin += kTraceTile) {
    const std::size_t end = std::min(trace.size(), begin + kTraceTile);
    for (EngineCell& cell : cells) {
      if (cell.failed) continue;
      try {
        for (std::size_t i = begin; i < end; ++i) {
          policy_.step(cell, trace, i);
        }
      } catch (...) {
        cell.failed = true;
        cell.error = std::current_exception();
      }
    }
  }

  std::vector<CellOutcome> outcomes(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].failed) {
      outcomes[i].error = cells[i].error;
      continue;
    }
    policy_.finish(cells[i]);
    outcomes[i].result = cells[i].result;
  }
  return outcomes;
}

}  // namespace apcc::sim
