#include "sim/batch_engine.hpp"

#include <map>
#include <tuple>
#include <utility>

#include "runtime/frontier_cache.hpp"
#include "runtime/state.hpp"
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

  // Batch-amortized immutable inputs. Declared before `cells` so the
  // borrowing planners/predictors are destroyed first.
  std::vector<memory::CompressedSlot> slots =
      memory::layout_slots(image_.slot_sizes());
  std::vector<std::uint64_t> sizes;
  sizes.reserve(cfg_.block_count());
  for (cfg::BlockId b = 0; b < cfg_.block_count(); ++b) {
    sizes.push_back(image_.original_size(b));
  }

  // One materialized FrontierCache per predecompress_k that two or more
  // planning cells share, lent to each of them -- unless a cell already
  // borrows campaign/service geometry. A lone planner keeps its own lazy
  // cache, which fills only the blocks the trace actually exits;
  // materializing every block for one reader would be pure waste.
  // Borrowed geometry is pinned bit-identical to owned, so this changes
  // no cell's results.
  const auto plans_unshared = [](const EngineConfig& config) {
    return config.shared_frontiers == nullptr &&
           config.policy.strategy != runtime::DecompressionStrategy::kOnDemand;
  };
  std::map<std::uint32_t, std::size_t> planners_per_k;
  for (const EngineConfig& config : configs_) {
    if (plans_unshared(config)) ++planners_per_k[config.policy.predecompress_k];
  }
  std::map<std::uint32_t, std::unique_ptr<runtime::FrontierCache>> frontiers;
  std::vector<EngineConfig> cell_configs = configs_;
  for (EngineConfig& config : cell_configs) {
    if (!plans_unshared(config)) continue;
    const std::uint32_t k = config.policy.predecompress_k;
    if (planners_per_k[k] < 2) continue;
    auto it = frontiers.find(k);
    if (it == frontiers.end()) {
      auto cache = std::make_unique<runtime::FrontierCache>(cfg_, k);
      cache->materialize();
      it = frontiers.emplace(k, std::move(cache)).first;
    }
    config.shared_frontiers = it->second.get();
  }

  // Shared execution-cost tables (per distinct cycles_per_instruction)
  // and predictors (per kind / k / geometry; predict() is const and the
  // batch steps cells on one thread). Only a pre-single planner reads a
  // predictor, so other cells get none.
  std::map<double, std::unique_ptr<std::vector<std::uint64_t>>> cost_tables;
  using PredictorKey = std::tuple<int, std::uint32_t,
                                  const runtime::FrontierCache*>;
  std::map<PredictorKey, std::unique_ptr<runtime::Predictor>> predictors;

  runtime::StateBatch batch(cfg_.block_count(), cell_configs.size());
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
      const PredictorKey key{static_cast<int>(cell.config.policy.predictor),
                             cell.config.policy.predecompress_k,
                             cell.config.shared_frontiers};
      auto pr = predictors.find(key);
      if (pr == predictors.end()) {
        pr = predictors
                 .emplace(key, runtime::make_predictor(
                                   cell.config.policy.predictor, cfg_,
                                   cell.config.policy.predecompress_k, trace,
                                   cell.config.shared_frontiers))
                 .first;
      }
      cell.predictor = pr->second.get();
    }

    try {
      // The last cell takes the layout itself; earlier cells copy it.
      policy_.init_cell(cell, batch.cell(i), trace,
                        i + 1 == cells.size() ? std::move(slots) : slots,
                        sizes);
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
