#include "sweep/sweep.hpp"

#include <algorithm>
#include <thread>

#include "sim/batch_engine.hpp"
#include "sweep/pool.hpp"

namespace apcc::sweep {

void ResultSink::push(SweepOutcome outcome) {
  const std::lock_guard<std::mutex> lock(mutex_);
  outcomes_.push_back(std::move(outcome));
}

std::size_t ResultSink::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return outcomes_.size();
}

std::vector<SweepOutcome> ResultSink::take_sorted() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SweepOutcome> out = std::move(outcomes_);
  outcomes_.clear();
  std::sort(out.begin(), out.end(),
            [](const SweepOutcome& a, const SweepOutcome& b) {
              return a.index < b.index;
            });
  return out;
}

unsigned resolve_workers(const SweepOptions& options,
                         std::size_t task_count) {
  // hardware_concurrency() is allowed to return 0 ("not computable"), so
  // the 0-means-auto default clamps to at least one worker.
  unsigned workers = options.workers != 0
                         ? options.workers
                         : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  if (task_count < workers) workers = static_cast<unsigned>(task_count);
  return std::max(1u, workers);
}

std::vector<CellChunk> chunk_cells(std::size_t workloads,
                                   std::size_t grid_size,
                                   std::uint32_t batch_cells) {
  const std::size_t width = std::max<std::size_t>(1, batch_cells);
  std::vector<CellChunk> chunks;
  chunks.reserve(workloads * ((grid_size + width - 1) / width));
  for (std::size_t w = 0; w < workloads; ++w) {
    for (std::size_t begin = 0; begin < grid_size; begin += width) {
      chunks.push_back(
          CellChunk{w, begin, std::min(begin + width, grid_size)});
    }
  }
  return chunks;
}

void run_chunk(const cfg::Cfg& cfg, const runtime::BlockImage& image,
               const cfg::BlockTrace& trace,
               const std::vector<SweepTask>& grid,
               const std::vector<std::size_t>& cells,
               std::vector<sim::EngineConfig> configs, ResultSink& sink) {
  sim::BatchEngine engine(cfg, image, std::move(configs));
  const std::vector<sim::CellOutcome> outcomes = engine.run(trace);
  // Surviving siblings land in the sink even when a cell threw; the
  // first failure (lowest task index -- the sequential rethrow order)
  // propagates after that.
  std::exception_ptr first_error;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!outcomes[c].ok()) {
      if (!first_error) first_error = outcomes[c].error;
      continue;
    }
    sink.push(SweepOutcome{cells[c], grid[cells[c]].label, outcomes[c].result});
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<SweepOutcome> run_sweep(const cfg::Cfg& cfg,
                                    const runtime::BlockImage& image,
                                    const cfg::BlockTrace& trace,
                                    const std::vector<SweepTask>& tasks,
                                    const SweepOptions& options) {
  const std::vector<CellChunk> chunks =
      chunk_cells(1, tasks.size(), options.batch_cells);
  ResultSink sink;
  detail::parallel_for_index(
      chunks.size(), resolve_workers(options, chunks.size()),
      [&](std::size_t c) {
        std::vector<std::size_t> cells;
        std::vector<sim::EngineConfig> configs;
        for (std::size_t t = chunks[c].begin; t < chunks[c].end; ++t) {
          cells.push_back(t);
          configs.push_back(tasks[t].config);
        }
        run_chunk(cfg, image, trace, tasks, cells, std::move(configs), sink);
      });
  return sink.take_sorted();
}

}  // namespace apcc::sweep
