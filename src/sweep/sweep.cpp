#include "sweep/sweep.hpp"

#include <algorithm>

#include "sim/batch_engine.hpp"

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

}  // namespace apcc::sweep
