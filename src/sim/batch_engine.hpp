// The APCC execution engine: a discrete-event model of the paper's
// three-thread runtime (Figure 4), stepping N configurations in
// lockstep over one trace read.
//
//  * The execution thread walks the block trace; entering a block in
//    compressed form raises a memory-protection exception whose handler
//    decompresses it in the critical path (on-demand), or waits for the
//    background decompressor if the block is in flight.
//  * The decompression thread consumes pre-decompression requests the
//    planner makes at each block exit; it is modelled as a single helper
//    that is busy for the codec's decompression time per job.
//  * The compression thread applies the k-edge deletions; in the paper's
//    design "compression" is deleting the decompressed copy (§5), so the
//    job cost is metadata work plus remember-set unpatching -- unless the
//    recompress_for_real ablation charges the codec's compression time.
//
// Timing rules:
//  * helper work overlaps execution when background_* is set, otherwise
//    it stalls the execution thread inline;
//  * an execution-thread arrival at an in-flight block stalls until the
//    helper's completion time;
//  * memory is allocated when a decompression starts and freed when a
//    deletion is applied, with the §2 LRU budget loop on allocation
//    failure.
//
// The per-step decision logic lives in sim::StepPolicy (the scalar
// policy half of the policy/data-plane split); BatchEngine is the one
// engine that steps it. A width-1 BatchEngine is the per-cell run; the
// design-space sweeps (fig3/e4/campaigns) run many cells over the
// *same* immutable (CFG, trace, image), so BatchEngine hoists
// everything immutable out of the per-cell loop:
//
//  * trace validation and decode        -- once per batch,
//  * block sizes and image footprint    -- read from the BlockImage in
//                                          place, never copied,
//  * execution-cost table               -- one per distinct
//                                          cycles_per_instruction,
//  * decompression-cost table           -- computed once per engine,
//  * predictors                         -- shared per (kind, k), built
//                                          for pre-single cells only,
//  * planner frontier geometry          -- one FrontierCache per
//                                          predecompress_k the batch
//                                          plans at, built for the blocks
//                                          the trace exits, unless the
//                                          caller lends its own (the
//                                          Service).
//
// What stays per cell is its own: each EngineCell owns one
// runtime::StateTable, one record per block.
//
// Stepping is tiled lockstep: the batch walks the trace one tile at a
// time and steps every live cell through the tile, so the trace is
// streamed once per batch instead of once per cell. Cells are isolated: a cell that throws
// (bad budget, fault injection, sink error) stops stepping and reports
// its exception in its CellOutcome while the siblings run to
// completion.
//
// Equivalence: a cell's outcome does not depend on its batch -- cells
// share only immutable inputs, and a cache the engine builds holds the
// same lists, at every block the trace exits, as one the caller lends.
// engine_equivalence_test enforces this across the full config grid at
// batch sizes {1, 4, 16}.
#pragma once

#include <vector>

#include "sim/step_policy.hpp"

namespace apcc::sim {

/// Per-cell result of a batched run. `error` is null on success;
/// `result` is meaningful only when it is.
struct CellOutcome {
  RunResult result;
  std::exception_ptr error;

  [[nodiscard]] bool ok() const { return error == nullptr; }

  /// The cell's result (a copy, so it may outlive the outcome);
  /// rethrows the cell's error when it failed.
  [[nodiscard]] RunResult value() const {
    if (error) std::rethrow_exception(error);
    return result;
  }
};

/// Runs N engine configurations over one trace in lockstep. A
/// BatchEngine is a state machine: construct, optionally attach sinks,
/// run; every run() starts from fresh runtime state.
class BatchEngine {
 public:
  BatchEngine(const cfg::Cfg& cfg, const runtime::BlockImage& image,
              std::vector<EngineConfig> configs);

  [[nodiscard]] std::size_t cell_count() const { return configs_.size(); }

  /// Attach an event sink to cell `cell` (the same stream the cell
  /// produces in a batch of any width).
  void set_event_sink(std::size_t cell, EventSink sink);

  /// Run every cell over the trace; outcomes are index-aligned with the
  /// constructor's config list.
  [[nodiscard]] std::vector<CellOutcome> run(const cfg::BlockTrace& trace);

 private:
  const cfg::Cfg& cfg_;
  const runtime::BlockImage& image_;
  std::vector<EngineConfig> configs_;
  std::vector<EventSink> sinks_;
  StepPolicy policy_;
};

}  // namespace apcc::sim
