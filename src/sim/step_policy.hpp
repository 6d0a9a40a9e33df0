// The policy/data-plane split of the APCC execution engine.
//
// StepPolicy is the *scalar* per-step decision logic of the paper's
// three-thread runtime (Figure 4): exception handling, demand and
// pre-decompression, k-edge deletion, patching, budget eviction. It is
// stateless apart from the immutable (CFG, image) pair and the per-block
// decompression costs derived from it, and operates on one EngineCell
// at a time; sim::BatchEngine drives it over N cells (a width-1 batch
// is the per-cell run).
//
// EngineCell is everything one simulated configuration owns: its clock,
// helper-thread availability, memory layout, StateTable (one record per
// block), k-edge manager, planner, predictor, and the accumulating
// RunResult. Cells never see each other. They share only immutable
// inputs -- the trace, the image (whose block sizes and footprint they
// read in place), the cost tables, predictors and frontier geometry --
// which is why batched and sequential runs are byte-identical.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>

#include "cfg/trace.hpp"
#include "memory/layout.hpp"
#include "runtime/block_image.hpp"
#include "runtime/kedge.hpp"
#include "runtime/planner.hpp"
#include "runtime/policy.hpp"
#include "sim/result.hpp"

namespace apcc::sim {

/// Structured events for tests and the figure benches.
enum class EventKind : std::uint8_t {
  kBlockEnter,          // block begins executing
  kBlockExit,           // block finished; edge to `aux` traversed
  kException,           // protection fault on entering `block`
  kDemandDecompress,    // critical-path decompression of `block`
  kPredecompressIssue,  // planner requested `block` (issued from `aux`)
  kPredecompressDone,   // helper finished decompressing `block`
  kDelete,              // k-edge deleted `block`'s decompressed copy
  kEvict,               // LRU evicted `block` to make room for `aux`
  kPatch,               // branch in `aux` patched to `block`'s copy
  kUnpatch,             // branch in `aux` restored to compressed `block`
  kStall,               // execution waited on in-flight `block`
  kRequestDropped,      // no room and no victim for `block`
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

struct Event {
  EventKind kind{};
  std::uint64_t time = 0;          // execution-thread clock (cycles)
  cfg::BlockId block = cfg::kInvalidBlock;
  cfg::BlockId aux = cfg::kInvalidBlock;
  std::uint64_t value = 0;         // kind-specific (cost, duration, ...)
};

using EventSink = std::function<void(const Event&)>;

/// Engine configuration: policy + cost model + allocator behaviour.
struct EngineConfig {
  runtime::Policy policy{};
  runtime::CostModel costs{};
  memory::FitPolicy fit = memory::FitPolicy::kFirstFit;
  /// Optional caller-lent planner geometry: a *materialized*
  /// FrontierCache built on this engine's CFG with
  /// k == policy.predecompress_k, holding the list of every block the
  /// run's trace exits (a read of any other throws). The Service sets
  /// this so every cell over the same (workload, k) borrows its one
  /// cached artifact; null means BatchEngine::run lends the cache it
  /// builds for that k and its trace.
  const runtime::FrontierCache* shared_frontiers = nullptr;
};

/// One simulated configuration's complete mutable run state. Plain
/// aggregate: StepPolicy::init_cell wires it up, step()/finish() advance
/// it. The exec-cycles table is borrowed -- its owner (BatchEngine's
/// cost cache) outlives the cell. A cell never moves after init_cell:
/// its k-edge manager and planner hold its StateTable.
struct EngineCell {
  EngineConfig config;
  EventSink sink;
  /// Per-block execution cost, hoisted out of the step loop; shared
  /// across cells with the same cycles_per_instruction.
  const std::vector<std::uint64_t>* exec_cycles = nullptr;

  std::uint64_t now = 0;  // execution-thread clock
  // Min-heap of (completion time, block) for in-flight decompressions.
  // Entries are invalidated lazily: an entry is live only while its
  // block is still kDecompressing with the same ready_time, so settling
  // and earliest-ready queries pop stale entries as they surface.
  using ReadyEntry = std::pair<std::uint64_t, cfg::BlockId>;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                      std::greater<ReadyEntry>>
      ready_queue;
  std::vector<cfg::BlockId> settle_scratch;
  std::vector<std::uint64_t> decomp_free;  // per-unit availability
  std::uint64_t comp_free_at = 0;          // compression helper availability
  std::unique_ptr<memory::MemoryLayout> layout;
  runtime::StateTable states;
  std::unique_ptr<runtime::KEdgeCompressionManager> kedge;
  const runtime::Predictor* predictor = nullptr;  // BatchEngine's, pre-single
  std::unique_ptr<runtime::DecompressionPlanner> planner;
  RunResult result;

  // Batched stepping: a cell that threw stops stepping; its siblings
  // continue and the error is reported per cell.
  bool failed = false;
  std::exception_ptr error;
};

/// The scalar decision logic BatchEngine drives, one cell at a time.
class StepPolicy {
 public:
  StepPolicy(const cfg::Cfg& cfg, const runtime::BlockImage& image);

  /// Reset `cell` for a fresh run, with a fresh StateTable. The caller
  /// sets `cell.exec_cycles`, `cell.predictor` (pre-single) and the
  /// config's `shared_frontiers` (any planning strategy) first.
  void init_cell(EngineCell& cell) const;

  /// Advance `cell` over trace entry `i` (settle, ensure executable,
  /// execute, plan pre-decompressions, apply k-edge deletions).
  void step(EngineCell& cell, const cfg::BlockTrace& trace,
            std::size_t i) const;

  /// Drain the helper threads and finalise the cell's RunResult.
  void finish(EngineCell& cell) const;

 private:
  void emit(EngineCell& c, EventKind kind, std::uint64_t time,
            cfg::BlockId block, cfg::BlockId aux = cfg::kInvalidBlock,
            std::uint64_t value = 0) const;

  /// Place a decompressed copy of `block`, evicting victims (per the
  /// policy's VictimPolicy) if the budget requires it. Returns nullopt
  /// when impossible.
  [[nodiscard]] std::optional<std::uint64_t> place_with_eviction(
      EngineCell& c, cfg::BlockId block) const;

  /// Index of the decompression unit that frees up first.
  [[nodiscard]] std::size_t earliest_decomp_unit(const EngineCell& c) const;

  /// Completion time of the earliest in-flight decompression, if any.
  /// Lazily prunes stale ready-queue entries, O(log B).
  [[nodiscard]] std::optional<std::uint64_t> earliest_inflight_ready(
      EngineCell& c) const;

  /// Apply a deletion ("compress back"): free memory, unpatch branches,
  /// reset state; charges the compression thread (or the execution
  /// thread when inline). `evicted_for` marks budget evictions.
  void delete_block(EngineCell& c, cfg::BlockId block,
                    cfg::BlockId evicted_for = cfg::kInvalidBlock) const;

  /// Issue one pre-decompression request to the helper.
  void issue_predecompression(EngineCell& c, cfg::BlockId block,
                              cfg::BlockId from) const;

  /// Make `block` executable at the execution thread's clock; `pred` is
  /// the block the edge came from (kInvalidBlock for the trace start).
  void ensure_executable(EngineCell& c, cfg::BlockId block,
                         cfg::BlockId pred) const;

  /// Flip in-flight blocks whose helper completion time has passed into
  /// the decompressed state, so the k-edge manager sees (and can later
  /// delete) them. Called as the execution clock advances.
  void settle_ready_blocks(EngineCell& c) const;

  /// Finalise a decompression of `block` at `completion_time`: mark it
  /// resident and patch the branch sites of its currently-decompressed
  /// predecessors (Figure 4's ideal case -- the execution thread "finds
  /// the blocks directly in the executable state"). Patching cost lands
  /// on the decompression helper (or inline when `inline_cost`).
  void complete_decompression(EngineCell& c, cfg::BlockId block,
                              std::uint64_t completion_time,
                              bool inline_cost) const;

  const cfg::Cfg& cfg_;
  const runtime::BlockImage& image_;
  /// Per-block codec().costs().decompress_cycles(original_size(b)),
  /// read on every demand and pre-decompression instead of
  /// re-evaluating the codec's cost model.
  std::vector<std::uint64_t> decompress_cycles_;
};

/// Per-block execution cost table for `costs.cycles_per_instruction`.
[[nodiscard]] std::vector<std::uint64_t> exec_cycles_table(
    const cfg::Cfg& cfg, const runtime::CostModel& costs);


}  // namespace apcc::sim
