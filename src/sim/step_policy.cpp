#include "sim/step_policy.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace apcc::sim {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kBlockEnter: return "enter";
    case EventKind::kBlockExit: return "exit";
    case EventKind::kException: return "exception";
    case EventKind::kDemandDecompress: return "demand-decompress";
    case EventKind::kPredecompressIssue: return "pre-decompress-issue";
    case EventKind::kPredecompressDone: return "pre-decompress-done";
    case EventKind::kDelete: return "delete";
    case EventKind::kEvict: return "evict";
    case EventKind::kPatch: return "patch";
    case EventKind::kUnpatch: return "unpatch";
    case EventKind::kStall: return "stall";
    case EventKind::kRequestDropped: return "request-dropped";
  }
  return "?";
}

std::vector<std::uint64_t> exec_cycles_table(const cfg::Cfg& cfg,
                                             const runtime::CostModel& costs) {
  std::vector<std::uint64_t> out;
  out.reserve(cfg.block_count());
  for (cfg::BlockId b = 0; b < cfg.block_count(); ++b) {
    out.push_back(static_cast<std::uint64_t>(
        std::llround(costs.cycles_per_instruction *
                     static_cast<double>(cfg.block(b).word_count))));
  }
  return out;
}

namespace {

std::vector<std::uint64_t> decompress_cycles_table(
    const runtime::BlockImage& image) {
  const compress::CodecCosts& costs = image.codec().costs();
  std::vector<std::uint64_t> out;
  out.reserve(image.block_count());
  for (cfg::BlockId b = 0; b < image.block_count(); ++b) {
    out.push_back(costs.decompress_cycles(image.original_size(b)));
  }
  return out;
}

}  // namespace

StepPolicy::StepPolicy(const cfg::Cfg& cfg, const runtime::BlockImage& image)
    : cfg_(cfg),
      image_(image),
      decompress_cycles_(decompress_cycles_table(image)) {
  APCC_CHECK(image_.block_count() == cfg_.block_count(),
             "image and CFG disagree on block count");
}

void StepPolicy::emit(EngineCell& c, EventKind kind, std::uint64_t time,
                      cfg::BlockId block, cfg::BlockId aux,
                      std::uint64_t value) const {
  if (c.sink) {
    c.sink(Event{kind, time, block, aux, value});
  }
}

std::size_t StepPolicy::earliest_decomp_unit(const EngineCell& c) const {
  std::size_t best = 0;
  for (std::size_t u = 1; u < c.decomp_free.size(); ++u) {
    if (c.decomp_free[u] < c.decomp_free[best]) best = u;
  }
  return best;
}

std::optional<std::uint64_t> StepPolicy::earliest_inflight_ready(
    EngineCell& c) const {
  while (!c.ready_queue.empty()) {
    const auto [time, block] = c.ready_queue.top();
    const runtime::BlockState& s = c.states[block];
    if (s.form() == runtime::BlockForm::kDecompressing &&
        s.ready_time == time) {
      return time;
    }
    c.ready_queue.pop();  // stale: settled early, deleted, or re-issued
  }
  return std::nullopt;
}

std::optional<std::uint64_t> StepPolicy::place_with_eviction(
    EngineCell& c, cfg::BlockId block) const {
  for (;;) {
    if (auto address =
            c.layout->place_decompressed(image_.original_size(block), c.now)) {
      return address;
    }
    const cfg::BlockId victim = c.states.victim(
        c.config.policy.victim_policy, block,
        [this](cfg::BlockId b) { return image_.original_size(b); });
    if (victim == cfg::kInvalidBlock) {
      return std::nullopt;
    }
    delete_block(c, victim, block);
    ++c.result.evictions;
  }
}

void StepPolicy::delete_block(EngineCell& c, cfg::BlockId block,
                              cfg::BlockId evicted_for) const {
  runtime::BlockState& s = c.states[block];
  APCC_ASSERT(s.form() == runtime::BlockForm::kDecompressed,
              "delete of non-resident block");
  // Cost: metadata delete + one unpatch per remember-set entry, plus the
  // real codec compression time under the recompress_for_real ablation.
  std::uint64_t cost = c.config.costs.delete_block_cycles;
  if (c.config.policy.use_remember_sets) {
    std::uint64_t patches = 0;
    for (const cfg::BlockId pred : c.states.remember_set(block)) {
      emit(c, EventKind::kUnpatch, c.now, block, pred);
      ++patches;
    }
    cost += patches * c.config.costs.unpatch_branch_cycles;
    c.result.unpatches += patches;
  }
  if (c.config.policy.recompress_for_real) {
    cost += image_.codec().costs().compress_cycles(
        image_.original_size(block));
  }
  if (c.config.policy.background_compression) {
    const std::uint64_t start = std::max(c.now, c.comp_free_at);
    c.comp_free_at = start + cost;
    c.result.comp_helper_busy_cycles += cost;
  } else {
    c.now += cost;
  }
  // The memory itself is released immediately: in the paper's design the
  // compressed original never moved, so "compressing back" is dropping
  // the copy (§5) -- the helper cost above models the bookkeeping.
  c.layout->drop_decompressed(s.address, c.now);
  c.states.set_form(block, runtime::BlockForm::kCompressed);
  s.address = 0;
  s.kedge_counter = 0;
  c.states.clear_patches(block);
  if (!s.used_since_decomp && s.from_predecomp) {
    ++c.result.wasted_predecompressions;
  }
  s.from_predecomp = false;
  s.used_since_decomp = false;
  ++c.result.deletions;
  if (evicted_for != cfg::kInvalidBlock) {
    emit(c, EventKind::kEvict, c.now, block, evicted_for);
  } else {
    emit(c, EventKind::kDelete, c.now, block);
  }
}

void StepPolicy::issue_predecompression(EngineCell& c, cfg::BlockId block,
                                        cfg::BlockId from) const {
  runtime::BlockState& s = c.states[block];
  if (s.form() != runtime::BlockForm::kCompressed) return;

  c.now += c.config.costs.dispatch_job_cycles;
  const auto address = place_with_eviction(c, block);
  if (!address) {
    ++c.result.dropped_requests;
    emit(c, EventKind::kRequestDropped, c.now, block, from);
    return;
  }
  const std::uint64_t duration =
      c.config.costs.alloc_block_cycles + decompress_cycles_[block];

  emit(c, EventKind::kPredecompressIssue, c.now, block, from, duration);
  if (c.config.policy.background_decompression) {
    std::uint64_t& unit = c.decomp_free[earliest_decomp_unit(c)];
    const std::uint64_t start = std::max(c.now, unit);
    unit = start + duration;
    c.result.decomp_helper_busy_cycles += duration;
    c.states.set_form(block, runtime::BlockForm::kDecompressing);
    s.ready_time = start + duration;
    c.ready_queue.emplace(s.ready_time, block);
  } else {
    // Single-threaded ablation: the work lands in the critical path.
    c.now += duration;
    s.ready_time = c.now;
    complete_decompression(c, block, c.now, /*inline_cost=*/true);
  }
  s.address = *address;
  s.from_predecomp = true;
  s.used_since_decomp = false;
  ++c.result.predecompressions;
}

void StepPolicy::complete_decompression(EngineCell& c, cfg::BlockId block,
                                        std::uint64_t completion_time,
                                        bool inline_cost) const {
  c.states.set_form(block, runtime::BlockForm::kDecompressed);
  c.states[block].kedge_counter = 0;  // its k-edge window starts now
  emit(c, EventKind::kPredecompressDone, completion_time, block);
  if (!c.config.policy.use_remember_sets) return;
  // Patch the branch sites of already-decompressed predecessors so the
  // execution thread can enter without a fault. Compressed predecessors
  // cannot be patched (their branch bytes are immutable); entries from
  // them pay the exception-and-patch path on arrival instead.
  std::uint64_t patch_cost = 0;
  for (const cfg::EdgeId e : cfg_.in_edges(block)) {
    const cfg::BlockId pred = cfg_.edge(e).from;
    if (c.states[pred].form() != runtime::BlockForm::kDecompressed) continue;
    if (c.states.is_patched_for(block, pred)) continue;
    c.states.add_patch(block, pred);
    ++c.result.patches;
    patch_cost += c.config.costs.patch_branch_cycles;
    emit(c, EventKind::kPatch, completion_time, block, pred);
  }
  if (patch_cost == 0) return;
  if (inline_cost) {
    c.now += patch_cost;
    c.result.patch_cycles += patch_cost;
  } else {
    // The unit that produced the copy applies the patches right after
    // completion; approximate it as the earliest-free unit.
    std::uint64_t& unit = c.decomp_free[earliest_decomp_unit(c)];
    unit = std::max(unit, completion_time) + patch_cost;
    c.result.decomp_helper_busy_cycles += patch_cost;
  }
}

void StepPolicy::settle_ready_blocks(EngineCell& c) const {
  if (c.ready_queue.empty() || c.ready_queue.top().first > c.now) return;
  // Pop everything due, drop stale entries, and settle in ascending block
  // id, whatever the completion times: that order fixes the order of the
  // completion events and of the patch costs landing on helper units.
  c.settle_scratch.clear();
  while (!c.ready_queue.empty() && c.ready_queue.top().first <= c.now) {
    const auto [time, block] = c.ready_queue.top();
    c.ready_queue.pop();
    const runtime::BlockState& s = c.states[block];
    if (s.form() == runtime::BlockForm::kDecompressing &&
        s.ready_time == time) {
      c.settle_scratch.push_back(block);
    }
  }
  std::sort(c.settle_scratch.begin(), c.settle_scratch.end());
  for (const cfg::BlockId block : c.settle_scratch) {
    const runtime::BlockState& s = c.states[block];
    if (s.form() != runtime::BlockForm::kDecompressing) continue;  // dup entry
    complete_decompression(c, block, s.ready_time, /*inline_cost=*/false);
  }
}

void StepPolicy::ensure_executable(EngineCell& c, cfg::BlockId block,
                                   cfg::BlockId pred) const {
  runtime::BlockState& s = c.states[block];

  // Settle an in-flight copy first: if the helper has already finished by
  // the execution thread's clock, the block is simply decompressed;
  // otherwise the execution thread stalls until it is ready.
  if (s.form() == runtime::BlockForm::kDecompressing) {
    const std::uint64_t wait =
        s.ready_time > c.now ? s.ready_time - c.now : 0;
    const std::uint64_t demand_cost = c.config.costs.exception_cycles +
                                      c.config.costs.alloc_block_cycles +
                                      decompress_cycles_[block];
    if (wait > demand_cost) {
      // The helper is backlogged: the fetch faults and the handler
      // decompresses in the critical path, beating the queued job (the
      // helper's later completion finds the block already resident).
      // The copy's memory was already allocated at issue time.
      ++c.result.exceptions;
      c.result.exception_cycles += c.config.costs.exception_cycles;
      ++c.result.demand_decompressions;
      c.result.critical_decompress_cycles +=
          demand_cost - c.config.costs.exception_cycles;
      c.now += demand_cost;
      emit(c, EventKind::kException, c.now, block, pred);
      emit(c, EventKind::kDemandDecompress, c.now, block, pred, demand_cost);
      complete_decompression(c, block, c.now, /*inline_cost=*/true);
    } else {
      if (wait > 0) {
        c.result.stall_cycles += wait;
        emit(c, EventKind::kStall, c.now, block, cfg::kInvalidBlock, wait);
        c.now = s.ready_time;
        ++c.result.predecompress_partial;
      } else {
        ++c.result.predecompress_hits;
      }
      complete_decompression(c, block, c.now, /*inline_cost=*/false);
    }
  } else if (s.form() == runtime::BlockForm::kDecompressed &&
             s.from_predecomp && !s.used_since_decomp) {
    ++c.result.predecompress_hits;
  }

  if (s.form() == runtime::BlockForm::kDecompressed) {
    if (c.config.policy.use_remember_sets) {
      // Re-entry through an already patched branch is exception-free;
      // a new branch site pays one exception + one patch.
      if (pred != cfg::kInvalidBlock && !c.states.is_patched_for(block, pred)) {
        ++c.result.exceptions;
        c.result.exception_cycles += c.config.costs.exception_cycles;
        c.result.patch_cycles += c.config.costs.patch_branch_cycles;
        c.now += c.config.costs.exception_cycles +
                 c.config.costs.patch_branch_cycles;
        c.states.add_patch(block, pred);
        ++c.result.patches;
        emit(c, EventKind::kException, c.now, block, pred);
        emit(c, EventKind::kPatch, c.now, block, pred);
      }
    } else {
      // Ablation: every entry to a relocated block faults (the handler
      // redirects the PC but never patches).
      ++c.result.exceptions;
      c.result.exception_cycles += c.config.costs.exception_cycles;
      c.now += c.config.costs.exception_cycles;
      emit(c, EventKind::kException, c.now, block, pred);
    }
    return;
  }

  // Compressed: the fetch faults and the handler decompresses in the
  // critical path (on-demand / lazy decompression, §4).
  APCC_ASSERT(s.form() == runtime::BlockForm::kCompressed,
              "unexpected block form");
  ++c.result.exceptions;
  c.result.exception_cycles += c.config.costs.exception_cycles;
  c.now += c.config.costs.exception_cycles;
  emit(c, EventKind::kException, c.now, block, pred);

  auto address = place_with_eviction(c, block);
  while (!address) {
    // Every decompressed victim is gone; the remaining occupants are
    // in-flight helper jobs, which become evictable once complete. Wait
    // for the earliest one, settle it, and retry.
    const auto earliest_ready = earliest_inflight_ready(c);
    APCC_CHECK(earliest_ready.has_value(),
               "decompressed area exhausted with no evictable victim "
               "(budget too small for the working set)");
    const std::uint64_t earliest = *earliest_ready;
    if (earliest > c.now) {
      c.result.stall_cycles += earliest - c.now;
      emit(c, EventKind::kStall, c.now, block, cfg::kInvalidBlock,
           earliest - c.now);
      c.now = earliest;
    }
    settle_ready_blocks(c);
    address = place_with_eviction(c, block);
  }
  const std::uint64_t cost =
      c.config.costs.alloc_block_cycles + decompress_cycles_[block];
  c.now += cost;
  c.result.critical_decompress_cycles += cost;
  ++c.result.demand_decompressions;
  c.states.set_form(block, runtime::BlockForm::kDecompressed);
  s.address = *address;
  s.from_predecomp = false;
  s.used_since_decomp = false;
  emit(c, EventKind::kDemandDecompress, c.now, block, pred, cost);

  if (c.config.policy.use_remember_sets && pred != cfg::kInvalidBlock) {
    c.now += c.config.costs.patch_branch_cycles;
    c.result.patch_cycles += c.config.costs.patch_branch_cycles;
    c.states.add_patch(block, pred);
    ++c.result.patches;
    emit(c, EventKind::kPatch, c.now, block, pred);
  }
}

void StepPolicy::init_cell(EngineCell& cell) const {
  APCC_CHECK(cell.config.policy.decompress_units >= 1,
             "at least one decompression unit is required");
  APCC_CHECK(cell.exec_cycles != nullptr &&
                 cell.exec_cycles->size() == cfg_.block_count(),
             "cell is missing its execution-cost table");
  cell.now = 0;
  cell.decomp_free.assign(cell.config.policy.decompress_units, 0);
  cell.comp_free_at = 0;
  cell.ready_queue = {};
  cell.result = RunResult{};
  cell.layout = std::make_unique<memory::MemoryLayout>(
      image_.footprint(),
      cell.config.policy.memory_budget == runtime::Policy::kUnbounded
          ? memory::MemoryLayout::kUnbounded
          : cell.config.policy.memory_budget,
      cell.config.fit);
  cell.states = runtime::StateTable(cfg_.block_count());
  cell.kedge = std::make_unique<runtime::KEdgeCompressionManager>(
      cell.states, cell.config.policy.compress_k);
  cell.planner = std::make_unique<runtime::DecompressionPlanner>(
      cfg_, cell.states, cell.config.policy, cell.predictor,
      cell.config.shared_frontiers);
  cell.failed = false;
  cell.error = nullptr;

  cell.result.original_image_bytes = cell.layout->original_image_bytes();
  cell.result.compressed_area_bytes = cell.layout->compressed_area_bytes();
  cell.result.codec_ratio = image_.ratio();
}

void StepPolicy::step(EngineCell& cell, const cfg::BlockTrace& trace,
                      std::size_t i) const {
  EngineCell& c = cell;
  const cfg::BlockId block = trace[i];
  const cfg::BlockId pred = (i == 0) ? cfg::kInvalidBlock : trace[i - 1];

  settle_ready_blocks(c);
  ensure_executable(c, block, pred);

  // Execute the block.
  c.states.set_executing(block, true);
  c.states.touch(block, c.now);
  c.states[block].used_since_decomp = true;
  c.kedge->on_block_executed(block);
  ++c.result.block_entries;
  emit(c, EventKind::kBlockEnter, c.now, block, pred);
  const std::uint64_t exec_cycles = (*c.exec_cycles)[block];
  c.now += exec_cycles;
  c.result.busy_cycles += exec_cycles;
  c.result.baseline_cycles += exec_cycles;
  c.states.set_executing(block, false);

  if (i + 1 == trace.size()) return;
  const cfg::BlockId next = trace[i + 1];
  emit(c, EventKind::kBlockExit, c.now, block, next);

  // Pre-decompression planning happens at the block's exit (§4).
  for (const cfg::BlockId req : c.planner->plan_on_exit(block, i)) {
    if (req == next) {
      // The next block is entered immediately; issuing a background
      // job for it cannot complete in time -- the demand path will
      // handle it (and the helper would only duplicate the work).
      continue;
    }
    issue_predecompression(c, req, block);
  }

  // k-edge compression on the traversed edge (§3, §5).
  for (const cfg::BlockId victim : c.kedge->on_edge_traversed(next)) {
    delete_block(c, victim);
  }
}

void StepPolicy::finish(EngineCell& cell) const {
  // Drain helper threads: the run is over when all three threads are done.
  std::uint64_t decomp_drain = 0;
  for (const std::uint64_t unit : cell.decomp_free) {
    decomp_drain = std::max(decomp_drain, unit);
  }
  cell.result.total_cycles =
      std::max({cell.now, decomp_drain, cell.comp_free_at});
  cell.result.peak_occupancy_bytes = cell.layout->peak_occupancy_bytes();
  cell.result.avg_occupancy_bytes =
      cell.layout->average_occupancy_bytes(cell.result.total_cycles);
  cell.result.allocator = cell.layout->allocator().stats();
}

}  // namespace apcc::sim
