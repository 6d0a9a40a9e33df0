// A deliberately naive simulator of the paper's runtime, written from
// its rules, for differential tests of sim::BatchEngine.
//
// It shares none of the engine's stepping code: no indexed state table,
// no ready-event heap, no resident-id list, no frontier cache, no k-edge
// manager and no planner. Per-block state lives in one plain vector, and
// every query is the obvious O(B) scan over it:
//
//  * Figure 4's three threads: the execution thread walks the trace;
//    `units` decompression helpers take pre-decompression jobs; one
//    compression helper applies deletions. Helper work overlaps
//    execution when the matching background flag is set and lands on the
//    execution clock otherwise.
//  * §2's budget loop: when a decompressed copy does not fit, evict a
//    victim (LRU, MRU or largest) and retry until it fits or no victim
//    is left.
//  * §3's k-edge deletion, as quoted in runtime/kedge.hpp: every
//    traversed edge increments the counter of each decompressed block,
//    and a block whose counter reaches k is deleted -- with Figure 5's
//    two clarifications: the block the edge enters is not incremented,
//    and a block's counter resets when it begins executing.
//  * §4's strategies: at each block exit, pre-all requests every
//    compressed block within k edges, pre-single requests the one the
//    predictor picks, on-demand requests nothing.
//  * §5's remember sets: a branch patched to a decompressed copy makes
//    re-entry from that predecessor exception-free.
//
// Where the paper is silent (tie-breaks, settle order, event order) the
// oracle follows the engine's documented contract, and each such point
// names the contract it follows. It reuses only code with its own tests:
// memory::MemoryLayout (placement and occupancy) over the image's
// memory::ImageFootprint, runtime::BlockImage's block sizes and cost
// model, runtime::make_predictor, and the EngineConfig, Event and
// RunResult types.
#pragma once

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cfg/analysis.hpp"
#include "cfg/trace.hpp"
#include "memory/layout.hpp"
#include "runtime/block_image.hpp"
#include "runtime/predictor.hpp"
#include "sim/result.hpp"
#include "sim/step_policy.hpp"
#include "support/assert.hpp"

namespace apcc::oracle {

/// What the oracle computed for one run: the result and every event, in
/// emission order.
struct OracleRun {
  sim::RunResult result;
  std::vector<sim::Event> events;
};

namespace detail {

enum class Form : std::uint8_t { kCompressed, kInFlight, kResident };

struct Block {
  Form form = Form::kCompressed;
  std::uint64_t address = 0;     // decompressed-area offset when placed
  std::uint64_t ready_time = 0;  // helper completion time while in flight
  std::uint64_t last_use = 0;    // start time of the latest execution
  std::uint32_t kedge_counter = 0;
  bool executing = false;
  std::vector<cfg::BlockId> remember_set;  // patched predecessors, in order
  bool from_predecompression = false;
  bool used_since_decompression = false;
};

class Simulator {
 public:
  Simulator(const cfg::Cfg& cfg, const runtime::BlockImage& image,
            const cfg::BlockTrace& trace, const sim::EngineConfig& config)
      : cfg_(cfg),
        image_(image),
        trace_(trace),
        policy_(config.policy),
        costs_(config.costs),
        blocks_(cfg.block_count()),
        decomp_free_(config.policy.decompress_units, 0) {
    APCC_CHECK(image.block_count() == cfg.block_count(),
               "image and CFG disagree on block count");
    APCC_CHECK(!trace.empty(), "cannot run an empty trace");
    cfg::validate_trace(cfg, trace);
    APCC_CHECK(policy_.decompress_units >= 1,
               "at least one decompression unit is required");
    APCC_CHECK(policy_.compress_k >= 1, "k-edge requires k >= 1");
    layout_ = std::make_unique<memory::MemoryLayout>(
        image.footprint(),
        policy_.memory_budget == runtime::Policy::kUnbounded
            ? memory::MemoryLayout::kUnbounded
            : policy_.memory_budget,
        config.fit);
    if (policy_.strategy == runtime::DecompressionStrategy::kPreSingle) {
      predictor_ = runtime::make_predictor(policy_.predictor, cfg,
                                           policy_.predecompress_k, trace);
    }
    result_.original_image_bytes = layout_->original_image_bytes();
    result_.compressed_area_bytes = layout_->compressed_area_bytes();
    result_.codec_ratio = image.ratio();
  }

  OracleRun run() {
    for (std::size_t i = 0; i < trace_.size(); ++i) step(i);
    std::uint64_t drain = 0;
    for (const std::uint64_t unit : decomp_free_) drain = std::max(drain, unit);
    // The run ends when all three threads are done (Figure 4).
    result_.total_cycles = std::max({now_, drain, comp_free_at_});
    result_.peak_occupancy_bytes = layout_->peak_occupancy_bytes();
    result_.avg_occupancy_bytes =
        layout_->average_occupancy_bytes(result_.total_cycles);
    result_.allocator = layout_->allocator().stats();
    return OracleRun{result_, std::move(events_)};
  }

 private:
  /// The paper defines no event log: which events exist, their order and
  /// their timestamps follow the stream sim::EventKind documents, as
  /// the engine's event sinks see it.
  void emit(sim::EventKind kind, std::uint64_t time, cfg::BlockId block,
            cfg::BlockId aux = cfg::kInvalidBlock, std::uint64_t value = 0) {
    events_.push_back(sim::Event{kind, time, block, aux, value});
  }

  std::uint64_t decompress_cycles(cfg::BlockId b) const {
    return image_.codec().costs().decompress_cycles(image_.original_size(b));
  }

  bool patched(cfg::BlockId block, cfg::BlockId pred) const {
    const auto& set = blocks_[block].remember_set;
    return std::find(set.begin(), set.end(), pred) != set.end();
  }

  /// The helper unit that frees up first, lowest index on ties.
  std::uint64_t& earliest_unit() {
    std::size_t best = 0;
    for (std::size_t u = 1; u < decomp_free_.size(); ++u) {
      if (decomp_free_[u] < decomp_free_[best]) best = u;
    }
    return decomp_free_[best];
  }

  /// §2's "LRU or a similar strategy" over every resident, non-executing
  /// block except `protect`. Ties go to the lowest id (StateTable's
  /// victim-query contract): the ascending scan keeps the first block
  /// with the winning key.
  cfg::BlockId victim(cfg::BlockId protect) const {
    cfg::BlockId best = cfg::kInvalidBlock;
    for (cfg::BlockId b = 0; b < blocks_.size(); ++b) {
      const Block& s = blocks_[b];
      if (s.form != Form::kResident || s.executing || b == protect) continue;
      if (best == cfg::kInvalidBlock) {
        if (policy_.victim_policy != runtime::VictimPolicy::kLargest ||
            image_.original_size(b) > 0) {
          best = b;
        }
        continue;
      }
      switch (policy_.victim_policy) {
        case runtime::VictimPolicy::kLru:
          if (s.last_use < blocks_[best].last_use) best = b;
          break;
        case runtime::VictimPolicy::kMru:
          if (s.last_use > blocks_[best].last_use) best = b;
          break;
        case runtime::VictimPolicy::kLargest:
          if (image_.original_size(b) > image_.original_size(best)) best = b;
          break;
      }
    }
    return best;
  }

  /// Drop `block`'s decompressed copy (the paper's "compress back", §5):
  /// unpatch its remember set and charge the compression thread.
  void delete_copy(cfg::BlockId block, cfg::BlockId evicted_for) {
    Block& s = blocks_[block];
    std::uint64_t cost = costs_.delete_block_cycles;
    if (policy_.use_remember_sets) {
      cost += s.remember_set.size() * costs_.unpatch_branch_cycles;
      for (const cfg::BlockId pred : s.remember_set) {
        emit(sim::EventKind::kUnpatch, now_, block, pred);
      }
      result_.unpatches += s.remember_set.size();
    }
    if (policy_.recompress_for_real) {
      cost += image_.codec().costs().compress_cycles(
          image_.original_size(block));
    }
    if (policy_.background_compression) {
      comp_free_at_ = std::max(now_, comp_free_at_) + cost;
      result_.comp_helper_busy_cycles += cost;
    } else {
      now_ += cost;
    }
    layout_->drop_decompressed(s.address, now_);
    if (!s.used_since_decompression && s.from_predecompression) {
      ++result_.wasted_predecompressions;
    }
    // last_use survives: LRU ranks blocks by their last execution, which
    // an earlier copy may have made.
    s.form = Form::kCompressed;
    s.address = 0;
    s.kedge_counter = 0;
    s.remember_set.clear();
    s.from_predecompression = false;
    s.used_since_decompression = false;
    ++result_.deletions;
    if (evicted_for != cfg::kInvalidBlock) {
      emit(sim::EventKind::kEvict, now_, block, evicted_for);
    } else {
      emit(sim::EventKind::kDelete, now_, block);
    }
  }

  /// Room for a copy of `block`, evicting victims until it fits (§2).
  std::optional<std::uint64_t> place(cfg::BlockId block) {
    for (;;) {
      if (auto address = layout_->place_decompressed(
              image_.original_size(block), now_)) {
        return address;
      }
      const cfg::BlockId v = victim(block);
      if (v == cfg::kInvalidBlock) return std::nullopt;
      delete_copy(v, block);
      ++result_.evictions;
    }
  }

  /// A copy of `block` became executable at `time`: its k-edge window
  /// starts, and the branches of its resident predecessors are patched
  /// to it (§5). The patch work lands on the execution thread when
  /// `inline_cost`, and otherwise on the earliest-free helper unit (the
  /// engine's documented approximation in StepPolicy).
  void complete(cfg::BlockId block, std::uint64_t time, bool inline_cost) {
    blocks_[block].form = Form::kResident;
    blocks_[block].kedge_counter = 0;
    emit(sim::EventKind::kPredecompressDone, time, block);
    if (!policy_.use_remember_sets) return;
    std::uint64_t patch_cost = 0;
    for (const cfg::EdgeId e : cfg_.in_edges(block)) {
      const cfg::BlockId pred = cfg_.edge(e).from;
      if (blocks_[pred].form != Form::kResident || patched(block, pred)) {
        continue;
      }
      blocks_[block].remember_set.push_back(pred);
      ++result_.patches;
      patch_cost += costs_.patch_branch_cycles;
      emit(sim::EventKind::kPatch, time, block, pred);
    }
    if (patch_cost == 0) return;
    if (inline_cost) {
      now_ += patch_cost;
      result_.patch_cycles += patch_cost;
    } else {
      std::uint64_t& unit = earliest_unit();
      unit = std::max(unit, time) + patch_cost;
      result_.decomp_helper_busy_cycles += patch_cost;
    }
  }

  /// Every in-flight copy whose helper finished by now becomes resident,
  /// in ascending block id -- the settle order StepPolicy documents.
  void settle() {
    for (cfg::BlockId b = 0; b < blocks_.size(); ++b) {
      if (blocks_[b].form == Form::kInFlight && blocks_[b].ready_time <= now_) {
        complete(b, blocks_[b].ready_time, /*inline_cost=*/false);
      }
    }
  }

  std::optional<std::uint64_t> earliest_ready() const {
    std::optional<std::uint64_t> earliest;
    for (const Block& s : blocks_) {
      if (s.form == Form::kInFlight &&
          (!earliest || s.ready_time < *earliest)) {
        earliest = s.ready_time;
      }
    }
    return earliest;
  }

  void charge_exception(cfg::BlockId block, cfg::BlockId pred) {
    ++result_.exceptions;
    result_.exception_cycles += costs_.exception_cycles;
    now_ += costs_.exception_cycles;
    emit(sim::EventKind::kException, now_, block, pred);
  }

  /// Make `block` executable on entry from `pred`.
  void enter(cfg::BlockId block, cfg::BlockId pred) {
    Block& s = blocks_[block];
    if (s.form == Form::kInFlight) {
      const std::uint64_t wait = s.ready_time > now_ ? s.ready_time - now_ : 0;
      const std::uint64_t demand_cost = costs_.exception_cycles +
                                        costs_.alloc_block_cycles +
                                        decompress_cycles(block);
      if (wait > demand_cost) {
        // A backlogged helper: faulting and decompressing in the handler
        // beats waiting (StepPolicy::ensure_executable's rule). The copy's
        // memory was placed when the job was issued.
        ++result_.exceptions;
        result_.exception_cycles += costs_.exception_cycles;
        ++result_.demand_decompressions;
        result_.critical_decompress_cycles +=
            demand_cost - costs_.exception_cycles;
        now_ += demand_cost;
        emit(sim::EventKind::kException, now_, block, pred);
        emit(sim::EventKind::kDemandDecompress, now_, block, pred,
             demand_cost);
        complete(block, now_, /*inline_cost=*/true);
      } else {
        if (wait > 0) {
          result_.stall_cycles += wait;
          emit(sim::EventKind::kStall, now_, block, cfg::kInvalidBlock, wait);
          now_ = s.ready_time;
          ++result_.predecompress_partial;
        } else {
          ++result_.predecompress_hits;
        }
        complete(block, now_, /*inline_cost=*/false);
      }
    } else if (s.form == Form::kResident && s.from_predecompression &&
               !s.used_since_decompression) {
      ++result_.predecompress_hits;
    }

    if (s.form == Form::kResident) {
      if (!policy_.use_remember_sets) {
        // Without remember sets every entry to a relocated block faults.
        charge_exception(block, pred);
      } else if (pred != cfg::kInvalidBlock && !patched(block, pred)) {
        // A new branch site: one exception, then the branch is patched.
        ++result_.exceptions;
        result_.exception_cycles += costs_.exception_cycles;
        result_.patch_cycles += costs_.patch_branch_cycles;
        now_ += costs_.exception_cycles + costs_.patch_branch_cycles;
        s.remember_set.push_back(pred);
        ++result_.patches;
        emit(sim::EventKind::kException, now_, block, pred);
        emit(sim::EventKind::kPatch, now_, block, pred);
      }
      return;
    }

    // Compressed: the fetch faults and the handler decompresses in the
    // critical path (§4's on-demand decompression).
    charge_exception(block, pred);
    auto address = place(block);
    while (!address) {
      // Only in-flight copies are left; wait for the earliest to finish.
      const auto ready = earliest_ready();
      APCC_CHECK(ready.has_value(),
                 "decompressed area exhausted with no evictable victim "
                 "(budget too small for the working set)");
      if (*ready > now_) {
        result_.stall_cycles += *ready - now_;
        emit(sim::EventKind::kStall, now_, block, cfg::kInvalidBlock,
             *ready - now_);
        now_ = *ready;
      }
      settle();
      address = place(block);
    }
    const std::uint64_t cost =
        costs_.alloc_block_cycles + decompress_cycles(block);
    now_ += cost;
    result_.critical_decompress_cycles += cost;
    ++result_.demand_decompressions;
    s.form = Form::kResident;
    s.address = *address;
    s.from_predecompression = false;
    s.used_since_decompression = false;
    emit(sim::EventKind::kDemandDecompress, now_, block, pred, cost);
    if (policy_.use_remember_sets && pred != cfg::kInvalidBlock) {
      now_ += costs_.patch_branch_cycles;
      result_.patch_cycles += costs_.patch_branch_cycles;
      s.remember_set.push_back(pred);
      ++result_.patches;
      emit(sim::EventKind::kPatch, now_, block, pred);
    }
  }

  /// §4: the compressed blocks within k edges of `block`'s exit, nearest
  /// first and by id within a distance (the planner's documented request
  /// order), narrowed to one by the predictor under pre-single.
  std::vector<cfg::BlockId> plan(cfg::BlockId block, std::size_t i) const {
    if (policy_.strategy == runtime::DecompressionStrategy::kOnDemand) {
      return {};
    }
    std::vector<std::pair<unsigned, cfg::BlockId>> near;
    for (const cfg::BlockId b :
         cfg::frontier_within(cfg_, block, policy_.predecompress_k)) {
      if (blocks_[b].form != Form::kCompressed) continue;
      near.emplace_back(cfg::edge_distance(cfg_, block, b).value_or(UINT_MAX),
                        b);
    }
    std::sort(near.begin(), near.end());
    std::vector<cfg::BlockId> requests;
    for (const auto& [distance, b] : near) requests.push_back(b);
    if (policy_.strategy == runtime::DecompressionStrategy::kPreSingle &&
        !requests.empty()) {
      return {predictor_->predict(block, requests, i)};
    }
    return requests;
  }

  void predecompress(cfg::BlockId block, cfg::BlockId from) {
    Block& s = blocks_[block];
    if (s.form != Form::kCompressed) return;
    now_ += costs_.dispatch_job_cycles;
    const auto address = place(block);
    if (!address) {
      ++result_.dropped_requests;
      emit(sim::EventKind::kRequestDropped, now_, block, from);
      return;
    }
    const std::uint64_t duration =
        costs_.alloc_block_cycles + decompress_cycles(block);
    emit(sim::EventKind::kPredecompressIssue, now_, block, from, duration);
    if (policy_.background_decompression) {
      std::uint64_t& unit = earliest_unit();
      unit = std::max(now_, unit) + duration;
      result_.decomp_helper_busy_cycles += duration;
      s.form = Form::kInFlight;
      s.ready_time = unit;
    } else {
      now_ += duration;
      s.ready_time = now_;
      complete(block, now_, /*inline_cost=*/true);
    }
    s.address = *address;
    s.from_predecompression = true;
    s.used_since_decompression = false;
    ++result_.predecompressions;
  }

  /// §3 with Figure 5's clarifications, walking the whole table: returns
  /// the blocks to delete after an edge into `target`, ascending by id
  /// (the order the k-edge manager documents).
  std::vector<cfg::BlockId> kedge_deletions(cfg::BlockId target) {
    std::vector<cfg::BlockId> out;
    for (cfg::BlockId b = 0; b < blocks_.size(); ++b) {
      Block& s = blocks_[b];
      if (b == target || s.form != Form::kResident) continue;
      ++s.kedge_counter;
      if (s.kedge_counter >= policy_.compress_k && !s.executing) {
        out.push_back(b);
      }
    }
    return out;
  }

  void step(std::size_t i) {
    const cfg::BlockId block = trace_[i];
    const cfg::BlockId pred = i == 0 ? cfg::kInvalidBlock : trace_[i - 1];
    settle();
    enter(block, pred);

    Block& s = blocks_[block];
    s.executing = true;
    s.last_use = now_;
    s.used_since_decompression = true;
    s.kedge_counter = 0;
    ++result_.block_entries;
    emit(sim::EventKind::kBlockEnter, now_, block, pred);
    const auto exec = static_cast<std::uint64_t>(
        std::llround(costs_.cycles_per_instruction *
                     static_cast<double>(cfg_.block(block).word_count)));
    now_ += exec;
    result_.busy_cycles += exec;
    result_.baseline_cycles += exec;
    s.executing = false;

    if (i + 1 == trace_.size()) return;
    const cfg::BlockId next = trace_[i + 1];
    emit(sim::EventKind::kBlockExit, now_, block, next);
    for (const cfg::BlockId request : plan(block, i)) {
      // The next block is entered at once, so a helper job for it cannot
      // finish in time; the engine leaves it to the demand path.
      if (request != next) predecompress(request, block);
    }
    for (const cfg::BlockId b : kedge_deletions(next)) {
      delete_copy(b, cfg::kInvalidBlock);
    }
  }

  const cfg::Cfg& cfg_;
  const runtime::BlockImage& image_;
  const cfg::BlockTrace& trace_;
  runtime::Policy policy_;
  runtime::CostModel costs_;
  std::vector<Block> blocks_;
  std::vector<std::uint64_t> decomp_free_;  // per helper unit
  std::uint64_t comp_free_at_ = 0;
  std::uint64_t now_ = 0;  // execution thread clock
  std::unique_ptr<memory::MemoryLayout> layout_;
  std::unique_ptr<runtime::Predictor> predictor_;
  sim::RunResult result_;
  std::vector<sim::Event> events_;
};

}  // namespace detail

/// Simulate `trace` over (`cfg`, `image`) under `config` the naive way.
/// Throws CheckError where the engine would (bad config, budget too
/// small for the working set). `config.shared_frontiers` is ignored: it
/// only says whose frontier cache the engine's planner reads.
inline OracleRun run_oracle(const cfg::Cfg& cfg,
                            const runtime::BlockImage& image,
                            const cfg::BlockTrace& trace,
                            const sim::EngineConfig& config) {
  return detail::Simulator(cfg, image, trace, config).run();
}

}  // namespace apcc::oracle
