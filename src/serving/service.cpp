#include "serving/service.hpp"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "compress/codec.hpp"
#include "support/strings.hpp"

namespace apcc::serving {

namespace {

/// Exact heap bytes of an artifact's arrays: what a budget byte counts.
std::uint64_t resident_bytes(const Artifact& artifact) {
  return std::visit([](const auto& a) { return a->resident_bytes(); },
                    artifact);
}

}  // namespace

Service::CellLease::CellLease(CellLease&& other) noexcept {
  *this = std::move(other);
}

Service::CellLease& Service::CellLease::operator=(
    CellLease&& other) noexcept {
  if (this != &other) {
    release();
    slots_ = std::exchange(other.slots_, {});
  }
  return *this;
}

Service::CellLease::~CellLease() { release(); }

void Service::CellLease::hold(ArtifactSlot& slot) {
  for (ArtifactSlot*& held : slots_) {
    if (held == nullptr) {
      held = &slot;
      return;
    }
  }
  APCC_CHECK_FAIL("a cell lease holds one image and one geometry");
}

void Service::CellLease::release() {
  // Only slot-level locks here (never Service::mutex_): release runs on
  // pool threads at cell retirement and must not contend with the
  // registry. The newly unpinned artifact stays resident until the next
  // publish re-evaluates the budget -- eviction is publish-driven.
  for (ArtifactSlot*& held : slots_) {
    if (held != nullptr) std::exchange(held, nullptr)->unpin();
  }
}

/// One registered workload plus its artifacts: images by codec, frontier
/// geometry by predecompress_k. The workload lives behind a unique_ptr
/// so its Cfg / trace / bytes keep stable addresses for the borrowing
/// engines; map nodes are stable too, so slot pointers stay valid while
/// other keys are inserted.
struct Service::Registered {
  std::unique_ptr<const workloads::Workload> workload;
  /// Distinct blocks the workload's trace exits: one geometry build
  /// runs one BFS per such block.
  std::size_t exited_blocks = 0;
  std::map<compress::CodecKind, ArtifactSlot> images;
  std::map<unsigned, ArtifactSlot> geometry;
};

Service::Service(ServiceOptions options)
    : limits_(options.limits),
      client_weights_(std::move(options.client_weights)),
      budget_(options.cache_budget),
      faults_(std::move(options.faults)) {
  APCC_CHECK(limits_.default_deadline_ms <= JobSpec::kMaxDeadlineMs,
             "default deadline out of range: " +
                 std::to_string(limits_.default_deadline_ms) +
                 " ms (expected at most " +
                 std::to_string(JobSpec::kMaxDeadlineMs) + ")");
  APCC_CHECK(options.workers <= ServiceOptions::kMaxWorkers,
             "pool width out of range: " + std::to_string(options.workers) +
                 " workers (expected at most " +
                 std::to_string(ServiceOptions::kMaxWorkers) + ")");
  // 0 means hardware concurrency, which may itself be 0 ("not
  // computable"); the pool clamps that to one worker.
  pool_ = std::make_shared<sweep::Pool>(
      options.workers != 0 ? options.workers
                           : std::thread::hardware_concurrency());
}

Service::~Service() { shutdown(std::nullopt); }

WorkloadId Service::register_workload(workloads::Workload workload) {
  auto entry = std::make_unique<Registered>();
  entry->workload =
      std::make_unique<const workloads::Workload>(std::move(workload));
  const std::vector<bool> exited =
      cfg::exited_blocks(entry->workload->cfg, entry->workload->trace);
  entry->exited_blocks =
      static_cast<std::size_t>(std::count(exited.begin(), exited.end(), true));
  const std::lock_guard<std::mutex> lock(mutex_);
  registry_.push_back(std::move(entry));
  return registry_.size() - 1;
}

std::size_t Service::workload_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return registry_.size();
}

const workloads::Workload& Service::workload(WorkloadId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(id < registry_.size(), "unknown workload id");
  return *registry_[id]->workload;
}

WorkloadId Service::resolve(const std::string& ref) const {
  APCC_CHECK(!ref.empty(), "empty workload reference");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ref[0] == '@') {
    // Literal id: exact and collision-proof for in-process callers.
    const std::int64_t id = parse_int(ref.substr(1));
    APCC_CHECK(id >= 0 && static_cast<std::size_t>(id) < registry_.size(),
               "unknown workload reference '" + ref + "'");
    return static_cast<WorkloadId>(id);
  }
  // Registered-name lookup, first registration wins (deterministic).
  for (std::size_t id = 0; id < registry_.size(); ++id) {
    if (registry_[id]->workload->name == ref) return id;
  }
  APCC_CHECK_FAIL("unknown workload reference '" + ref +
                  "' (register it first, or use \"@<id>\")");
}

Service::Registered& Service::entry(WorkloadId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(id < registry_.size(), "unknown workload id");
  return *registry_[id];
}

bool Service::task_boundary(detail::JobState& state) {
  if (state.token && state.token->cancelled()) return false;
  if (faults_) {
    const std::size_t n =
        fault_boundaries_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (faults_->on_boundary) faults_->on_boundary(n);
    if (faults_->cancel_at_boundary != 0 &&
        n == faults_->cancel_at_boundary) {
      // Self-cancel: the pool observes the token at its next claim (and
      // after this item retires), so the whole job resolves kCancelled.
      if (state.token) state.token->request();
      return false;
    }
    if (faults_->throw_in_task != 0 && n == faults_->throw_in_task) {
      throw CheckError("injected fault: task throw at boundary " +
                       std::to_string(n) + " (seed " +
                       std::to_string(faults_->seed) + ")");
    }
    // A gate in on_boundary may have parked this item across a cancel;
    // honour it before doing any work.
    if (state.token && state.token->cancelled()) return false;
  }
  return true;
}

const runtime::BlockImage& Service::image_for(Registered& entry,
                                              compress::CodecKind codec,
                                              const sweep::CancelToken* token,
                                              CellLease& lease) {
  ArtifactSlot* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    slot = &entry.images[codec];
  }
  // An image rebuild retrains over, and compresses, every block byte.
  const std::uint64_t rebuild_cost =
      estimate_image_cost(entry.workload->block_bytes.total_bytes());
  const Artifact& artifact = resolve(
      *slot, stats_.images, rebuild_cost, token, lease, [&]() -> Artifact {
        if (faults_) {
          const std::size_t n =
              fault_builds_.fetch_add(1, std::memory_order_relaxed) + 1;
          if (faults_->fail_image_build != 0 &&
              n == faults_->fail_image_build) {
            throw CheckError("injected fault: image build " +
                             std::to_string(n) + " failed (seed " +
                             std::to_string(faults_->seed) + ")");
          }
        }
        // Exactly what from_workload does -- train the codec on the
        // registered block bytes, then compress them into the image's
        // arenas -- so a cached image is byte-identical to a per-call
        // one (and a rebuilt-after-eviction image to the first).
        const workloads::Workload& w = *entry.workload;
        return std::make_unique<const runtime::BlockImage>(
            w.cfg, w.block_bytes, compress::make_codec(codec, w.block_bytes));
      });
  return *std::get<std::unique_ptr<const runtime::BlockImage>>(artifact);
}

const runtime::FrontierCache& Service::frontiers_for(
    Registered& entry, unsigned k, const sweep::CancelToken* token,
    CellLease& lease) {
  ArtifactSlot* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    slot = &entry.geometry[k];
  }
  // Every cell the Service runs steps the workload's own trace, so the
  // geometry holds the lists of the blocks that trace exits, no others.
  const workloads::Workload& w = *entry.workload;
  const Artifact& artifact = resolve(
      *slot, stats_.frontiers, estimate_frontier_cost(entry.exited_blocks, k),
      token, lease, [&]() -> Artifact {
        auto cache = std::make_unique<runtime::FrontierCache>(w.cfg, k);
        cache->materialize(w.trace);
        return std::unique_ptr<const runtime::FrontierCache>(std::move(cache));
      });
  return *std::get<std::unique_ptr<const runtime::FrontierCache>>(artifact);
}

const Artifact& Service::resolve(ArtifactSlot& slot, ArtifactStats& stats,
                                 std::uint64_t rebuild_cost,
                                 const sweep::CancelToken* token,
                                 CellLease& lease,
                                 const std::function<Artifact()>& build) {
  ArtifactSlot::Claim claim;
  const Artifact* artifact = nullptr;
  try {
    artifact = &slot.acquire(token, build, claim);
  } catch (...) {
    // This call's claim rolled back (a throw or a cancel): still a miss,
    // and a rebuild if the slot's last build had failed too.
    if (claim.claimed) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats.misses;
      if (claim.rebuild) ++stats.rebuilds;
    }
    throw;
  }
  lease.hold(slot);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!claim.claimed) {
    // A ready artifact, including one this cell waited for while
    // another cell built it.
    ++stats.borrows;
    ++stats.hits;
    return *artifact;
  }
  ++stats.misses;
  if (claim.rebuild) ++stats.rebuilds;
  ++stats.built;
  slot.ledger.bytes = resident_bytes(*artifact);
  slot.ledger.rebuild_cost = rebuild_cost;
  stats.bytes += slot.ledger.bytes;
  ++publish_count_;
  evict_over_budget_locked();
  return *artifact;
}

void Service::evict_over_budget_locked() {
  const bool forced = faults_ != nullptr && faults_->evict_at_publish != 0 &&
                      publish_count_ == faults_->evict_at_publish;
  if (!forced && budget_.total_bytes == 0) return;

  // Snapshot the resident artifacts into policy views, in registry
  // order, images before geometry, each by key -- the order
  // plan_evictions breaks its last ties on. Pins are read under each
  // slot's lock (mutex_ -> slot order); a borrow that lands after the
  // snapshot is caught by evict()'s own re-check.
  std::vector<ArtifactSlot*> slots;
  std::vector<ArtifactStats*> kinds;
  std::vector<CacheEntry> view;
  const auto snapshot = [&](auto& by_key, ArtifactStats& stats) {
    for (auto& [key, slot] : by_key) {
      if (slot.ledger.bytes == 0) continue;  // never published, or evicted
      slots.push_back(&slot);
      kinds.push_back(&stats);
      view.push_back(CacheEntry{slot.ledger.bytes, slot.ledger.rebuild_cost,
                                slot.ledger.last_use, slot.pins() != 0});
    }
  };
  for (const auto& registered : registry_) {
    snapshot(registered->images, stats_.images);
    snapshot(registered->geometry, stats_.frontiers);
  }

  // The fault plan's flush evicts every unpinned artifact, whatever the
  // budget: budget 0 to the pure policy means exactly that.
  for (const std::size_t victim :
       plan_evictions(view, forced ? 0 : budget_.total_bytes, admitted_)) {
    if (!slots[victim]->evict()) continue;  // a borrow raced the snapshot
    const std::uint64_t freed = std::exchange(slots[victim]->ledger.bytes, 0);
    ArtifactStats& stats = *kinds[victim];
    ++stats.evictions;
    stats.evicted_bytes += freed;
    stats.bytes -= freed;
  }
}

JobHandle<JobResult> Service::submit(JobSpec spec) {
  validate(spec);

  /// Everything the pool items need, alive until the finalize runs.
  struct Ctx {
    JobSpec spec;
    std::vector<Registered*> entries;
    std::vector<std::string> names;
    /// The cell grid: the spec's tasks, or -- for a run job, whose spec
    /// carries none -- one cell under the spec's own engine knobs.
    std::vector<sweep::SweepTask> grid;
    std::vector<sweep::CellChunk> chunks;
    std::vector<sweep::ResultSink> sinks;  // one per workload
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->spec = std::move(spec);
  for (const std::string& ref : ctx->spec.workloads) {
    Registered& target = entry(resolve(ref));
    APCC_CHECK(!target.workload->trace.empty(),
               "workload '" + target.workload->name + "' has no default trace");
    ctx->entries.push_back(&target);
    ctx->names.push_back(target.workload->name);
  }
  if (ctx->spec.kind == JobKind::kRun) {
    ctx->grid = {sweep::SweepTask{"", core::engine_config(ctx->spec.config)}};
  } else {
    ctx->grid = std::move(ctx->spec.tasks);
  }
  ctx->chunks = sweep::chunk_cells(ctx->entries.size(), ctx->grid.size(),
                                   ctx->spec.batch_cells);
  ctx->sinks = std::vector<sweep::ResultSink>(ctx->entries.size());

  auto state = std::make_shared<detail::JobState>();
  state->value.kind = ctx->spec.kind;
  const std::string client = ctx->spec.client;

  // Admission. Structural errors above threw (caller bugs); load is not
  // a caller bug, so over-limit submissions resolve as a structured
  // *rejected* result -- immediately, without ever touching the pool.
  // The rejection messages are fixed strings + configured limits, so
  // overload outcomes are byte-stable however the race to the last
  // queue slot resolves.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string reason;
    if (!accepting_) {
      reason = "rejected: service is shutting down";
    } else if (limits_.max_queued_jobs != 0 &&
               live_jobs_ >= limits_.max_queued_jobs) {
      reason = "rejected: job limit reached (" +
               std::to_string(limits_.max_queued_jobs) + " jobs in flight)";
    } else if (limits_.max_queued_per_client != 0 &&
               live_per_client_[client] >= limits_.max_queued_per_client) {
      reason = "rejected: client limit reached (" +
               std::to_string(limits_.max_queued_per_client) +
               " jobs in flight for client '" + client + "')";
    }
    if (!reason.empty()) {
      state->value.status = JobStatus::kRejected;
      state->value.error = std::move(reason);
      state->done = true;
      return JobHandle<JobResult>(std::move(state));
    }
    ++live_jobs_;
    ++live_per_client_[client];
    live_states_.emplace(state.get(), state);
    // Stamp every artifact the job will borrow, before any of its cells
    // runs: its image, and the geometry of each k a planning cell reads.
    // Then no publish of this job can pick one of its own artifacts over
    // an older job's merely because its cells have not reached it yet,
    // so when jobs run one at a time and one job's artifacts fit the
    // budget, the evictions do not depend on the order in which the
    // pool runs the job's cells.
    const std::uint64_t stamp = ++admitted_;
    for (Registered* target : ctx->entries) {
      target->images[ctx->spec.config.codec].ledger.last_use = stamp;
      for (const sweep::SweepTask& task : ctx->grid) {
        if (!runtime::plans_ahead(task.config.policy.strategy)) continue;
        target->geometry[task.config.policy.predecompress_k]
            .ledger.last_use = stamp;
      }
    }
  }

  state->token = std::make_shared<sweep::CancelToken>();
  state->pool = pool_;

  sweep::SubmitOptions options;
  options.priority = ctx->spec.priority;
  options.max_workers = ctx->spec.max_workers;
  options.client = client;
  const auto weight = client_weights_.find(client);
  if (weight != client_weights_.end()) options.weight = weight->second;
  options.cancel = state->token;
  const std::uint64_t deadline_ms = ctx->spec.deadline_ms != 0
                                        ? ctx->spec.deadline_ms
                                        : limits_.default_deadline_ms;
  if (deadline_ms != 0) {
    options.deadline =
        (faults_ && faults_->expire_deadlines)
            // Deterministically already-expired: the first dispatch
            // resolves the job deadline-exceeded, no sleeping tests.
            ? std::chrono::steady_clock::now() - std::chrono::hours(1)
            : std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  }

  // The one item function, for every kind at every batch width: a pool
  // work item is one chunk of the executor's workload-major matrix
  // (sweep::chunk_cells), stepped by one BatchEngine. The per-cell
  // prologue -- task boundary, artifact lookups, lease -- keeps FaultPlan
  // ordinals, cancellation points, and cache-stats counters identical at
  // every width; a cell that faults or cancels retires in place while
  // its chunk siblings finish, and the first failure propagates after
  // the chunk (the sequential rethrow order at one worker).
  sweep::Pool::ItemFn item = [this, ctx, state](std::size_t c) {
    const sweep::CellChunk& chunk = ctx->chunks[c];
    Registered& target = *ctx->entries[chunk.workload];
    std::vector<std::size_t> cells;
    std::vector<sim::EngineConfig> configs;
    // One lease per admitted cell, held past the engine run below so a
    // chunk sibling's artifacts never become eviction victims while the
    // lockstep engine still reads them; scope exit releases the pins.
    std::vector<CellLease> leases;
    std::exception_ptr first_error;
    const runtime::BlockImage* image = nullptr;
    for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
      try {
        // Cancelled cells retire quietly; a boundary that throws (fault
        // injection) fails only this cell -- siblings still run.
        if (!task_boundary(*state)) continue;
        CellLease lease;
        image = &image_for(target, ctx->spec.config.codec,
                           state->token.get(), lease);
        sim::EngineConfig config = ctx->grid[t].config;
        // An on-demand cell plans nothing, so it borrows no geometry.
        if (runtime::plans_ahead(config.policy.strategy)) {
          config.shared_frontiers =
              &frontiers_for(target, config.policy.predecompress_k,
                             state->token.get(), lease);
        }
        configs.push_back(config);
        cells.push_back(t);
        leases.push_back(std::move(lease));
      } catch (const ArtifactSlot::Cancelled&) {
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (!cells.empty()) {
      try {
        sweep::run_chunk(target.workload->cfg, *image, target.workload->trace,
                         ctx->grid, cells, std::move(configs),
                         ctx->sinks[chunk.workload]);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  };

  const JobId id = pool_->submit(
      ctx->chunks.size(), std::move(item),
      [this, ctx, state, client](const sweep::FinalizeInfo& info) {
        std::function<void()> callback;
        {
          // Job accounting first, so a waiter that wakes on this job
          // can immediately submit into the freed queue slot.
          const std::lock_guard<std::mutex> lock(mutex_);
          --live_jobs_;
          const auto it = live_per_client_.find(client);
          if (it != live_per_client_.end() && --it->second == 0) {
            live_per_client_.erase(it);
          }
          live_states_.erase(state.get());
        }
        {
          const std::lock_guard<std::mutex> lock(state->mutex);
          switch (info.outcome) {
            case sweep::JobOutcome::kCompleted:
              switch (ctx->spec.kind) {
                case JobKind::kRun: {
                  const auto outcomes = ctx->sinks[0].take_sorted();
                  if (!outcomes.empty()) state->value.run = outcomes[0].result;
                  break;
                }
                case JobKind::kSweep:
                  state->value.sweep = ctx->sinks[0].take_sorted();
                  break;
                case JobKind::kCampaign:
                  state->value.campaign.reserve(ctx->names.size());
                  for (std::size_t w = 0; w < ctx->names.size(); ++w) {
                    state->value.campaign.push_back(sweep::CampaignResult{
                        ctx->names[w], ctx->sinks[w].take_sorted()});
                  }
                  break;
              }
              break;
            case sweep::JobOutcome::kFailed:
              state->failure = info.failure;
              state->value.status = JobStatus::kError;
              try {
                std::rethrow_exception(info.failure);
              } catch (const std::exception& e) {
                state->value.error = e.what();
              } catch (...) {
                state->value.error = "unknown error";
              }
              break;
            // The non-ok, non-failure outcomes carry fixed messages and
            // no payload -- the record is byte-identical however many
            // items happened to run before the cancel landed.
            case sweep::JobOutcome::kCancelled:
              state->value.status = JobStatus::kCancelled;
              state->value.error = "job cancelled";
              break;
            case sweep::JobOutcome::kDeadlineExceeded:
              state->value.status = JobStatus::kDeadlineExceeded;
              state->value.error = "job deadline exceeded";
              break;
          }
          state->done = true;
          callback = std::move(state->callback);
        }
        state->cv.notify_all();
        // Outside the state mutex: the callback may take locks of its
        // own (the net layer's completion queue) and must never
        // deadlock against a concurrent ready()/wait().
        if (callback) callback();
      },
      options);

  bool accepting = true;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    state->id = id;
    accepting = accepting_;
  }
  if (!accepting) {
    // shutdown() raced between admission and enqueue and so missed this
    // job's id; apply its still-queued policy ourselves.
    pool_->cancel_if_unstarted(id);
  }
  return JobHandle<JobResult>(std::move(state));
}

void Service::drain() { pool_->drain(); }

void Service::shutdown(
    std::optional<std::chrono::milliseconds> drain_deadline) {
  std::vector<std::pair<std::shared_ptr<detail::JobState>, JobId>> live;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    live.reserve(live_states_.size());
    for (const auto& [ptr, st] : live_states_) live.emplace_back(st, st->id);
  }
  // Still-queued (no item started) jobs fail fast as cancelled --
  // resolved on this thread, before the drain, so their handles are
  // ready even while in-flight jobs are still running. id 0 means the
  // submitter has not enqueued the job yet; its own post-enqueue
  // accepting_ check applies this same policy.
  for (const auto& [st, id] : live) {
    if (id != 0) pool_->cancel_if_unstarted(id);
  }
  if (drain_deadline && !pool_->drain_for(*drain_deadline)) {
    // Patience exhausted: cancel the stragglers cooperatively. Their
    // handles still resolve (as kCancelled) once running items hit a
    // task boundary or finish -- shutdown never abandons a handle.
    for (const auto& [st, id] : live) {
      if (st->token) st->token->request();
      if (id != 0) pool_->cancel(id);
    }
  }
  pool_->drain();
  pool_->stop();
}

Service::CacheStats Service::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats stats = stats_;
  // Resident-set sizes are counted at query time: the running counters
  // above survive artifact eviction, these reflect what eviction left.
  for (const auto& entry : registry_) {
    for (const auto& [codec, slot] : entry->images) {
      if (slot.ready()) ++stats.images.entries;
    }
    for (const auto& [k, slot] : entry->geometry) {
      if (slot.ready()) ++stats.frontiers.entries;
    }
  }
  return stats;
}

unsigned Service::workers() const { return pool_->workers(); }

const ArtifactSlot* Service::frontier_slot(WorkloadId id,
                                          unsigned predecompress_k) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(id < registry_.size(), "unknown workload id");
  const auto& geometry = registry_[id]->geometry;
  const auto it = geometry.find(predecompress_k);
  return it == geometry.end() ? nullptr : &it->second;
}

}  // namespace apcc::serving
