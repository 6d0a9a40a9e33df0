#include "serving/service.hpp"

#include <map>
#include <thread>
#include <utility>

#include "compress/codec.hpp"
#include "support/strings.hpp"

namespace apcc::serving {

namespace {

/// Thrown inside a work item when its job's cancellation was observed
/// mid-artifact-resolution: unwinds back to the item wrapper (rolling
/// back any claimed-but-unbuilt artifact on the way), where it is
/// swallowed -- a cancelled item retires quietly, it does not fail the
/// job. Never escapes service.cpp.
struct JobCancelled {};

}  // namespace

/// Claim-build / wait handshake around one (workload, codec) compressed
/// image. Same shape as runtime::SharedFrontier: the first cell that
/// needs the artifact builds it on its own (pool) thread off the slot
/// lock; concurrent cells block on the cv; afterwards the image is
/// immutable and borrowed without locks. A builder that throws -- or
/// observes its job's cancellation -- rolls the claim back to kIdle so
/// waiters re-claim instead of deadlocking. Eviction reuses the same
/// state machine: a ready, unpinned slot drops its image and returns
/// to kIdle, so the next claim rebuilds it bit-identically (an
/// ordinary miss -- failed_before stays untouched).
struct Service::ImageSlot {
  enum class State : std::uint8_t { kIdle, kBuilding, kReady };

  std::mutex mutex;
  std::condition_variable ready_cv;
  State state = State::kIdle;
  /// The last claim of this slot rolled back (build failure or builder
  /// cancellation); the next claim counts as a cache *rebuild*.
  bool failed_before = false;
  /// Borrow refcount: every borrow (and the builder's own publish)
  /// pins, the cell's CellLease unpins at retirement; the eviction
  /// pass never selects a pinned slot. Guarded by `mutex`.
  std::size_t pins = 0;
  std::unique_ptr<const runtime::BlockImage> image;

  // -- eviction ledger, guarded by Service::mutex_, NOT by `mutex` ----
  std::uint64_t bytes = 0;         // resident bytes (0 = not resident)
  std::uint64_t rebuild_cost = 0;  // estimate_image_cost at publish
  std::uint64_t last_use = 0;      // cache_clock_ at last borrow/publish
};

Service::CellLease::CellLease(CellLease&& other) noexcept {
  *this = std::move(other);
}

Service::CellLease& Service::CellLease::operator=(
    CellLease&& other) noexcept {
  if (this != &other) {
    release();
    image_ = other.image_;
    frontier_ = other.frontier_;
    other.image_ = nullptr;
    other.frontier_ = nullptr;
  }
  return *this;
}

Service::CellLease::~CellLease() { release(); }

void Service::CellLease::release() {
  // Only slot-level locks here (never Service::mutex_): release runs on
  // pool threads at cell retirement and must not contend with the
  // registry. The newly unpinned artifact stays resident until the next
  // publish re-evaluates the budget -- eviction is publish-driven.
  if (image_ != nullptr) {
    const std::lock_guard<std::mutex> lock(image_->mutex);
    APCC_CHECK(image_->pins > 0, "image lease released without a pin");
    --image_->pins;
    image_ = nullptr;
  }
  if (frontier_ != nullptr) {
    frontier_->unpin();
    frontier_ = nullptr;
  }
}

/// One registered workload plus its image artifacts. The workload lives
/// behind a unique_ptr so its Cfg / trace / bytes keep stable addresses
/// for the cache keys and the borrowing engines; map nodes are stable
/// too, so slot pointers stay valid while other keys are inserted.
/// (Frontier geometry lives in the service-wide frontiers_ map, keyed
/// by runtime::FrontierKey -- CFG identity + k.)
struct Service::Registered {
  std::unique_ptr<const workloads::Workload> workload;
  std::map<compress::CodecKind, std::unique_ptr<ImageSlot>> images;
};

Service::Service(ServiceOptions options)
    : limits_(options.limits),
      client_weights_(std::move(options.client_weights)),
      budget_(options.cache_budget),
      faults_(std::move(options.faults)) {
  unsigned workers = options.workers != 0
                         ? options.workers
                         : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  pool_ = std::make_shared<sweep::Pool>(
      sweep::PoolOptions{workers, options.fair_share});
}

Service::~Service() { shutdown(std::nullopt); }

WorkloadId Service::register_workload(workloads::Workload workload) {
  auto entry = std::make_unique<Registered>();
  entry->workload =
      std::make_unique<const workloads::Workload>(std::move(workload));
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

const runtime::BlockImage& Service::image_for(
    Registered& entry, const core::SystemConfig& config,
    const sweep::CancelToken* token, CellLease& lease) {
  ImageSlot* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& owned = entry.images[config.codec];
    if (!owned) owned = std::make_unique<ImageSlot>();
    slot = owned.get();
  }

  std::unique_lock<std::mutex> slot_lock(slot->mutex);
  for (;;) {
    // A cancelled job stops resolving artifacts -- before claiming, and
    // before every re-claim attempt after a rolled-back build.
    if (token && token->cancelled()) throw JobCancelled{};
    if (slot->state == ImageSlot::State::kReady) {
      // Pin before the slot lock drops: ready-check and pin are one
      // atomic step, so the eviction pass can never reclaim the image
      // between our check and our borrow.
      ++slot->pins;
      lease.image_ = slot;
      const runtime::BlockImage& image = *slot->image;
      slot_lock.unlock();
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.images.borrows;
      ++stats_.images.hits;
      slot->last_use = ++cache_clock_;
      return image;
    }
    if (slot->state == ImageSlot::State::kIdle) {
      const bool rebuild = slot->failed_before;
      slot->state = ImageSlot::State::kBuilding;
      slot_lock.unlock();
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.images.misses;
        if (rebuild) ++stats_.images.rebuilds;
      }
      // Build off the lock: exactly what from_workload does -- train
      // the codec on the registered block bytes, then compress them
      // into the image's arenas -- so a cached image is byte-identical
      // to a per-call one (and a rebuilt-after-eviction image
      // byte-identical to the first).
      const workloads::Workload& w = *entry.workload;
      std::unique_ptr<const runtime::BlockImage> image;
      std::uint64_t original_bytes = 0;
      try {
        if (token && token->cancelled()) throw JobCancelled{};
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
        for (const compress::Bytes& b : w.block_bytes) {
          original_bytes += b.size();
        }
        image = std::make_unique<const runtime::BlockImage>(
            w.cfg, w.block_bytes,
            compress::make_codec(config.codec, w.block_bytes));
      } catch (...) {
        // Roll the claim back and wake waiters so they re-claim (and
        // hit the build failure themselves, or build it afresh after a
        // cancelled builder) rather than deadlock on a ready flip that
        // will never come.
        slot_lock.lock();
        slot->state = ImageSlot::State::kIdle;
        slot->failed_before = true;
        slot->ready_cv.notify_all();
        throw;
      }
      slot_lock.lock();
      slot->image = std::move(image);
      slot->state = ImageSlot::State::kReady;
      slot->failed_before = false;
      // The builder borrows what it just built -- pinned before anyone
      // can observe the ready flip, so the publish-time eviction pass
      // below (or a concurrent one) can never reclaim the image out
      // from under this cell.
      ++slot->pins;
      lease.image_ = slot;
      const runtime::BlockImage& built = *slot->image;
      const std::uint64_t resident = built.resident_bytes();
      slot->ready_cv.notify_all();
      slot_lock.unlock();
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.images.built;
      stats_.images.bytes += resident;
      slot->bytes = resident;
      slot->rebuild_cost = estimate_image_cost(original_bytes);
      slot->last_use = ++cache_clock_;
      ++publish_count_;
      evict_over_budget_locked();
      return built;
    }
    slot->ready_cv.wait(slot_lock, [&] {
      return slot->state != ImageSlot::State::kBuilding;
    });
  }
}

const runtime::FrontierCache* Service::frontiers_for(
    Registered& entry, unsigned k, const sweep::CancelToken* token,
    CellLease& lease) {
  if (token && token->cancelled()) throw JobCancelled{};
  const runtime::FrontierKey key{&entry.workload->cfg, k};
  runtime::SharedFrontier* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    FrontierLedger& ledger = frontiers_[key];
    if (!ledger.shared) {
      ledger.shared =
          std::make_unique<runtime::SharedFrontier>(entry.workload->cfg, k);
    }
    slot = ledger.shared.get();
  }
  bool built = false;
  const runtime::FrontierCache* cache = nullptr;
  try {
    // The ready-check (or the builder's own ready flip) and the pin
    // happen under one slot-lock hold, so an eviction pass can never
    // slip between them. The pin is handed to the lease below.
    cache = slot->acquire(&built);
  } catch (...) {
    // This caller claimed the build and it threw (SharedFrontier rolled
    // its own claim back): a miss, and a rebuild if the key had failed
    // before.
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.frontiers.misses;
    if (!frontier_failed_.insert(key).second) ++stats_.frontiers.rebuilds;
    throw;
  }
  lease.frontier_ = slot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    FrontierLedger& ledger = frontiers_.find(key)->second;
    ledger.last_use = ++cache_clock_;
    if (built) {
      ++stats_.frontiers.built;
      ++stats_.frontiers.misses;
      const std::uint64_t resident = cache->resident_bytes();
      stats_.frontiers.bytes += resident;
      ledger.bytes = resident;
      ledger.rebuild_cost =
          estimate_frontier_cost(entry.workload->cfg.block_count(), k);
      if (frontier_failed_.erase(key) != 0) ++stats_.frontiers.rebuilds;
      ++publish_count_;
      evict_over_budget_locked();
    } else {
      ++stats_.frontiers.borrows;
      ++stats_.frontiers.hits;
    }
  }
  return cache;
}

void Service::evict_over_budget_locked() {
  const bool forced = faults_ != nullptr && faults_->evict_at_publish != 0 &&
                      publish_count_ == faults_->evict_at_publish;
  if (!forced && budget_.unbounded()) return;

  // Snapshot the resident artifacts into policy views, in deterministic
  // order (registry index, then codec key; then frontier key). Pins are
  // read under each slot's lock (mutex_ -> slot order); a borrow that
  // lands after the snapshot is caught by the apply-time re-check.
  struct Resident {
    ImageSlot* image = nullptr;        // exactly one of image /
    FrontierLedger* frontier = nullptr;  // frontier is set
    CacheEntry entry;
  };
  std::vector<Resident> residents;
  std::vector<std::size_t> image_indices;
  std::vector<std::size_t> frontier_indices;
  for (const auto& registered : registry_) {
    for (const auto& [codec, slot] : registered->images) {
      if (slot->bytes == 0) continue;  // never published, or evicted
      bool pinned = false;
      {
        const std::lock_guard<std::mutex> slot_lock(slot->mutex);
        pinned = slot->pins != 0;
      }
      image_indices.push_back(residents.size());
      residents.push_back(
          {slot.get(), nullptr,
           CacheEntry{slot->bytes, slot->rebuild_cost, slot->last_use,
                      pinned}});
    }
  }
  for (auto& [key, ledger] : frontiers_) {
    if (ledger.bytes == 0) continue;
    frontier_indices.push_back(residents.size());
    residents.push_back(
        {nullptr, &ledger,
         CacheEntry{ledger.bytes, ledger.rebuild_cost, ledger.last_use,
                    ledger.shared->pins() != 0}});
  }

  // Evict one victim; the apply-time ready/pinned re-check under the
  // slot's own lock is authoritative (a racing borrow exempts the
  // artifact this pass). On success, zero the snapshot bytes so later
  // passes see the post-eviction resident set; on failure, mark the
  // snapshot pinned so they stop retrying it.
  const auto apply = [this](Resident& r) {
    std::uint64_t freed = 0;
    if (r.image != nullptr) {
      {
        const std::lock_guard<std::mutex> slot_lock(r.image->mutex);
        if (r.image->state != ImageSlot::State::kReady ||
            r.image->pins != 0) {
          r.entry.pinned = true;
          return;
        }
        r.image->image.reset();
        r.image->state = ImageSlot::State::kIdle;
      }
      freed = r.image->bytes;
      r.image->bytes = 0;
      ++stats_.images.evictions;
      stats_.images.evicted_bytes += freed;
      stats_.images.bytes -= freed;
    } else {
      if (!r.frontier->shared->evict()) {
        r.entry.pinned = true;
        return;
      }
      freed = r.frontier->bytes;
      r.frontier->bytes = 0;
      ++stats_.frontiers.evictions;
      stats_.frontiers.evicted_bytes += freed;
      stats_.frontiers.bytes -= freed;
    }
    r.entry.bytes = 0;
  };

  const auto run_pass = [&](const std::vector<std::size_t>& subset,
                            std::uint64_t budget) {
    std::vector<CacheEntry> view;
    view.reserve(subset.size());
    for (const std::size_t idx : subset) view.push_back(residents[idx].entry);
    for (const std::size_t victim :
         plan_evictions(view, budget, cache_clock_)) {
      apply(residents[subset[victim]]);
    }
  };

  if (forced) {
    // The fault plan's flush: every unpinned resident artifact goes,
    // whatever the configured budget -- budget 0 to the pure policy
    // means exactly that.
    std::vector<std::size_t> all(residents.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    run_pass(all, 0);
    return;
  }
  if (budget_.image_bytes != 0) run_pass(image_indices, budget_.image_bytes);
  if (budget_.frontier_bytes != 0) {
    run_pass(frontier_indices, budget_.frontier_bytes);
  }
  if (budget_.total_bytes != 0) {
    std::vector<std::size_t> all(residents.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    run_pass(all, budget_.total_bytes);
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
        image =
            &image_for(target, ctx->spec.config, state->token.get(), lease);
        sim::EngineConfig config = ctx->grid[t].config;
        config.shared_frontiers =
            frontiers_for(target, config.policy.predecompress_k,
                          state->token.get(), lease);
        configs.push_back(config);
        cells.push_back(t);
        leases.push_back(std::move(lease));
      } catch (const JobCancelled&) {
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
  pool_->stop(sweep::StopMode::kDrain);
}

Service::CacheStats Service::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats stats = stats_;
  // Resident-set sizes are counted at query time: the running counters
  // above survive artifact eviction, these reflect what eviction left.
  for (const auto& entry : registry_) {
    for (const auto& [codec, slot] : entry->images) {
      const std::lock_guard<std::mutex> slot_lock(slot->mutex);
      if (slot->image) ++stats.images.entries;
    }
  }
  for (const auto& [key, ledger] : frontiers_) {
    if (ledger.shared->ready()) ++stats.frontiers.entries;
  }
  return stats;
}

unsigned Service::workers() const { return pool_->workers(); }

const runtime::SharedFrontier* Service::frontier_slot(
    WorkloadId id, unsigned predecompress_k) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  APCC_CHECK(id < registry_.size(), "unknown workload id");
  const runtime::FrontierKey key{&registry_[id]->workload->cfg,
                                 predecompress_k};
  const auto it = frontiers_.find(key);
  return it == frontiers_.end() ? nullptr : it->second.shared.get();
}

}  // namespace apcc::serving
