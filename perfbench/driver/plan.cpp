// Workload definitions: programs, tenants, and the seeded job list.
//
// Every workload draws a *fixed multiset* of jobs and lets the seed
// decide only their order and (open loop) their arrival times, so the
// cells a run simulates -- and with them sim_slowdown and
// sim_peak_mem_pct -- are the same for every seed, while the schedule
// the served stack sees is not.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "core/system.hpp"
#include "runtime/policy.hpp"

namespace perfbench {

using apcc::compress::CodecKind;
using apcc::runtime::DecompressionStrategy;
using apcc::serving::JobKind;
using apcc::serving::JobSpec;
using apcc::sweep::SweepTask;

namespace {

constexpr DecompressionStrategy kStrategies[] = {
    DecompressionStrategy::kOnDemand, DecompressionStrategy::kPreAll,
    DecompressionStrategy::kPreSingle};
constexpr unsigned kKs[] = {1, 2, 4, 8};

SweepTask make_task(DecompressionStrategy strategy, unsigned k,
                    std::uint64_t budget = apcc::runtime::Policy::kUnbounded) {
  SweepTask task;
  task.label = std::string(apcc::runtime::strategy_name(strategy)) +
               "/k=" + std::to_string(k);
  if (budget != apcc::runtime::Policy::kUnbounded) {
    task.label += "/budget=" + std::to_string(budget);
  }
  task.config = apcc::core::engine_config(apcc::core::SystemConfig{});
  task.config.policy.strategy = strategy;
  task.config.policy.compress_k = k;
  task.config.policy.predecompress_k = k;
  task.config.policy.memory_budget = budget;
  return task;
}

/// The standard 12-cell strategy x k grid.
std::vector<SweepTask> strategy_k_tasks() {
  std::vector<SweepTask> tasks;
  for (const auto s : kStrategies) {
    for (const unsigned k : kKs) tasks.push_back(make_task(s, k));
  }
  return tasks;
}

JobSpec base_spec(JobKind kind, const Tenant& tenant) {
  JobSpec spec;
  spec.kind = kind;
  spec.client = tenant.tag;
  spec.priority = tenant.priority;
  return spec;
}

std::vector<ProgramSpec> suite_programs() {
  std::vector<ProgramSpec> programs;
  for (const auto kind : apcc::workloads::all_workload_kinds()) {
    ProgramSpec p;
    p.name = apcc::workloads::workload_name(kind);
    p.suite = kind;
    programs.push_back(std::move(p));
  }
  return programs;
}

/// Largest basic block over the suite: the tight campaign budget is
/// sized from it so it is valid for every program.
std::uint64_t largest_suite_block() {
  std::uint64_t largest = 0;
  for (const auto& spec : suite_programs()) {
    const auto w = build_program(spec);
    for (const auto& b : w.block_bytes) {
      largest = std::max<std::uint64_t>(largest, b.size());
    }
  }
  return largest;
}

/// One cheap campaign over every program at every k: builds each
/// program's default-codec image and all of its geometry slots.
Job warm_all(const Plan& plan) {
  Job warm;
  warm.spec = base_spec(JobKind::kCampaign, plan.tenants[0]);
  for (const auto& p : plan.programs) warm.spec.workloads.push_back(p.name);
  for (const unsigned k : kKs) {
    warm.spec.tasks.push_back(make_task(DecompressionStrategy::kOnDemand, k));
  }
  return warm;
}

// ------------------------------------------------------ campaign-suite

Plan campaign_suite(std::uint64_t seed, double seconds) {
  Plan plan;
  plan.programs = suite_programs();
  plan.tenants = {{"researcher", apcc::sweep::Priority::kNormal, 1}};
  plan.setups = 15;
  const std::uint64_t tight = largest_suite_block() * 3 / 2;
  std::vector<SweepTask> grid;
  for (const auto s : kStrategies) {
    for (const unsigned k : kKs) {
      grid.push_back(make_task(s, k));
      grid.push_back(make_task(s, k, tight));
    }
  }
  std::vector<std::string> names;
  for (const auto& p : plan.programs) names.push_back(p.name);

  Rng rng(seed);
  const auto count =
      std::max<std::size_t>(20, static_cast<std::size_t>(seconds * 4.0));
  const std::uint64_t parity = rng.below(2);
  for (std::size_t i = 0; i < count; ++i) {
    Job job;
    job.spec = base_spec(JobKind::kCampaign, plan.tenants[0]);
    job.spec.workloads = names;
    rng.shuffle(job.spec.workloads);
    job.spec.tasks = grid;
    rng.shuffle(job.spec.tasks);
    job.spec.batch_cells = (i + parity) % 2 == 0 ? 0 : plan.batched_width;
    plan.jobs.push_back(std::move(job));
  }
  plan.phases.push_back(Phase{"closed", Loop::kClosed, 0, 1, 0,
                              plan.jobs.size(), true, false, true});

  // Warm-up: the workload's own job once (the whole grid, unbatched), so
  // set-up is dominated by work rather than by thread start-up.
  Job warm;
  warm.spec = base_spec(JobKind::kCampaign, plan.tenants[0]);
  warm.spec.workloads = names;
  warm.spec.tasks = grid;
  plan.warmup.push_back(std::move(warm));
  return plan;
}

// --------------------------------------------------------- serve-mixed

/// One serve-mixed phase's fixed job multiset: `n` jobs split over the
/// tenants by share, program/k assigned round-robin over each tenant's
/// menu, then shuffled.
std::vector<Job> mixed_jobs(const Plan& plan, std::size_t n, Rng& rng) {
  static const double kShare[] = {0.62, 0.33, 0.05};
  const std::vector<SweepTask> grid = strategy_k_tasks();
  std::vector<Job> jobs;
  std::size_t rr = 0;  // round-robin cursor over (program, k)
  const std::size_t programs = plan.programs.size();
  const auto next_program_k = [&](std::size_t& p, unsigned& k) {
    p = rr % programs;
    k = kKs[2 + (rr / programs) % 2];
    ++rr;
  };
  for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
    const auto count = static_cast<std::size_t>(
        std::llround(kShare[t] * static_cast<double>(n)));
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t p = 0;
      unsigned k = 0;
      next_program_k(p, k);
      Job job;
      job.tenant = t;
      const Tenant& tenant = plan.tenants[t];
      // latency-tier: on-demand runs; standard: pre-all runs and one
      // 12-cell sweep in ten; bulk: batched 12-cell sweeps.
      const bool sweep = t == 2 || (t == 1 && i % 10 == 9);
      if (sweep) {
        job.spec = base_spec(JobKind::kSweep, tenant);
        job.spec.tasks = grid;
        job.spec.batch_cells = t == 2 ? 4 : 0;
      } else {
        job.spec = base_spec(JobKind::kRun, tenant);
        job.spec.config.policy.strategy = t == 0
                                              ? DecompressionStrategy::kOnDemand
                                              : DecompressionStrategy::kPreAll;
        job.spec.config.policy.compress_k = k;
        job.spec.config.policy.predecompress_k = k;
      }
      job.spec.workloads = {plan.programs[p].name};
      jobs.push_back(std::move(job));
    }
  }
  rng.shuffle(jobs);
  return jobs;
}

Plan serve_mixed(std::uint64_t seed, double seconds) {
  Plan plan;
  // The five small kernels: a run job costs 0.2-1.5 ms of engine time,
  // so the front door's own per-job cost is a visible share.
  for (auto& p : suite_programs()) {
    using K = apcc::workloads::WorkloadKind;
    if (*p.suite == K::kAdpcmLike || *p.suite == K::kMpeg2Like ||
        *p.suite == K::kG721Like) {
      continue;
    }
    plan.programs.push_back(std::move(p));
  }
  plan.tenants = {{"latency-tier", apcc::sweep::Priority::kNormal, 4},
                  {"standard", apcc::sweep::Priority::kNormal, 2},
                  {"bulk", apcc::sweep::Priority::kBatch, 1}};
  plan.setups = 15;
  plan.slo_ms = 50.0;
  // Interactive p99 here is set by stalls of the shared VM host (it swung
  // 26-179 ms between runs of unchanged code); p90 still has 380 samples
  // beyond it and moves with the served path. p99 stays in the report
  // and in max_rate_at_slo.
  plan.tail_cap = 0.90;
  Rng rng(seed);

  // Open loop: eight rounds at the nominal rate, interleaved with the
  // ladder's rungs (1.25x steps above it) so the latency metrics pool
  // samples from across the whole run. Poisson gaps are rescaled so a
  // round of n jobs lasts exactly n / rate seconds.
  const double scale = std::max(0.5, seconds / 15.0);
  constexpr double kNominal = 500.0;
  constexpr int kRungs = 7;
  std::vector<int> order = {0};  // 0 = a nominal round, r > 0 = rung r
  for (int r = 1; r <= kRungs; ++r) {
    order.push_back(r);
    order.push_back(0);
  }
  int round = 0;
  for (const int r : order) {
    const double rate = kNominal * std::pow(1.25, r);
    const auto n = static_cast<std::size_t>(1000 * scale);
    std::vector<Job> jobs = mixed_jobs(plan, n, rng);
    std::vector<double> gaps(jobs.size());
    double total = 0;
    for (double& g : gaps) {
      g = -std::log(1.0 - rng.unit());
      total += g;
    }
    const double span = static_cast<double>(jobs.size()) / rate;
    double t = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].due_s = t;
      t += gaps[i] / total * span;
    }
    Phase phase;
    phase.name = "rate-" + std::to_string(static_cast<int>(rate));
    if (r == 0) phase.name += "/" + std::to_string(++round);
    phase.loop = Loop::kOpen;
    phase.rate = rate;
    phase.begin = plan.jobs.size();
    phase.end = phase.begin + jobs.size();
    phase.nominal = r == 0;
    phase.ladder = true;
    plan.phases.push_back(phase);
    for (auto& j : jobs) plan.jobs.push_back(std::move(j));
  }
  // Saturation: every tenant keeps a window of jobs outstanding; the
  // mix's cells_per_s at capacity.
  {
    std::vector<Job> jobs =
        mixed_jobs(plan, static_cast<std::size_t>(3000 * scale), rng);
    Phase phase;
    phase.name = "saturate";
    phase.loop = Loop::kClosed;
    phase.window = 8;
    phase.begin = plan.jobs.size();
    phase.end = phase.begin + jobs.size();
    phase.throughput = true;
    plan.phases.push_back(phase);
    for (auto& j : jobs) plan.jobs.push_back(std::move(j));
  }
  plan.warmup.push_back(warm_all(plan));
  return plan;
}

// ------------------------------------------------------ artifact-churn

Plan artifact_churn(std::uint64_t seed, double seconds) {
  Plan plan;
  constexpr std::size_t kPrograms = 16;
  for (std::size_t i = 0; i < kPrograms; ++i) {
    ProgramSpec p;
    p.name = "random-" + std::to_string(i);
    p.random.seed = 9001 + i;
    p.random.max_depth = 3;
    p.random.statements_per_body = 40;
    p.random.leaf_functions = 16;
    p.random.loop_iters_max = 6;
    plan.programs.push_back(std::move(p));
  }
  plan.tenants = {{"churn", apcc::sweep::Priority::kNormal, 1}};
  plan.setups = 3;
  plan.budget.total_bytes = 16ull << 20;

  // Key space (program, codec, k) with fixed Zipf-like popularity: the
  // rank order is a fixed permutation, so the timed multiset is the same
  // for every seed; the seed only orders it.
  struct Key {
    std::size_t program;
    CodecKind codec;
    unsigned k;
  };
  std::vector<Key> keys;
  for (std::size_t p = 0; p < kPrograms; ++p) {
    for (const CodecKind c : kept_codecs()) {
      for (const unsigned k : kKs) keys.push_back({p, c, k});
    }
  }
  Rng ranks(0xC0FFEE);
  ranks.shuffle(keys);
  const auto multiset = [&](std::size_t n) {
    std::vector<double> weight(keys.size());
    for (std::size_t r = 0; r < keys.size(); ++r) {
      weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), 0.9);
    }
    const double sum = std::accumulate(weight.begin(), weight.end(), 0.0);
    std::vector<Key> out;
    for (std::size_t r = 0; r < keys.size(); ++r) {
      const auto m = std::max<long long>(
          1, std::llround(weight[r] / sum * static_cast<double>(n)));
      for (long long i = 0; i < m; ++i) out.push_back(keys[r]);
    }
    return out;
  };
  const auto to_job = [&](const Key& key) {
    Job job;
    job.spec = base_spec(JobKind::kSweep, plan.tenants[0]);
    job.spec.workloads = {plan.programs[key.program].name};
    job.spec.config.codec = key.codec;
    job.spec.tasks = {make_task(DecompressionStrategy::kOnDemand, key.k),
                      make_task(DecompressionStrategy::kPreAll, key.k)};
    return job;
  };
  Rng rng(seed);
  // Warm-up prefix: the stream's first jobs, drawn from the same
  // popularity, long enough to fill the cache to its budget.
  std::vector<Key> warm = multiset(512);
  rng.shuffle(warm);
  warm.resize(64);
  for (const Key& k : warm) plan.warmup.push_back(to_job(k));
  std::vector<Key> timed =
      multiset(static_cast<std::size_t>(std::max(10.0, seconds) * 60.0));
  rng.shuffle(timed);
  for (const Key& k : timed) plan.jobs.push_back(to_job(k));
  plan.phases.push_back(Phase{"closed", Loop::kClosed, 0, 1, 0,
                              plan.jobs.size(), true, false, true});
  return plan;
}

}  // namespace

const std::vector<CodecKind>& kept_codecs() {
  static const std::vector<CodecKind> codecs = {
      CodecKind::kSharedHuffman, CodecKind::kCodePack, CodecKind::kLzss,
      CodecKind::kFieldSplit};
  return codecs;
}

Plan make_plan(const std::string& workload, std::uint64_t seed,
               double seconds) {
  Plan plan;
  if (workload == "campaign-suite") {
    plan = campaign_suite(seed, seconds);
  } else if (workload == "serve-mixed") {
    plan = serve_mixed(seed, seconds);
  } else if (workload == "artifact-churn") {
    plan = artifact_churn(seed, seconds);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  plan.workload = workload;
  plan.seed = seed;
  return plan;
}

apcc::workloads::Workload build_program(const ProgramSpec& spec) {
  if (spec.suite) return apcc::workloads::make_workload(*spec.suite);
  auto w = apcc::workloads::make_random_workload(spec.random);
  w.name = spec.name;
  return w;
}

std::string Cell::key() const {
  const auto& p = config.policy;
  return std::to_string(program) + '|' +
         apcc::compress::codec_kind_name(codec) + '|' +
         apcc::runtime::strategy_name(p.strategy) + '|' +
         std::to_string(p.compress_k) + '|' +
         std::to_string(p.predecompress_k) + '|' +
         std::to_string(p.memory_budget);
}

std::vector<Cell> job_cells(const JobSpec& spec,
                            const std::map<std::string, std::size_t>& index) {
  std::vector<Cell> cells;
  const auto program = [&](const std::string& ref) {
    return index.at(ref);
  };
  switch (spec.kind) {
    case JobKind::kRun:
      cells.push_back({program(spec.workloads.at(0)), spec.config.codec,
                       apcc::core::engine_config(spec.config)});
      break;
    case JobKind::kSweep:
      for (const auto& t : spec.tasks) {
        cells.push_back(
            {program(spec.workloads.at(0)), spec.config.codec, t.config});
      }
      break;
    case JobKind::kCampaign:
      for (const auto& w : spec.workloads) {
        for (const auto& t : spec.tasks) {
          cells.push_back({program(w), spec.config.codec, t.config});
        }
      }
      break;
  }
  return cells;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double tail_quantile(std::size_t n) {
  if (n < 20) throw std::logic_error("tail_quantile: fewer than 20 samples");
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

}  // namespace perfbench
