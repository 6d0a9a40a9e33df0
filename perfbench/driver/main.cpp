// perfbench driver entry point.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// Prints a human-readable report, a `perfbench-detail {...}` line with
// the exactly-repeatable values (digests, simulated metrics, cache
// counts), and last one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exits 1 when any job failed (naming the first bad one), 2 on a usage
// or set-up error.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "layers.hpp"
#include "serve.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("a metric is not finite");
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Cumulative (steal, all) jiffies over every CPU from /proc/stat's
/// first line: the host's steal share of a phase, for the report.
std::pair<double, double> steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0;
  double total = 0;
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    stat >> v;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Hand the heap's free memory back to the OS and restart the kernel's
/// RSS high-water mark (clear_refs "5"), so that peak_rss_mb covers the
/// timed pass alone, not the reference pass or glibc's hold on what
/// the discarded set-ups freed (which swung it by a sixth between runs).
/// Where the reset is refused, VmHWM covers the whole process.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

const Phase& phase_where(const Plan& plan, bool Phase::*flag) {
  for (const Phase& p : plan.phases) {
    if (p.*flag) return p;
  }
  throw std::logic_error("plan has no such phase");
}

/// Job latencies of the answered jobs of `phase`, batch class left out:
/// batch jobs have no latency objective (they run when nothing else
/// waits), so the latency metrics are those of the interactive classes.
std::vector<double> latencies(const Plan& plan, const Phase& phase,
                              const PassResult& pass) {
  std::vector<double> out;
  for (std::size_t j = phase.begin; j < phase.end; ++j) {
    const bool batch = plan.tenants[plan.jobs[j].tenant].priority ==
                       apcc::sweep::Priority::kBatch;
    if (pass.jobs[j].answered && !batch) {
      out.push_back(pass.jobs[j].latency_ms(phase.loop));
    }
  }
  return out;
}

struct Simulated {
  double slowdown = 0;   // geometric mean of total/baseline cycles
  double peak_mem_pct = 0;
  std::size_t cells = 0;
};

/// Simulated metrics over the timed cells of every correctly answered
/// job (its bytes equal the reference, so the reference values are the
/// served values). Summed per distinct cell in key order, so the value
/// does not depend on the order the seed put the jobs in.
Simulated simulated(const Plan& plan, const Reference& ref,
                    const PassResult& pass) {
  Simulated s;
  std::map<std::string, std::pair<std::size_t, std::size_t>> uses;
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    if (!pass.jobs[j].ok) continue;
    for (const std::size_t c : plan.jobs[j].cells) {
      auto& [cell, count] = uses[ref.cells[c].key()];
      cell = c;
      ++count;
    }
  }
  double log_sum = 0;
  double mem_sum = 0;
  for (const auto& [key, use] : uses) {
    const auto& r = ref.results[use.first];
    const auto n = static_cast<double>(use.second);
    log_sum += n * std::log(static_cast<double>(r.total_cycles) /
                            static_cast<double>(r.baseline_cycles));
    mem_sum += n * 100.0 * static_cast<double>(r.peak_occupancy_bytes) /
               static_cast<double>(r.original_image_bytes);
    s.cells += use.second;
  }
  if (s.cells > 0) {
    s.slowdown = std::exp(log_sum / static_cast<double>(s.cells));
    s.peak_mem_pct = mem_sum / static_cast<double>(s.cells);
  }
  return s;
}

/// Throughput of the throughput phase as the median over ten chunks of
/// consecutive completions (each chunk's cells over the wall time since
/// the previous chunk ended), so a burst of host noise inside a run
/// moves one chunk, not the figure.
double chunked_cells_per_s(const Plan& plan, const PassResult& pass) {
  const std::size_t p = static_cast<std::size_t>(
      &phase_where(plan, &Phase::throughput) - plan.phases.data());
  const Phase& phase = plan.phases[p];
  std::vector<std::size_t> done;
  for (std::size_t j = phase.begin; j < phase.end; ++j) {
    if (pass.jobs[j].ok) done.push_back(j);
  }
  std::sort(done.begin(), done.end(), [&](std::size_t a, std::size_t b) {
    return pass.jobs[a].arrival < pass.jobs[b].arrival;
  });
  constexpr std::size_t kChunks = 10;
  if (done.size() < kChunks) return 0;
  std::vector<double> rates;
  Clock::time_point from = pass.phases[p].start;
  for (std::size_t k = 0; k < kChunks; ++k) {
    const std::size_t lo = done.size() * k / kChunks;
    const std::size_t hi = done.size() * (k + 1) / kChunks;
    std::size_t cells = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      cells += plan.jobs[done[i]].cells.size();
    }
    const Clock::time_point to = pass.jobs[done[hi - 1]].arrival;
    rates.push_back(static_cast<double>(cells) / (ms_between(from, to) / 1e3));
    from = to;
  }
  return percentile(rates, 0.5);
}

std::size_t failed_jobs(const PassResult& pass) {
  std::size_t failed = 0;
  for (const Outcome& o : pass.jobs) failed += o.ok ? 0 : 1;
  return failed;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void print_report(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The highest ladder rate (with every lower rate) whose interactive
/// job p99 -- pooled over the phases at that rate -- meets the SLO, with
/// every job answered correctly and no phase leaving more jobs in flight
/// at its last send than Little's law allows at the SLO.
double max_rate_at_slo(const Plan& plan, const PassResult& pass) {
  std::map<double, std::vector<std::size_t>> rungs;
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    if (plan.phases[p].ladder) rungs[plan.phases[p].rate].push_back(p);
  }
  double best = 0;
  for (const auto& [rate, phases] : rungs) {
    bool ok = true;
    std::vector<double> lat;
    for (const std::size_t p : phases) {
      const Phase& phase = plan.phases[p];
      for (std::size_t j = phase.begin; j < phase.end; ++j) {
        ok &= pass.jobs[j].ok;
      }
      const auto l = latencies(plan, phase, pass);
      lat.insert(lat.end(), l.begin(), l.end());
      ok &= static_cast<double>(pass.phases[p].inflight_at_last_send) <=
            rate * plan.slo_ms / 1000.0;
    }
    if (!ok || percentile(lat, 0.99) > plan.slo_ms) break;
    best = rate;
  }
  return best;
}

std::string cache_json(const apcc::serving::CacheStats& before,
                       const apcc::serving::CacheStats& after) {
  const auto kind = [](const apcc::serving::ArtifactStats& b,
                       const apcc::serving::ArtifactStats& a) {
    return "{\"hits\": " + std::to_string(a.hits - b.hits) +
           ", \"misses\": " + std::to_string(a.misses - b.misses) +
           ", \"built\": " + std::to_string(a.built - b.built) +
           ", \"evictions\": " + std::to_string(a.evictions - b.evictions) +
           ", \"evicted_bytes\": " +
           std::to_string(a.evicted_bytes - b.evicted_bytes) +
           ", \"resident_bytes\": " + std::to_string(a.bytes) + "}";
  };
  return "{\"images\": " + kind(before.images, after.images) +
         ", \"frontiers\": " + kind(before.frontiers, after.frontiers) + "}";
}

// ------------------------------------------------------ untraced run

int run_e2e(Plan& plan, const Reference& ref) {
  std::vector<double> setups;  // CPU s
  std::vector<double> setups_wall;
  std::unique_ptr<Host> host;
  for (unsigned i = 0; i < plan.setups; ++i) {
    host.reset();
    host = std::make_unique<Host>(plan, nullptr);
    setups.push_back(host->setup_cpu_s());
    setups_wall.push_back(host->setup_s());
  }
  const auto cache_before = host->service().cache_stats();
  reset_peak_rss();
  const auto steal0 = steal_jiffies();
  const double cpu0 = process_cpu_ms();
  const PassResult pass = drive(plan, host->connections());
  const double pass_cpu_ms = process_cpu_ms() - cpu0;
  const auto steal1 = steal_jiffies();
  const auto cache_after = host->service().cache_stats();
  host.reset();

  const std::size_t failed = failed_jobs(pass);
  const Simulated sim = simulated(plan, ref, pass);
  // Job latency, pooled over the nominal phases, and the CPU cost of
  // the jobs of those that keep one job outstanding.
  std::vector<double> lat;
  std::vector<double> job_cpu;
  std::size_t rounds = 0;
  for (const Phase& phase : plan.phases) {
    if (!phase.nominal) continue;
    const auto l = latencies(plan, phase, pass);
    lat.insert(lat.end(), l.begin(), l.end());
    ++rounds;
    if (phase.loop != Loop::kClosed || phase.window != 1) continue;
    for (std::size_t j = phase.begin; j < phase.end; ++j) {
      if (pass.jobs[j].answered) job_cpu.push_back(pass.jobs[j].cpu_ms());
    }
  }
  const double tail_q = std::min(plan.tail_cap, tail_quantile(lat.size()));

  std::vector<Metric> metrics = {
      {"setup_s", percentile(setups, 0.5), "s"},
      {"cpu_ms_per_cell",
       pass_cpu_ms / static_cast<double>(std::max<std::size_t>(1, sim.cells)),
       "ms"},
  };
  // Per-job CPU cost exists only where jobs do not overlap.
  const double cpu_tail_q =
      job_cpu.size() < 20 ? 0 : tail_quantile(job_cpu.size());
  if (cpu_tail_q > 0) {
    metrics.push_back({"job_cpu_p50_ms", percentile(job_cpu, 0.5), "ms"});
    metrics.push_back(
        {"job_cpu_tail_ms", percentile(job_cpu, cpu_tail_q), "ms"});
  }
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  metrics.push_back({"sim_slowdown", sim.slowdown, "ratio"});
  metrics.push_back({"sim_peak_mem_pct", sim.peak_mem_pct, "%"});

  std::printf("perfbench %s seed=%llu: %zu jobs, %zu timed cells\n",
              plan.workload.c_str(), static_cast<unsigned long long>(plan.seed),
              plan.jobs.size(), sim.cells);
  print_report(metrics);
  std::printf("  setup_s is the median CPU time of %zu set-ups", setups.size());
  if (cpu_tail_q > 0) {
    std::printf("; job_cpu_tail_ms is p%.4g of %zu jobs", 100 * cpu_tail_q,
                job_cpu.size());
  }
  std::printf("\n  %-36s %16.6g %s\n", "failed_pct",
              100.0 * static_cast<double>(failed) /
                  static_cast<double>(plan.jobs.size()),
              "%");
  // Wall clock, reported but not gated: it moves with the host's steal.
  std::printf("  wall clock, not gated (host steal %.1f%% of all CPU time "
              "during the pass):\n",
              100.0 * (steal1.first - steal0.first) /
                  std::max(1.0, steal1.second - steal0.second));
  std::printf("  %-36s %16.6g %s\n", "setup_wall_s",
              percentile(setups_wall, 0.5), "s");
  std::printf("  %-36s %16.6g %s\n", "cells_per_s",
              chunked_cells_per_s(plan, pass), "cells/s");
  std::printf("  %-36s %16.6g %s\n", "job_p50_ms", percentile(lat, 0.5),
              "ms");
  std::printf("  %-36s %16.6g %s (p%.4g of %zu jobs from %zu nominal "
              "phase(s); their p99: %.4g ms)\n",
              "job_tail_ms", percentile(lat, tail_q), "ms", 100 * tail_q,
              lat.size(), rounds, percentile(lat, 0.99));
  if (plan.slo_ms > 0) {
    std::printf("  %-36s %16.6g %s (p99 <= %g ms)\n", "max_rate_at_slo",
                max_rate_at_slo(plan, pass), "jobs/s", plan.slo_ms);
    for (std::size_t p = 0; p < plan.phases.size(); ++p) {
      const Phase& ph = plan.phases[p];
      const auto l = latencies(plan, ph, pass);
      std::printf("    %-10s p50 %8.3f ms  p99 %8.3f ms  backlog %zu  "
                  "wall %.3f s",
                  ph.name.c_str(), percentile(l, 0.5), percentile(l, 0.99),
                  pass.phases[p].inflight_at_last_send,
                  ms_between(pass.phases[p].start, pass.phases[p].end) / 1e3);
      for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
        std::vector<double> lt;
        for (std::size_t j = ph.begin; j < ph.end; ++j) {
          if (plan.jobs[j].tenant == t && pass.jobs[j].answered) {
            lt.push_back(pass.jobs[j].latency_ms(ph.loop));
          }
        }
        std::printf("  %s p50 %.3f p90 %.3f", plan.tenants[t].tag.c_str(),
                    percentile(lt, 0.5), percentile(lt, 0.9));
      }
      std::printf("\n");
    }
  }
  std::printf("perfbench-detail {\"digest\": \"%s\", \"sim_slowdown\": %s, "
              "\"sim_peak_mem_pct\": %s, \"cache\": %s}\n",
              hex(pass.digest).c_str(), json_number(sim.slowdown).c_str(),
              json_number(sim.peak_mem_pct).c_str(),
              cache_json(cache_before, cache_after).c_str());
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %zu of %zu jobs failed; first: %s\n",
                 failed, plan.jobs.size(), pass.first_failure.c_str());
  }
  print_result(failed == 0, plan.jobs.size(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

// -------------------------------------------------------- traced run

int run_traced(Plan& plan, const Reference& ref, Tracer& tracer,
               const std::string& trace_out) {
  const Isolated iso = measure_isolated(plan, ref, tracer);
  const Phase& nominal = phase_where(plan, &Phase::nominal);

  // Untraced pass: the baseline of trace.overhead_pct.
  PassResult plain;
  {
    Host host(plan, nullptr);
    plain = drive(plan, host.connections());
  }
  // In-process replays of the nominal phase, one on each side of the
  // traced pass and averaged per job, so host drift between passes
  // cancels to first order in the TCP - in-process difference.
  const auto replay_once = [&] {
    Host host(plan, nullptr);
    return replay_inprocess(plan, nominal, host, tracer);
  };
  Replay replay = replay_once();
  // Traced pass: the same list with the server's prepare hook stamped.
  PrepareLog log;
  PassResult pass;
  apcc::serving::CacheStats cache_before;
  apcc::serving::CacheStats cache_after;
  {
    Host host(plan, &log);
    cache_before = host.service().cache_stats();
    pass = drive(plan, host.connections());
    cache_after = host.service().cache_stats();
  }
  const Replay after = replay_once();
  for (std::size_t i = 0; i < replay.latency_ms.size(); ++i) {
    replay.latency_ms[i] = (replay.latency_ms[i] + after.latency_ms[i]) / 2;
  }
  const std::size_t failed = failed_jobs(pass) + failed_jobs(plain);

  // Spans of the traced pass: job -> send / inbound (socket + framing +
  // parse, up to the prepare hook) / served (queue, run, serialize,
  // write back).
  auto marks = log.take();
  std::map<std::string, std::size_t> cursor;
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    const Phase& phase = plan.phases[p];
    for (std::size_t j = phase.begin; j < phase.end; ++j) {
      const Outcome& o = pass.jobs[j];
      if (!o.answered) continue;
      const std::string& tag = plan.tenants[plan.jobs[j].tenant].tag;
      const long root = tracer.add("client.job", o.due, o.arrival, j + 1);
      tracer.add("loadgen.late", o.due, o.send_start, j + 1, root);
      tracer.add("net.send", o.send_start, o.send_end, j + 1, root);
      const auto& m = marks[tag];
      const std::size_t k = cursor[tag]++;
      if (k < m.size()) {
        tracer.add("net.inbound", o.send_end, m[k], j + 1, root);
        tracer.add("serving.served", m[k], o.arrival, j + 1, root);
      }
    }
  }

  // Attributed time of the nominal jobs: the isolated run time of each
  // job's cells (and of the artifacts it rebuilt), the in-process
  // queueing around it, the wire codec, and the rest of the TCP
  // latency. Totals, not per-job differences, so the noise between the
  // passes does not pile up on one side.
  const std::size_t width = kPoolWidth;
  const double batched = iso.batched_factor();
  /// Isolated run time of a job's cells on the pool: its slowest cell
  /// or its total over the pool width, scaled for batched stepping.
  const auto run_ms = [&](const Job& job) {
    double sum = 0;
    double longest = 0;
    for (const std::size_t c : job.cells) {
      sum += iso.cell_ms[c];
      longest = std::max(longest, iso.cell_ms[c]);
    }
    const double scale = job.spec.batch_cells > 1 ? batched : 1.0;
    return scale * std::max(longest, sum / static_cast<double>(width));
  };
  std::vector<double> tcp;
  std::vector<double> queue;
  std::map<std::string, double> share;
  std::map<std::size_t, std::vector<double>> by_tenant;
  double tcp_total = 0;
  double inproc_total = 0;
  for (std::size_t i = 0; i < replay.latency_ms.size(); ++i) {
    const std::size_t j = nominal.begin + i;
    const Job& job = plan.jobs[j];
    const double run = run_ms(job);
    double frontier = 0;
    double image = 0;
    if (i < replay.images_built.size()) {
      const Cell& cell = ref.cells[job.cells.at(0)];
      image = static_cast<double>(replay.images_built[i]) *
              ref.image_ms.at({cell.program, cell.codec});
      frontier = static_cast<double>(replay.frontiers_built[i]) *
                 iso.frontier_ms.at(
                     {cell.program, cell.config.policy.predecompress_k});
    }
    const double l_tcp = pass.jobs[j].latency_ms(nominal.loop);
    const double l_in = replay.latency_ms[i];
    tcp.push_back(l_tcp);
    by_tenant[job.tenant].push_back(l_tcp);
    queue.push_back(std::max(0.0, l_in - run - image - frontier));
    tcp_total += l_tcp;
    inproc_total += l_in;
    share["sim"] += run;
    share["runtime"] += frontier;
    share["compress"] += image;
    share["wire"] += (iso.parse_us[j] + iso.serialize_us[j]) / 1e3;
  }
  share["serving"] = std::max(
      0.0, inproc_total - share["sim"] - share["runtime"] - share["compress"]);
  share["net"] = std::max(0.0, tcp_total - inproc_total - share["wire"]);
  double total_share = 0;
  for (const auto& [layer, ms] : share) total_share += ms;

  std::vector<double> tails;
  for (const auto& [t, l] : by_tenant) {
    tails.push_back(percentile(l, tail_quantile(l.size())));
  }
  const double tenant_ratio =
      *std::max_element(tails.begin(), tails.end()) /
      *std::min_element(tails.begin(), tails.end());

  // Timed-cell statistics straight from the simulated results.
  double entries = 0, exceptions = 0, stall = 0, total = 0, pre = 0,
         hits = 0, wasted = 0, deletions = 0, evictions = 0,
         failed_alloc = 0, frag = 0, timed_cells = 0, cell_ms_sum = 0;
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    if (!pass.jobs[j].ok) continue;
    for (const std::size_t c : plan.jobs[j].cells) {
      const auto& r = ref.results[c];
      entries += static_cast<double>(r.block_entries);
      exceptions += static_cast<double>(r.exceptions);
      stall += static_cast<double>(r.stall_cycles);
      total += static_cast<double>(r.total_cycles);
      pre += static_cast<double>(r.predecompressions);
      hits += static_cast<double>(r.predecompress_hits);
      wasted += static_cast<double>(r.wasted_predecompressions);
      deletions += static_cast<double>(r.deletions);
      evictions += static_cast<double>(r.evictions);
      failed_alloc += static_cast<double>(r.allocator.failed_allocations);
      frag += r.allocator.external_fragmentation();
      timed_cells += 1;
    }
    cell_ms_sum += run_ms(plan.jobs[j]) * static_cast<double>(width);
  }
  double timed_wall_ms = 0;
  for (const auto& w : pass.phases) timed_wall_ms += ms_between(w.start, w.end);
  std::vector<double> late;
  for (const Outcome& o : pass.jobs) {
    if (o.answered) late.push_back(ms_between(o.due, o.send_start));
  }
  std::vector<double> frontier_ms;
  for (const auto& [k, ms] : iso.frontier_ms) frontier_ms.push_back(ms);
  std::vector<double> image_ms;
  for (const auto& [k, ms] : ref.image_ms) image_ms.push_back(ms);
  std::vector<double> result_kb;
  for (const Job& job : plan.jobs) {
    result_kb.push_back(static_cast<double>(job.expected_bytes) / 1024.0);
  }
  const auto ratio = [](double num, double den, double empty) {
    return den > 0 ? num / den : empty;
  };
  const auto& ci = cache_before.images;
  const auto& ca = cache_after.images;
  const auto& fi = cache_before.frontiers;
  const auto& fa = cache_after.frontiers;
  const auto d = [](std::size_t a, std::size_t b) {
    return static_cast<double>(a - b);
  };
  const double p50_tcp = percentile(tcp, 0.5);

  std::vector<Metric> metrics = {
      {"net.frontdoor_p50_ms", p50_tcp - percentile(replay.latency_ms, 0.5),
       "ms"},
      {"net.bytes_per_job",
       static_cast<double>(pass.bytes_sent + pass.bytes_received) /
           static_cast<double>(plan.jobs.size()),
       "B"},
      {"wire.parse_job_us", mean(iso.parse_us), "us"},
      {"wire.serialize_result_us", mean(iso.serialize_us), "us"},
      {"wire.result_kb", mean(result_kb), "KiB"},
      {"serving.queue_wait_p50_ms", percentile(queue, 0.5), "ms"},
      {"serving.queue_wait_tail_ms",
       percentile(queue, tail_quantile(queue.size())), "ms"},
      {"serving.image_hit_ratio",
       ratio(d(ca.hits, ci.hits),
             d(ca.hits, ci.hits) + d(ca.misses, ci.misses), 1.0),
       "ratio"},
      {"serving.frontier_hit_ratio",
       ratio(d(fa.hits, fi.hits),
             d(fa.hits, fi.hits) + d(fa.misses, fi.misses), 1.0),
       "ratio"},
      {"serving.builds", d(ca.built, ci.built) + d(fa.built, fi.built),
       "count"},
      {"serving.evictions",
       d(ca.evictions, ci.evictions) + d(fa.evictions, fi.evictions), "count"},
      {"serving.evicted_mb",
       static_cast<double>((ca.evicted_bytes - ci.evicted_bytes) +
                           (fa.evicted_bytes - fi.evicted_bytes)) /
           (1024.0 * 1024.0),
       "MiB"},
      {"serving.resident_mb",
       static_cast<double>(ca.bytes + fa.bytes) / (1024.0 * 1024.0), "MiB"},
      {"sweep.parallel_efficiency",
       cell_ms_sum / (timed_wall_ms * static_cast<double>(width)), "ratio"},
      {"sweep.tenant_tail_ratio", tenant_ratio, "ratio"},
      {"sim.steps_per_s.width1", iso.width1_steps / iso.width1_ms * 1e3, "1/s"},
      {"sim.steps_per_s.batched", iso.batched_steps / iso.batched_ms * 1e3,
       "1/s"},
      {"runtime.frontier_build_ms", mean(frontier_ms), "ms"},
      {"runtime.exception_rate", ratio(exceptions, entries, 0), "ratio"},
      {"runtime.stall_share", ratio(stall, total, 0), "ratio"},
      {"runtime.predecompress_useful_ratio", ratio(hits, pre, 0), "ratio"},
      {"runtime.predecompress_wasted_ratio", ratio(wasted, pre, 0), "ratio"},
      {"runtime.deletions_per_kstep", ratio(deletions, entries, 0) * 1e3,
       "1/kstep"},
      {"runtime.evictions_per_kstep", ratio(evictions, entries, 0) * 1e3,
       "1/kstep"},
      {"memory.failed_allocations", failed_alloc, "count"},
      {"memory.fragmentation", ratio(frag, timed_cells, 0), "ratio"},
      {"compress.image_build_ms", mean(image_ms), "ms"},
  };
  for (const auto& [codec, row] : iso.codecs) {
    const std::string name = apcc::compress::codec_kind_name(codec);
    metrics.push_back({"compress.ratio." + name,
                       row.compressed_bytes / row.original_bytes, "ratio"});
    metrics.push_back({"compress.encode_mb_per_s." + name,
                       row.original_bytes / row.build_ms / 1e3, "MB/s"});
  }
  metrics.push_back({"workloads.build_ms", mean(ref.program_build_ms), "ms"});
  metrics.push_back(
      {"loadgen.late_tail_ms", percentile(late, tail_quantile(late.size())),
       "ms"});
  metrics.push_back(
      {"trace.overhead_pct",
       100.0 * (percentile(latencies(plan, nominal, pass), 0.5) /
                    percentile(latencies(plan, nominal, plain), 0.5) -
                1.0),
       "%"});
  for (const char* layer :
       {"net", "wire", "serving", "sim", "runtime", "compress"}) {
    metrics.push_back({std::string("trace.self_pct.") + layer,
                       100.0 * share[layer] / total_share, "%"});
  }

  std::printf("perfbench %s seed=%llu traced: %zu jobs, nominal phase %s "
              "(%zu jobs)\n",
              plan.workload.c_str(), static_cast<unsigned long long>(plan.seed),
              plan.jobs.size(), nominal.name.c_str(),
              nominal.end - nominal.begin);
  print_report(metrics);
  std::printf("  span self time (ms):\n");
  for (const auto& [name, ms] : tracer.self_ms()) {
    std::printf("    %-28s %12.3f\n", name.c_str(), ms);
  }
  std::printf("perfbench-detail {\"digest\": \"%s\", \"cache\": %s}\n",
              hex(pass.digest).c_str(),
              cache_json(cache_before, cache_after).c_str());
  if (!trace_out.empty()) tracer.write_json(trace_out);
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %zu jobs failed; first: %s\n", failed,
                 (pass.first_failure.empty() ? plain.first_failure
                                             : pass.first_failure)
                     .c_str());
  }
  print_result(failed == 0, plan.jobs.size() * 2, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Plan plan = make_plan(args.workload, args.seed, args.seconds);
    Tracer tracer(Clock::now());
    const Reference ref =
        compute_reference(plan, args.trace ? &tracer : nullptr);
    return args.trace ? run_traced(plan, ref, tracer, args.trace_out)
                      : run_e2e(plan, ref);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
