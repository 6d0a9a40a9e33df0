// perfbench: the end-to-end benchmark driver for the served stack.
//
// One process hosts serving::Service + net::Server on loopback (the
// `apcc_cli serve --listen` configuration), drives it over real
// sockets from one client thread with a seeded, fixed job list, checks
// every result against an independently computed reference, and
// prints the end-to-end metrics. With --trace 1 it instead replays
// the same list with spans around every layer it calls into and
// prints the per-layer metrics. See perfbench/README.md.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serving/cache.hpp"
#include "serving/job_spec.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (every thread, exited ones included),
/// in ms. The gated timings are CPU time, not wall time: on a shared
/// VM host the share of time the host withholds from the guest (steal)
/// moves every wall-clock figure by tens of percent between runs, and
/// the kernel leaves stolen time out of a thread's CPU time.
[[nodiscard]] inline double process_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

/// splitmix64: the benchmark's own generator, so its inputs stay the
/// same whatever happens to the library's Rng.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over bytes: the result digests the client keeps instead of
/// result text.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes,
                                         std::uint64_t h =
                                             0xCBF29CE484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

// ------------------------------------------------------------- plan

/// One program of a workload's key space: a suite kernel or a seeded
/// random program, registered with the Service under `name`.
struct ProgramSpec {
  std::string name;
  std::optional<apcc::workloads::WorkloadKind> suite;
  apcc::workloads::RandomProgramOptions random;
};

[[nodiscard]] apcc::workloads::Workload build_program(const ProgramSpec& spec);

/// A client of the service: one connection, one fair-share tag.
struct Tenant {
  std::string tag;
  apcc::sweep::Priority priority = apcc::sweep::Priority::kNormal;
  unsigned weight = 1;
};

enum class Loop : std::uint8_t { kClosed, kOpen };

/// A contiguous slice of the job list driven one way. Phases run one
/// after another; each waits for its last result before the next
/// starts.
struct Phase {
  std::string name;
  Loop loop = Loop::kClosed;
  double rate = 0;      // open loop: offered jobs/s over all tenants
  unsigned window = 1;  // closed loop: jobs outstanding per connection
  std::size_t begin = 0;
  std::size_t end = 0;
  bool nominal = false;  // job latency metrics come from this phase
  bool ladder = false;   // a rung of the max-rate-at-SLO ladder
  bool throughput = false;  // cells_per_s comes from this phase
};

/// One grid cell a job asks for: what the reference recomputes.
struct Cell {
  std::size_t program = 0;
  apcc::compress::CodecKind codec{};
  apcc::sim::EngineConfig config;
  [[nodiscard]] std::string key() const;
};

struct Job {
  std::size_t tenant = 0;
  double due_s = 0;  // open loop: offset from its phase's start
  apcc::serving::JobSpec spec;
  /// Filled by the reference pass.
  std::string record;          // wire::serialize_job(spec)
  std::uint64_t seq = 0;       // session sequence number it will get
  std::uint64_t expected = 0;  // digest of the expected result record
  std::size_t expected_bytes = 0;
  std::vector<std::size_t> cells;  // indices into Reference::cells
};

/// Resident pool width: pool, server IO thread and client thread fit
/// the 4 vCPUs the benchmark is sized for.
inline constexpr unsigned kPoolWidth = 2;

/// The trained and dictionary codecs, leaving out the pattern family
/// (fpc, bdi, adaptive), which is slated for removal: artifact-churn's
/// key space and the compress layer's ratio/speed metrics.
[[nodiscard]] const std::vector<apcc::compress::CodecKind>& kept_codecs();

struct Plan {
  std::string workload;
  std::uint64_t seed = 0;
  apcc::serving::CacheBudget budget;
  std::vector<ProgramSpec> programs;
  std::vector<Tenant> tenants;
  /// Run in-process, one at a time, at the end of every setup: builds
  /// the artifacts the timed list needs (all of them, or, on
  /// artifact-churn, the state after the stream's warm-up prefix).
  std::vector<Job> warmup;
  std::vector<Job> jobs;
  std::vector<Phase> phases;
  /// The max-rate-at-SLO ladder's latency limit on job p99.
  double slo_ms = 0;
  /// Highest percentile job_tail_ms may report.
  double tail_cap = 0.99;
  /// Batched width of campaign-suite jobs and of the isolated
  /// sim.steps_per_s.batched runs.
  unsigned batched_width = 8;
  /// Setups per run; setup_s is the median of their CPU time.
  unsigned setups = 3;
};

[[nodiscard]] Plan make_plan(const std::string& workload, std::uint64_t seed,
                             double seconds);

/// The cells of one job, in the order its result lists them.
[[nodiscard]] std::vector<Cell> job_cells(
    const apcc::serving::JobSpec& spec,
    const std::map<std::string, std::size_t>& program_index);

// ------------------------------------------------------ measurement

/// Percentile by linear interpolation; `q` in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// The highest percentile with at least ten samples beyond it, capped
/// at p99 (the choosing-metrics rule); n must be at least 20.
[[nodiscard]] double tail_quantile(std::size_t n);

/// Spans kept in memory and written when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    long parent = -1;
    std::uint64_t job = 0;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  long add(std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t job, long parent = -1);
  /// Self time per span name: duration minus the union of its
  /// children's intervals.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
