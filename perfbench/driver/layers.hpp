// The reference results and the per-layer measurements made outside
// the served path.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "serve.hpp"
#include "sim/result.hpp"

namespace perfbench {

/// Every distinct cell the plan touches, simulated once on one thread
/// on a prebuilt BlockImage with a width-1 BatchEngine -- no pool, no
/// artifact cache, no wire -- and the expected result record of every
/// job built from those results.
struct Reference {
  std::map<std::string, std::size_t> program_index;  // by registered name
  std::vector<apcc::workloads::Workload> programs;
  std::vector<double> program_build_ms;
  std::vector<Cell> cells;
  std::vector<apcc::sim::RunResult> results;  // index-aligned with cells
  /// (program, codec) -> image build time.
  std::map<std::pair<std::size_t, apcc::compress::CodecKind>, double> image_ms;
};

/// Fills every job's record, seq, cells and expected digest. Throws if
/// any reference cell fails (the plan would not be valid).
[[nodiscard]] Reference compute_reference(Plan& plan, Tracer* tracer);

/// Isolated calls into the layers for every key and cell the list
/// touches, on prebuilt artifacts as the served path runs them; what
/// the traced run reports per layer.
struct Isolated {
  std::map<std::pair<std::size_t, unsigned>, double> frontier_ms;
  std::vector<double> cell_ms;  // width-1 run time per Reference cell
  double width1_steps = 0;
  double width1_ms = 0;
  double batched_steps = 0;
  double batched_ms = 0;
  /// Per-step cost of batched stepping relative to width 1.
  [[nodiscard]] double batched_factor() const {
    return (batched_ms / batched_steps) / (width1_ms / width1_steps);
  }
  std::vector<double> parse_us;      // per timed job
  std::vector<double> serialize_us;  // per timed job
  struct CodecRow {
    double original_bytes = 0;
    double compressed_bytes = 0;
    double build_ms = 0;
  };
  std::map<apcc::compress::CodecKind, CodecRow> codecs;
};

[[nodiscard]] Isolated measure_isolated(const Plan& plan, const Reference& ref,
                                        Tracer& tracer);

/// The nominal phase replayed in-process on `host`: the same schedule
/// through Service::submit(JobSpec) -> JobHandle, no sockets and no wire.
struct Replay {
  std::vector<double> latency_ms;  // per job of the phase, submit -> ready
  /// Closed loop only: artifacts each job built (cache_stats() deltas).
  std::vector<std::size_t> images_built;
  std::vector<std::size_t> frontiers_built;
};

[[nodiscard]] Replay replay_inprocess(const Plan& plan, const Phase& phase,
                                      Host& host, Tracer& tracer);

}  // namespace perfbench
