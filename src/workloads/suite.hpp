// The APCC synthetic embedded benchmark suite.
//
// The paper's evaluation class is media/DSP embedded code; in place of the
// (unavailable) proprietary binaries, the suite provides six synthetic
// kernels with the control structure of the MediaBench programs they are
// named after: hot inner loops, occasional rare paths, cold error/setup
// code, and small call graphs. Each workload is real ERISC-32 assembly --
// assembled, CFG-built, and *executed* on the interpreter, so its block
// trace is an actual instruction access pattern, not a synthetic walk.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cfg/builder.hpp"
#include "cfg/profile.hpp"
#include "cfg/trace.hpp"
#include "compress/codec.hpp"
#include "isa/interpreter.hpp"
#include "isa/program.hpp"

namespace apcc::workloads {

enum class WorkloadKind : std::uint8_t {
  kAdpcmLike,    // speech codec: 1-D sample loop, quantiser diamonds
  kGsmLike,      // frames x samples nested loops, multiply-accumulate
  kJpegLike,     // 8x8 block transform loop nest + zigzag walk
  kMpeg2Like,    // motion search with early-exit inner loop
  kG721Like,     // predictor update: chain of small if/else diamonds
  kPegwitLike,   // wide-integer arithmetic with carry branches, deep cold code
  kDijkstraLike, // relaxation sweeps: data-dependent branch per edge
  kCrcLike,      // table-driven checksum: tight loop, table setup once
};

[[nodiscard]] const char* workload_name(WorkloadKind kind);
[[nodiscard]] std::vector<WorkloadKind> all_workload_kinds();

struct WorkloadOptions {
  /// Multiplies loop trip counts (image size is unaffected). Data
  /// memory grows with it, so every kernel runs at least to scale 64.
  int scale = 1;
  /// Interpreter safety limit.
  std::uint64_t max_steps = 20'000'000;
  /// Apply the trace's own edge profile to the CFG probabilities (the
  /// paper's profile-guided mode). When false, probabilities stay uniform.
  bool apply_profile = true;
};

/// A ready-to-simulate workload. It holds no heap object per block: the
/// CFG, the trace and the block bytes are flat arrays.
struct Workload {
  std::string name;
  isa::Program program;
  cfg::Cfg cfg;
  cfg::BlockTrace trace;            // real executed access pattern
  compress::BlockBytes block_bytes;  // per-CFG-block image bytes

  [[nodiscard]] std::uint64_t image_bytes() const {
    return program.size_bytes();
  }
};

/// The one path from assembly text to a Workload: assemble `source`,
/// build its CFG, run it on the interpreter for its block trace (checked
/// against the CFG, stored at its exact length), apply the trace's own
/// edge profile to the CFG when `apply_profile`, and cut every block's
/// image bytes. Throws CheckError naming `name` if the program does not
/// halt.
[[nodiscard]] Workload build_workload(
    std::string name, std::string_view source,
    const isa::InterpreterOptions& interpreter, bool apply_profile);

/// Every block's image bytes in block id order, in one arena: block b
/// holds `program.bytes(first_word, word_count)` of the CFG's block b.
/// Allocates a fixed number of times, whatever the block count.
[[nodiscard]] compress::BlockBytes cut_block_bytes(const isa::Program& program,
                                                   const cfg::Cfg& cfg);

/// Build (assemble + CFG + execute) one workload.
[[nodiscard]] Workload make_workload(WorkloadKind kind,
                                     const WorkloadOptions& options = {});

/// The assembly text of a workload (exposed for tests and examples).
[[nodiscard]] std::string workload_source(WorkloadKind kind,
                                          const WorkloadOptions& options = {});

}  // namespace apcc::workloads
