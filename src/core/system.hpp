// CodeCompressionSystem: the one-shot APCC API.
//
// Wraps the full pipeline -- CFG, per-block compression, runtime policy,
// and the three-thread execution engine -- behind one object. This is
// the synchronous, build-per-call layer: each from_workload call
// compresses the image afresh and each run steps a fresh width-1
// sim::BatchEngine. A policy grid runs as a serving::Service sweep job
// (docs/API.md): cached compressed images, cached frontier geometry,
// several grids in flight on one shared pool. Each Service cell's
// outcome is byte-identical to the equivalent run() here.
//
//   auto workload = workloads::make_workload(WorkloadKind::kGsmLike);
//   core::SystemConfig config;
//   config.policy.strategy = runtime::DecompressionStrategy::kPreSingle;
//   config.policy.compress_k = 2;
//   auto system = core::CodeCompressionSystem::from_workload(workload, config);
//   sim::RunResult result = system.run();
//   std::cout << result.summary();
//
// Systems are immutable after construction; run() may be called multiple
// times (each run gets fresh runtime state) and with different traces.
#pragma once

#include <functional>
#include <memory>

#include "cfg/cfg.hpp"
#include "runtime/block_image.hpp"
#include "sim/step_policy.hpp"
#include "workloads/suite.hpp"

namespace apcc::core {

/// Everything configurable about an APCC deployment.
struct SystemConfig {
  compress::CodecKind codec = compress::CodecKind::kSharedHuffman;
  runtime::Policy policy{};
  runtime::CostModel costs{};
  memory::FitPolicy fit = memory::FitPolicy::kFirstFit;
};

/// The engine knob subset of a SystemConfig -- the one mapping every
/// layer (CodeCompressionSystem, serving::Service cells, the CLI's grid
/// builder) uses, so they cannot drift field by field.
[[nodiscard]] sim::EngineConfig engine_config(const SystemConfig& config);

class CodeCompressionSystem {
 public:
  /// Build from an assembled workload: uses its CFG, image bytes, and
  /// (by default) its executed trace.
  [[nodiscard]] static CodeCompressionSystem from_workload(
      const workloads::Workload& workload, SystemConfig config = {});

  /// Build from a bare CFG; block bytes come from `provider`.
  [[nodiscard]] static CodeCompressionSystem from_cfg(
      cfg::Cfg cfg,
      const std::function<compress::Bytes(const cfg::BasicBlock&)>& provider,
      SystemConfig config = {});

  /// Simulate the default trace (the workload's executed access pattern).
  [[nodiscard]] sim::RunResult run() const;

  /// Simulate an explicit trace.
  [[nodiscard]] sim::RunResult run(const cfg::BlockTrace& trace) const;

  /// Like run(), but streaming engine events into `sink`.
  [[nodiscard]] sim::RunResult run_with_events(const cfg::BlockTrace& trace,
                                               sim::EventSink sink) const;

  /// The engine knob subset of this system's config, the starting point
  /// for building SweepTasks that vary one policy axis at a time.
  [[nodiscard]] sim::EngineConfig engine_config() const;

  [[nodiscard]] const cfg::Cfg& cfg() const { return cfg_; }
  [[nodiscard]] const runtime::BlockImage& image() const { return *image_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] const cfg::BlockTrace& default_trace() const {
    return default_trace_;
  }

  /// Static memory summary: minimum image (all compressed) vs original.
  [[nodiscard]] std::uint64_t compressed_image_bytes() const;
  [[nodiscard]] std::uint64_t original_image_bytes() const;

 private:
  CodeCompressionSystem(cfg::Cfg cfg, runtime::BlockImage image,
                        SystemConfig config, cfg::BlockTrace default_trace);

  cfg::Cfg cfg_;
  std::unique_ptr<runtime::BlockImage> image_;
  SystemConfig config_;
  cfg::BlockTrace default_trace_;
};

}  // namespace apcc::core
