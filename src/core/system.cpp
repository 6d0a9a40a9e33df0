#include "core/system.hpp"

#include "sim/batch_engine.hpp"
#include "support/assert.hpp"

namespace apcc::core {

CodeCompressionSystem::CodeCompressionSystem(cfg::Cfg cfg,
                                             runtime::BlockImage image,
                                             SystemConfig config,
                                             cfg::BlockTrace default_trace)
    : cfg_(std::move(cfg)),
      image_(std::make_unique<runtime::BlockImage>(std::move(image))),
      config_(config),
      default_trace_(std::move(default_trace)) {}

CodeCompressionSystem CodeCompressionSystem::from_workload(
    const workloads::Workload& workload, SystemConfig config) {
  runtime::BlockImage image(
      workload.cfg, workload.block_bytes,
      compress::make_codec(config.codec, workload.block_bytes));
  return CodeCompressionSystem(workload.cfg, std::move(image), config,
                               workload.trace);
}

CodeCompressionSystem CodeCompressionSystem::from_cfg(
    cfg::Cfg cfg,
    const std::function<compress::Bytes(const cfg::BasicBlock&)>& provider,
    SystemConfig config) {
  runtime::BlockImage image =
      runtime::make_block_image(cfg, provider, config.codec);
  return CodeCompressionSystem(std::move(cfg), std::move(image), config, {});
}

sim::RunResult CodeCompressionSystem::run() const {
  APCC_CHECK(!default_trace_.empty(),
             "no default trace; pass one to run(trace)");
  return run(default_trace_);
}

sim::EngineConfig engine_config(const SystemConfig& config) {
  sim::EngineConfig engine;
  engine.policy = config.policy;
  engine.costs = config.costs;
  engine.fit = config.fit;
  return engine;
}

sim::EngineConfig CodeCompressionSystem::engine_config() const {
  return core::engine_config(config_);
}

sim::RunResult CodeCompressionSystem::run(const cfg::BlockTrace& trace) const {
  return run_with_events(trace, nullptr);
}

sim::RunResult CodeCompressionSystem::run_with_events(
    const cfg::BlockTrace& trace, sim::EventSink sink) const {
  sim::BatchEngine engine(cfg_, *image_, {engine_config()});
  engine.set_event_sink(0, std::move(sink));
  return engine.run(trace).front().value();
}

std::uint64_t CodeCompressionSystem::compressed_image_bytes() const {
  return image_->footprint().compressed_area_bytes;
}

std::uint64_t CodeCompressionSystem::original_image_bytes() const {
  return cfg_.total_code_bytes();
}

}  // namespace apcc::core
