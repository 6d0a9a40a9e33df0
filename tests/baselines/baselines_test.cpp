// Baseline scheme tests: no-compression, load-time decompression,
// cold-function compression (Debray-Evans) and the procedure cache
// (Kirovski et al.).
#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "baselines/function_compression.hpp"
#include "core/system.hpp"
#include "workloads/suite.hpp"

namespace apcc::baselines {
namespace {

const workloads::Workload& adpcm() {
  static const workloads::Workload w =
      workloads::make_workload(workloads::WorkloadKind::kAdpcmLike);
  return w;
}

runtime::BlockImage make_image(const workloads::Workload& w) {
  return runtime::BlockImage(
      w.cfg, w.block_bytes,
      compress::make_codec(compress::CodecKind::kLzss, w.block_bytes));
}

TEST(NoCompression, SlowdownIsExactlyOne) {
  const auto& w = adpcm();
  const auto r = run_no_compression(w.cfg, w.trace, {});
  EXPECT_DOUBLE_EQ(r.slowdown(), 1.0);
  EXPECT_EQ(r.total_cycles, r.baseline_cycles);
  EXPECT_EQ(r.exceptions, 0u);
}

TEST(NoCompression, MemoryIsOriginalImage) {
  const auto& w = adpcm();
  const auto r = run_no_compression(w.cfg, w.trace, {});
  EXPECT_EQ(r.peak_occupancy_bytes, w.cfg.total_code_bytes());
  EXPECT_DOUBLE_EQ(r.peak_saving(), 0.0);
}

TEST(LoadTime, PaysStartupOnce) {
  const auto& w = adpcm();
  const auto image = make_image(w);
  const auto r = run_load_time_decompression(w.cfg, image, w.trace, {});
  EXPECT_GT(r.total_cycles, r.baseline_cycles);
  EXPECT_EQ(r.demand_decompressions, 1u);
  // RAM cost is the full uncompressed image: no saving.
  EXPECT_EQ(r.peak_occupancy_bytes, w.cfg.total_code_bytes());
}

TEST(LoadTime, RatioReported) {
  const auto& w = adpcm();
  const auto image = make_image(w);
  const auto r = run_load_time_decompression(w.cfg, image, w.trace, {});
  EXPECT_LT(r.codec_ratio, 1.0);
  EXPECT_LT(r.compressed_area_bytes, r.original_image_bytes);
}

TEST(ColdOnly, SavesMemoryWithoutSlowdownWhenTrainedOnSelf) {
  const auto& w = adpcm();
  FunctionCompressionConfig config;
  config.mode = FunctionCompressionConfig::Mode::kColdOnly;
  const auto r = run_function_compression(w, config);
  // Training on the full trace: every executed function is hot, so no
  // runtime decompression happens at all...
  EXPECT_EQ(r.demand_decompressions, 0u);
  EXPECT_DOUBLE_EQ(r.slowdown(), 1.0);
  // ...but cold functions stay compressed, so memory is saved vs original.
  EXPECT_LT(r.peak_occupancy_bytes, r.original_image_bytes);
}

TEST(ColdOnly, PartialTrainingPaysColdMisses) {
  const auto& w = adpcm();
  FunctionCompressionConfig config;
  config.train_fraction = 0.01;  // train on a tiny prefix
  const auto r = run_function_compression(w, config);
  // Functions first touched after the training prefix fault once each.
  EXPECT_GT(r.demand_decompressions, 0u);
  EXPECT_GT(r.total_cycles, r.baseline_cycles);
}

TEST(ColdOnly, CoarserGranularityThanApcc) {
  // The paper's key claim vs Debray-Evans: block granularity saves more
  // memory because a hot function's cold blocks stay compressed. Compare
  // peak occupancy: APCC (per-block, k=2) vs cold-function baseline.
  const auto& w = adpcm();
  FunctionCompressionConfig config;
  const auto func_result = run_function_compression(w, config);

  core::SystemConfig sys_config;
  sys_config.codec = compress::CodecKind::kLzss;
  sys_config.policy.compress_k = 2;
  const auto system =
      core::CodeCompressionSystem::from_workload(w, sys_config);
  const auto apcc_result = system.run();

  EXPECT_LT(apcc_result.peak_occupancy_bytes,
            func_result.peak_occupancy_bytes)
      << "block granularity must beat function granularity on memory";
}

TEST(ProcedureCache, BoundedByCacheSize) {
  const auto& w = adpcm();
  FunctionCompressionConfig config;
  config.mode = FunctionCompressionConfig::Mode::kProcedureCache;
  config.cache_bytes = 4096;
  const auto r = run_function_compression(w, config);
  EXPECT_LE(r.peak_occupancy_bytes,
            r.compressed_area_bytes + config.cache_bytes);
}

TEST(ProcedureCache, TinyCacheEvicts) {
  const auto& w = adpcm();
  // Cache big enough for the largest function but little else.
  std::uint64_t largest = 0;
  for (const auto& f : w.program.functions()) {
    largest = std::max(largest, std::uint64_t{f.word_count} * 4);
  }
  FunctionCompressionConfig config;
  config.mode = FunctionCompressionConfig::Mode::kProcedureCache;
  config.cache_bytes = largest + 8;
  const auto r = run_function_compression(w, config);
  EXPECT_GT(r.evictions, 0u);
  EXPECT_GT(r.demand_decompressions, w.program.functions().size())
      << "evicted functions must be decompressed again";
}

TEST(ProcedureCache, CacheTooSmallRejected) {
  const auto& w = adpcm();
  FunctionCompressionConfig config;
  config.mode = FunctionCompressionConfig::Mode::kProcedureCache;
  config.cache_bytes = 16;
  EXPECT_THROW((void)run_function_compression(w, config), apcc::CheckError);
}

TEST(FunctionCompression, InvalidTrainFractionRejected) {
  const auto& w = adpcm();
  FunctionCompressionConfig config;
  config.train_fraction = 0.0;
  EXPECT_THROW((void)run_function_compression(w, config), apcc::CheckError);
  config.train_fraction = 1.5;
  EXPECT_THROW((void)run_function_compression(w, config), apcc::CheckError);
}

}  // namespace
}  // namespace apcc::baselines
