// Workload suite tests: every kernel assembles, executes to completion,
// produces a valid trace, and has the hot/cold structure the experiments
// rely on. Parameterised over all eight workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "compress/codec.hpp"
#include "workloads/suite.hpp"

namespace apcc::workloads {
namespace {

class SuiteTest : public ::testing::TestWithParam<WorkloadKind> {
 protected:
  static const Workload& workload() {
    // Build each workload once; they are deterministic.
    static std::map<WorkloadKind, Workload>* cache =
        new std::map<WorkloadKind, Workload>();
    auto it = cache->find(GetParam());
    if (it == cache->end()) {
      it = cache->emplace(GetParam(), make_workload(GetParam())).first;
    }
    return it->second;
  }
};

TEST_P(SuiteTest, BuildsAndHalts) {
  const Workload& w = workload();
  EXPECT_FALSE(w.trace.empty());
  EXPECT_GT(w.program.word_count(), 0u);
  EXPECT_EQ(w.name, workload_name(GetParam()));
}

TEST_P(SuiteTest, TraceIsValidAgainstCfg) {
  const Workload& w = workload();
  EXPECT_NO_THROW(cfg::validate_trace(w.cfg, w.trace));
}

TEST_P(SuiteTest, TraceStartsAtEntry) {
  const Workload& w = workload();
  EXPECT_EQ(w.trace.front(), w.cfg.entry());
}

TEST_P(SuiteTest, HasColdBlocks) {
  const Workload& w = workload();
  std::set<cfg::BlockId> visited(w.trace.begin(), w.trace.end());
  EXPECT_LT(visited.size(), w.cfg.block_count())
      << "every workload must carry never-executed (cold) code";
}

TEST_P(SuiteTest, HotCodeDominatesDynamically) {
  const Workload& w = workload();
  cfg::EdgeProfile profile(w.cfg);
  profile.add_trace(w.trace);
  // The 10 hottest blocks must cover most of the execution: these are
  // loop kernels, the defining property of embedded media code.
  EXPECT_GT(profile.hot_block_coverage(10), 0.5);
}

TEST_P(SuiteTest, BlockBytesMatchCfgSizes) {
  const Workload& w = workload();
  ASSERT_EQ(w.block_bytes.size(), w.cfg.block_count());
  for (cfg::BlockId b = 0; b < w.cfg.block_count(); ++b) {
    EXPECT_EQ(w.block_bytes[b].size(), w.cfg.block(b).size_bytes());
  }
}

TEST_P(SuiteTest, InstructionBytesCompress) {
  const Workload& w = workload();
  const auto codec =
      compress::make_codec(compress::CodecKind::kSharedHuffman,
                           w.block_bytes);
  const double ratio = compress::compression_ratio(*codec, w.block_bytes);
  EXPECT_LT(ratio, 0.9) << "assembled ERISC code must be compressible";
}

TEST_P(SuiteTest, ProfileProbabilitiesApplied) {
  const Workload& w = workload();
  // With apply_profile (default), at least one edge should be strongly
  // biased (loop back edges run many times).
  bool found_hot_edge = false;
  for (const auto& e : w.cfg.edges()) {
    if (e.probability > 0.8) {
      found_hot_edge = true;
      break;
    }
  }
  EXPECT_TRUE(found_hot_edge);
}

TEST_P(SuiteTest, TraceHasTemporalReuse) {
  const Workload& w = workload();
  std::set<cfg::BlockId> visited(w.trace.begin(), w.trace.end());
  EXPECT_GT(w.trace.size(), 2 * visited.size())
      << "loops must revisit blocks (the k-edge trade-off needs reuse)";
}

TEST_P(SuiteTest, ScaleGrowsTraceNotImage) {
  WorkloadOptions small;
  small.scale = 1;
  WorkloadOptions large;
  large.scale = 2;
  const Workload w1 = make_workload(GetParam(), small);
  const Workload w2 = make_workload(GetParam(), large);
  EXPECT_EQ(w1.program.word_count(), w2.program.word_count())
      << "scale changes trip counts, not code size";
  EXPECT_GT(w2.trace.size(), w1.trace.size());
}

TEST_P(SuiteTest, BuildsAtScale64) {
  // Every kernel runs to completion at scale 64 (adpcm-like's output
  // buffer used to run off the end of data memory there), with the same
  // program and a trace that grows with the scale.
  std::size_t previous = workload().trace.size();
  for (const int scale : {16, 64}) {
    WorkloadOptions options;
    options.scale = scale;
    const Workload w = make_workload(GetParam(), options);
    EXPECT_EQ(w.program.word_count(), workload().program.word_count())
        << "scale " << scale;
    EXPECT_GT(w.trace.size(), previous) << "scale " << scale;
    previous = w.trace.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SuiteTest, ::testing::ValuesIn(all_workload_kinds()),
    [](const ::testing::TestParamInfo<WorkloadKind>& info) {
      std::string name = workload_name(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Suite, AllKindsEnumerated) {
  EXPECT_EQ(all_workload_kinds().size(), 8u);
}

TEST(Suite, SourceTextIsStable) {
  const std::string a = workload_source(WorkloadKind::kGsmLike);
  const std::string b = workload_source(WorkloadKind::kGsmLike);
  EXPECT_EQ(a, b);
}

TEST(Suite, InvalidScaleRejected) {
  WorkloadOptions opts;
  opts.scale = 0;
  EXPECT_THROW((void)make_workload(WorkloadKind::kAdpcmLike, opts),
               apcc::CheckError);
}

TEST(Suite, WorkloadsDifferStructurally) {
  const Workload a = make_workload(WorkloadKind::kAdpcmLike);
  const Workload b = make_workload(WorkloadKind::kPegwitLike);
  EXPECT_NE(a.program.word_count(), b.program.word_count());
}

}  // namespace
}  // namespace apcc::workloads
