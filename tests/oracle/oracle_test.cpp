// Differential tests of sim::BatchEngine against the naive oracle in
// oracle.hpp, which shares none of the engine's stepping code.
//
// Seeded random programs (one of them artifact-churn's 2.4k-block
// shape) cross every strategy and predictor with k, budget, victim
// policy and helper units; a knob sweep covers the remaining
// EngineConfig switches; and the Figure 3 and E3 reproduction grids run
// in full. The engine runs each config alone (width 1) and all of a
// grid's configs as one lockstep batch; both must equal the oracle in
// every RunResult field and every event, or fail where it fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/same_run.hpp"
#include "oracle/oracle.hpp"
#include "reproduce/tables.hpp"
#include "sim/batch_engine.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::oracle {
namespace {

/// One program under test: its workload, compressed image and the trace
/// the runs replay (a prefix of the executed trace for long programs).
struct Subject {
  std::string name;
  workloads::Workload workload;
  std::unique_ptr<runtime::BlockImage> image;
  cfg::BlockTrace trace;
};

std::unique_ptr<Subject> make_subject(std::string name, workloads::Workload w,
                                      compress::CodecKind codec,
                                      std::size_t max_steps) {
  auto s = std::make_unique<Subject>();
  s->name = std::move(name);
  s->image = std::make_unique<runtime::BlockImage>(
      w.cfg, w.block_bytes, compress::make_codec(codec, w.block_bytes));
  const std::size_t steps = std::min(max_steps, w.trace.size());
  s->trace.assign(w.trace.begin(),
                  w.trace.begin() + static_cast<std::ptrdiff_t>(steps));
  s->workload = std::move(w);
  return s;
}

std::unique_ptr<Subject> random_subject(std::uint64_t seed, int statements,
                                        int leaves, compress::CodecKind codec,
                                        std::size_t max_steps) {
  workloads::RandomProgramOptions options;
  options.seed = seed;
  options.statements_per_body = statements;
  options.leaf_functions = leaves;
  return make_subject("random-" + std::to_string(seed),
                      workloads::make_random_workload(options), codec,
                      max_steps);
}

/// artifact-churn's program shape (perfbench's first program): 2.4k
/// blocks, replayed for a prefix of its trace.
const Subject& churn_program() {
  static const auto* s = [] {
    workloads::RandomProgramOptions options;
    options.seed = 9001;
    options.max_depth = 3;
    options.statements_per_body = 40;
    options.leaf_functions = 16;
    options.loop_iters_max = 6;
    return make_subject("churn-9001",
                        workloads::make_random_workload(options),
                        compress::CodecKind::kCodePack, 3000)
        .release();
  }();
  return *s;
}

const std::vector<std::unique_ptr<Subject>>& small_programs() {
  static const auto* programs = [] {
    auto* v = new std::vector<std::unique_ptr<Subject>>();
    v->push_back(random_subject(3, 5, 3, compress::CodecKind::kSharedHuffman,
                                4000));
    v->push_back(random_subject(5, 8, 4, compress::CodecKind::kLzss, 4000));
    v->push_back(random_subject(2, 12, 4, compress::CodecKind::kCodePack,
                                3000));
    return v;
  }();
  return *programs;
}

const workloads::Workload& suite_workload(workloads::WorkloadKind kind) {
  static auto* cache = new std::map<workloads::WorkloadKind,
                                    std::unique_ptr<workloads::Workload>>();
  auto& slot = (*cache)[kind];
  if (!slot) {
    slot = std::make_unique<workloads::Workload>(
        workloads::make_workload(kind));
  }
  return *slot;
}

struct Case {
  std::string label;
  sim::EngineConfig config;
};

/// What one side computed: a result and its events, or the error.
struct Outcome {
  bool ok = false;
  std::string error;
  sim::RunResult result;
  std::vector<sim::Event> events;
};

Outcome run_reference(const Subject& s, const sim::EngineConfig& config) {
  Outcome run;
  try {
    OracleRun o = run_oracle(s.workload.cfg, *s.image, s.trace, config);
    run.ok = true;
    run.result = o.result;
    run.events = std::move(o.events);
  } catch (const CheckError& e) {
    run.error = e.what();
  }
  return run;
}

/// All `cases` as one lockstep BatchEngine (width 1 for a single case).
std::vector<Outcome> run_engine(const Subject& s,
                                const std::vector<Case>& cases) {
  std::vector<sim::EngineConfig> configs;
  for (const Case& c : cases) configs.push_back(c.config);
  sim::BatchEngine engine(s.workload.cfg, *s.image, std::move(configs));
  std::vector<Outcome> runs(cases.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    engine.set_event_sink(
        i, [&runs, i](const sim::Event& e) { runs[i].events.push_back(e); });
  }
  const std::vector<sim::CellOutcome> outcomes = engine.run(s.trace);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (outcomes[i].ok()) {
      runs[i].ok = true;
      runs[i].result = outcomes[i].result;
      continue;
    }
    try {
      std::rethrow_exception(outcomes[i].error);
    } catch (const CheckError& e) {
      runs[i].error = e.what();
    }
  }
  return runs;
}

void expect_match(const Outcome& want, const Outcome& got) {
  ASSERT_EQ(want.ok, got.ok) << "oracle: '" << want.error << "', engine: '"
                             << got.error << "'";
  if (!want.ok) return;
  testref::expect_same_result(want.result, got.result);
  testref::expect_same_events(want.events, got.events);
}

/// Every case against the oracle, with the engine at width 1 and as one
/// batch over all the cases. Returns the oracle's runs.
std::vector<Outcome> check_cases(const Subject& s,
                                 const std::vector<Case>& cases) {
  SCOPED_TRACE(s.name);
  const std::vector<Outcome> batched = run_engine(s, cases);
  std::vector<Outcome> oracle_runs;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].label);
    oracle_runs.push_back(run_reference(s, cases[i].config));
    {
      SCOPED_TRACE("width 1");
      expect_match(oracle_runs.back(), run_engine(s, {cases[i]}).front());
    }
    {
      SCOPED_TRACE("batched");
      expect_match(oracle_runs.back(), batched[i]);
    }
  }
  return oracle_runs;
}

/// A budget of three copies of the largest block the trace executes:
/// enough to run, small enough to force evictions and in-flight waits.
std::uint64_t tight_budget(const Subject& s) {
  std::uint64_t largest = 0;
  for (const cfg::BlockId b : s.trace) {
    largest = std::max(largest, s.workload.cfg.block(b).size_bytes());
  }
  return largest * 3 + 32;
}

/// strategy x k x {unbounded, tight budget per victim policy} x units,
/// and each predictor under pre-single.
std::vector<Case> policy_grid(const Subject& s,
                              std::initializer_list<std::uint32_t> ks,
                              std::initializer_list<unsigned> units) {
  using runtime::DecompressionStrategy;
  using runtime::PredictorKind;
  using runtime::VictimPolicy;
  std::vector<Case> cases;
  for (const auto strategy :
       {DecompressionStrategy::kOnDemand, DecompressionStrategy::kPreAll,
        DecompressionStrategy::kPreSingle}) {
    const std::vector<PredictorKind> predictors =
        strategy == DecompressionStrategy::kPreSingle
            ? std::vector<PredictorKind>{PredictorKind::kProfile,
                                         PredictorKind::kStatic,
                                         PredictorKind::kOracle}
            : std::vector<PredictorKind>{PredictorKind::kProfile};
    for (const std::uint32_t k : ks) {
      for (const PredictorKind predictor : predictors) {
        for (const unsigned u : units) {
          for (int budget = -1; budget < 3; ++budget) {
            Case c;
            c.config.policy.strategy = strategy;
            c.config.policy.compress_k = k;
            c.config.policy.predecompress_k = std::min(k, 4u);
            c.config.policy.predictor = predictor;
            c.config.policy.decompress_units = u;
            c.label = std::string(runtime::strategy_name(strategy)) + "/k" +
                      std::to_string(k) + "/" +
                      runtime::predictor_name(predictor) + "/units" +
                      std::to_string(u);
            if (budget >= 0) {
              c.config.policy.victim_policy = static_cast<VictimPolicy>(budget);
              c.config.policy.memory_budget = tight_budget(s);
              c.label += std::string("/tight-") +
                         runtime::victim_policy_name(
                             c.config.policy.victim_policy);
            }
            cases.push_back(std::move(c));
          }
        }
      }
    }
  }
  return cases;
}

class OracleOnRandomProgram : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OracleOnRandomProgram, MatchesEngineAcrossThePolicyGrid) {
  const Subject& program = *small_programs()[GetParam()];
  (void)check_cases(program, policy_grid(program, {1u, 8u}, {1u, 2u}));
}

INSTANTIATE_TEST_SUITE_P(Seeded, OracleOnRandomProgram,
                         ::testing::Range<std::size_t>(0, 3));

TEST(Oracle, MatchesEngineOnAnArtifactChurnSizedProgram) {
  const Subject& s = churn_program();
  ASSERT_GE(s.workload.cfg.block_count(), 2000u);
  std::vector<Case> cases;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {2u, 8u}) {
      for (const bool tight : {false, true}) {
        Case c;
        c.config.policy.strategy = strategy;
        c.config.policy.compress_k = k;
        c.config.policy.predecompress_k = k;
        if (tight) c.config.policy.memory_budget = tight_budget(s);
        c.label = std::string(runtime::strategy_name(strategy)) + "/k" +
                  std::to_string(k) + (tight ? "/tight" : "");
        cases.push_back(std::move(c));
      }
    }
  }
  (void)check_cases(s, cases);
}

TEST(Oracle, MatchesEngineAcrossEveryConfigKnob) {
  // Each case flips one switch of the paper's thread model, §5's
  // bookkeeping or the cost model away from its default, under both
  // pre-decompression strategies and a tight budget.
  const Subject& s = *small_programs()[1];
  const auto knobs = std::vector<
      std::pair<std::string, void (*)(sim::EngineConfig&)>>{
      {"defaults", [](sim::EngineConfig&) {}},
      {"inline-compression",
       [](sim::EngineConfig& c) { c.policy.background_compression = false; }},
      {"inline-decompression",
       [](sim::EngineConfig& c) { c.policy.background_decompression = false; }},
      {"no-remember-sets",
       [](sim::EngineConfig& c) { c.policy.use_remember_sets = false; }},
      {"recompress",
       [](sim::EngineConfig& c) { c.policy.recompress_for_real = true; }},
      {"best-fit",
       [](sim::EngineConfig& c) { c.fit = memory::FitPolicy::kBestFit; }},
      {"three-units",
       [](sim::EngineConfig& c) { c.policy.decompress_units = 3; }},
      {"costs", [](sim::EngineConfig& c) {
         c.costs.cycles_per_instruction = 1.7;
         c.costs.exception_cycles = 40;
         c.costs.patch_branch_cycles = 3;
         c.costs.unpatch_branch_cycles = 5;
         c.costs.delete_block_cycles = 7;
         c.costs.alloc_block_cycles = 2;
         c.costs.dispatch_job_cycles = 1;
       }}};
  std::vector<Case> cases;
  for (const auto& [name, apply] : knobs) {
    for (const auto strategy : {runtime::DecompressionStrategy::kPreAll,
                                runtime::DecompressionStrategy::kPreSingle}) {
      for (const bool tight : {false, true}) {
        Case c;
        c.config.policy.strategy = strategy;
        c.config.policy.compress_k = 2;
        c.config.policy.predecompress_k = 2;
        if (tight) c.config.policy.memory_budget = tight_budget(s);
        apply(c.config);
        c.label = name + "/" + runtime::strategy_name(strategy) +
                  (tight ? "/tight" : "");
        cases.push_back(std::move(c));
      }
    }
  }
  (void)check_cases(s, cases);
}

TEST(Oracle, FailsWhereTheEngineFails) {
  // A budget below the largest executed block: no victim, nothing in
  // flight, and both sides must refuse the run.
  const Subject& s = *small_programs()[0];
  Case c;
  c.label = "budget-1";
  c.config.policy.memory_budget = 1;
  const std::vector<Outcome> runs = check_cases(s, {c});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].ok);
  EXPECT_NE(runs[0].error.find("decompressed area exhausted"),
            std::string::npos)
      << runs[0].error;
}

/// A table's labelled cells as oracle cases over its one codec.
std::vector<Case> table_cases(const std::vector<reproduce::Cell>& cells) {
  std::vector<Case> cases;
  for (const reproduce::Cell& cell : cells) {
    EXPECT_EQ(cell.config.codec, cells.front().config.codec) << cell.label;
    cases.push_back({cell.label, core::engine_config(cell.config)});
  }
  return cases;
}

TEST(Oracle, MatchesEngineOnTheFigure3Grid) {
  // Figure 3's grid (`apcc_reproduce fig3_design_space`): gsm-like,
  // shared Huffman, one unit, every strategy at k in {1, 2, 4, 8}.
  const std::vector<reproduce::Cell> cells = reproduce::fig3_cells();
  const auto s = make_subject(
      workloads::workload_name(reproduce::kFig3Workload),
      suite_workload(reproduce::kFig3Workload), cells.front().config.codec,
      SIZE_MAX);
  const std::vector<Case> cases = table_cases(cells);
  const std::vector<Outcome> runs = check_cases(*s, cases);
  ASSERT_EQ(runs.size(), 12u);
  // The table's shape under this cost regime (docs/REPRODUCTION.md):
  // pre-single is faster than pre-all at every k. Rows 4-7 are pre-all
  // and rows 8-11 pre-single, each at k = 1, 2, 4, 8.
  for (std::size_t k = 0; k < 4; ++k) {
    const runtime::Policy& all = cells[4 + k].config.policy;
    const runtime::Policy& single = cells[8 + k].config.policy;
    ASSERT_EQ(all.strategy, runtime::DecompressionStrategy::kPreAll);
    ASSERT_EQ(single.strategy, runtime::DecompressionStrategy::kPreSingle);
    ASSERT_EQ(all.compress_k, single.compress_k);
    ASSERT_TRUE(runs[4 + k].ok && runs[8 + k].ok);
    EXPECT_LT(runs[8 + k].result.total_cycles, runs[4 + k].result.total_cycles)
        << cases[8 + k].label << " vs " << cases[4 + k].label;
  }
}

TEST(Oracle, MatchesEngineOnTheE3ApccRows) {
  // E3's APCC rows (`apcc_reproduce e3_strategy_table`): every kernel,
  // codepack, k_c = 16, k_d = 4, one row per strategy in the order
  // on-demand, pre-all, pre-single.
  const std::vector<reproduce::Cell> cells = reproduce::e3_apcc_cells();
  ASSERT_EQ(cells.size(), 3u);
  ASSERT_EQ(cells[0].config.policy.strategy,
            runtime::DecompressionStrategy::kOnDemand);
  ASSERT_EQ(cells[1].config.policy.strategy,
            runtime::DecompressionStrategy::kPreAll);
  ASSERT_EQ(cells[2].config.policy.strategy,
            runtime::DecompressionStrategy::kPreSingle);
  const std::vector<Case> cases = table_cases(cells);
  for (const auto kind : workloads::all_workload_kinds()) {
    const workloads::Workload& w = suite_workload(kind);
    const auto s =
        make_subject(w.name, w, cells.front().config.codec, SIZE_MAX);
    const std::vector<Outcome> runs = check_cases(*s, cases);
    ASSERT_EQ(runs.size(), 3u);
    ASSERT_TRUE(runs[0].ok && runs[1].ok && runs[2].ok);
    // The table's shape under this cost regime (docs/REPRODUCTION.md):
    // on-demand saves peak and average memory, pre-all's peak exceeds
    // the uncompressed image on every kernel, pre-single beats
    // on-demand's cycles everywhere, and pre-all does so everywhere
    // but crc-like.
    const sim::RunResult& on_demand = runs[0].result;
    const sim::RunResult& pre_all = runs[1].result;
    const sim::RunResult& pre_single = runs[2].result;
    EXPECT_GT(on_demand.peak_saving(), 0.0) << w.name;
    EXPECT_GT(on_demand.avg_saving(), 0.0) << w.name;
    EXPECT_LT(pre_all.peak_saving(), 0.0) << w.name;
    EXPECT_LT(pre_single.total_cycles, on_demand.total_cycles) << w.name;
    if (w.name == "crc-like") {
      EXPECT_GT(pre_all.total_cycles, on_demand.total_cycles);
    } else {
      EXPECT_LT(pre_all.total_cycles, on_demand.total_cycles) << w.name;
    }
  }
}

}  // namespace
}  // namespace apcc::oracle
