#include "serving/job_spec.hpp"

#include <cmath>
#include <sstream>
#include <type_traits>

#include "support/assert.hpp"

namespace apcc::serving {
namespace {

constexpr std::uint32_t kMaxUnits = 64;
// The profile predictor runs kd power-iteration rounds per exit block,
// and a frontier cache's lists grow with kd.
constexpr std::uint32_t kMaxKd = 64;
constexpr double kMaxCpi = 65536;
constexpr std::uint64_t kMaxEventCycles = 0xFFFFFFFF;

/// `v` as a message prints it ("nan", "-1", "1e+300").
std::string show(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// One configuration's engine knobs, each kept to what the engine can
/// take: a per-unit table it sizes and scans, and cycle sums that must
/// neither wrap nor run backwards. `task` names the task line, if any.
void validate_engine(const sim::EngineConfig& config,
                     const sweep::SweepTask* task) {
  const auto where = [task] {
    return task == nullptr ? std::string() : "task '" + task->label + "': ";
  };
  const runtime::Policy& policy = config.policy;
  APCC_CHECK(policy.compress_k >= 1,
             where() + "kc out of range: 0 (expected at least 1)");
  APCC_CHECK(policy.predecompress_k <= kMaxKd,
             where() + "kd out of range: " +
                 std::to_string(policy.predecompress_k) +
                 " (expected at most " + std::to_string(kMaxKd) + ")");
  APCC_CHECK(policy.decompress_units >= 1 &&
                 policy.decompress_units <= kMaxUnits,
             where() + "units out of range: " +
                 std::to_string(policy.decompress_units) + " (expected 1.." +
                 std::to_string(kMaxUnits) + ")");
  runtime::for_each_cost(
      [&where](const char* key, const auto& cost) {
        if constexpr (std::is_floating_point_v<
                          std::remove_cvref_t<decltype(cost)>>) {
          APCC_CHECK(std::isfinite(cost) && cost >= 0 && cost <= kMaxCpi,
                     where() + key + " out of range: " + show(cost) +
                         " (expected a finite value in [0, " +
                         show(kMaxCpi) + "])");
        } else {
          APCC_CHECK(cost <= kMaxEventCycles,
                     where() + key + " out of range: " +
                         std::to_string(cost) + " (expected at most " +
                         std::to_string(kMaxEventCycles) + ")");
        }
      },
      config.costs);
}

}  // namespace

void validate(const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::kRun:
      APCC_CHECK(spec.workloads.size() == 1,
                 "run job needs exactly one workload, got " +
                     std::to_string(spec.workloads.size()));
      APCC_CHECK(spec.tasks.empty(),
                 "run job takes a single configuration, not a task grid");
      APCC_CHECK(spec.batch_cells == 0,
                 "run job has a single cell; batch-cells does not apply");
      break;
    case JobKind::kSweep:
      APCC_CHECK(spec.workloads.size() == 1,
                 "sweep job needs exactly one workload, got " +
                     std::to_string(spec.workloads.size()));
      break;
    case JobKind::kCampaign:
      break;
    default:
      APCC_CHECK(false, "unknown job kind " +
                            std::to_string(static_cast<int>(spec.kind)));
  }
  APCC_CHECK(spec.priority == sweep::Priority::kHigh ||
                 spec.priority == sweep::Priority::kNormal ||
                 spec.priority == sweep::Priority::kBatch,
             "unknown priority class " +
                 std::to_string(static_cast<int>(spec.priority)));
  for (const std::string& ref : spec.workloads) {
    APCC_CHECK(!ref.empty(), "empty workload reference");
  }
  APCC_CHECK(spec.deadline_ms <= JobSpec::kMaxDeadlineMs,
             "deadline-ms out of range: " + std::to_string(spec.deadline_ms) +
                 " (expected at most " +
                 std::to_string(JobSpec::kMaxDeadlineMs) + ")");
  validate_engine(core::engine_config(spec.config), nullptr);
  for (const sweep::SweepTask& task : spec.tasks) {
    validate_engine(task.config, &task);
  }
}

std::vector<sweep::SweepTask> strategy_k_grid(const sim::EngineConfig& base) {
  std::vector<sweep::SweepTask> tasks;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
      sweep::SweepTask task;
      task.label = std::string(runtime::strategy_name(strategy)) +
                   "/k=" + std::to_string(k);
      task.config = base;
      task.config.policy.strategy = strategy;
      task.config.policy.compress_k = k;
      task.config.policy.predecompress_k = k;
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

}  // namespace apcc::serving
