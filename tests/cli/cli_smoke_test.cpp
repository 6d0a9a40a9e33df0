// CLI smoke tests: drive the apcc_cli binary end-to-end on a checked-in
// .s workload and pin the contract scripts rely on -- exit codes
// (0 success, 1 usage error incl. contradictory grid options, 2 input
// error), CSV output with a stable header, and the batch job-file mode.
//
// The binary path and data directory arrive via compile definitions
// (APCC_CLI_PATH / APCC_CLI_DATA_DIR, set in CMakeLists.txt); the test
// group is only built when APCC_BUILD_TOOLS is on.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/wire_headers.hpp"
#include "compress/codec.hpp"
#include "net/socket.hpp"
#include "runtime/policy.hpp"

namespace {

using apcc::testref::kJobLine;
using apcc::testref::kResultLine;

constexpr const char* kCliPath = APCC_CLI_PATH;
constexpr const char* kDataDir = APCC_CLI_DATA_DIR;
constexpr const char* kWireDataDir = APCC_WIRE_DATA_DIR;

/// The fixed to_csv header (core/csv.hpp): scripts parse on it.
constexpr const char* kCsvHeader =
    "label,total_cycles,baseline_cycles,slowdown,peak_bytes,avg_bytes,"
    "compressed_area_bytes,original_bytes,codec_ratio,exceptions,"
    "demand_decompressions,predecompressions,deletions,evictions,"
    "stall_cycles";

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout only; stderr is discarded
};

CommandResult run_cli(const std::string& args) {
  const std::string command =
      std::string(kCliPath) + " " + args + " 2>/dev/null";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Like run_cli but captures stderr instead (for diagnostics checks).
CommandResult run_cli_stderr(const std::string& args) {
  const std::string command =
      std::string(kCliPath) + " " + args + " 2>&1 1>/dev/null";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Run an arbitrary shell snippet (for orchestration the binary alone
/// cannot express, e.g. signalling a backgrounded serve process).
CommandResult run_shell(const std::string& script) {
  CommandResult result;
  FILE* pipe = popen(script.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string workload_path() {
  return std::string(kDataDir) + "/mini_dsp.s";
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::size_t count_fields(const std::string& line) {
  return static_cast<std::size_t>(
             std::count(line.begin(), line.end(), ',')) + 1;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(CliSmoke, SimReportsTheWorkload) {
  const auto result = run_cli("sim " + workload_path());
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("mini_dsp.s"), std::string::npos);
  EXPECT_NE(result.output.find("cycles:"), std::string::npos);
}

TEST(CliSmoke, SimCsvHasStableHeaderAndOneRow) {
  const auto result = run_cli("sim " + workload_path() + " --csv");
  ASSERT_EQ(result.exit_code, 0);
  const auto lines = lines_of(result.output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], kCsvHeader);
  EXPECT_EQ(count_fields(lines[1]), count_fields(lines[0]));
}

TEST(CliSmoke, SimAcceptsEveryCodec) {
  // --codec takes every name the library has, and each runs end to end
  // through the CLI path; the codecs pruned in wire v6 are usage errors.
  for (const auto kind : apcc::compress::all_codec_kinds()) {
    const std::string codec = apcc::compress::codec_kind_name(kind);
    const auto result =
        run_cli("sim " + workload_path() + " --codec " + codec + " --csv");
    ASSERT_EQ(result.exit_code, 0) << codec;
    const auto lines = lines_of(result.output);
    ASSERT_EQ(lines.size(), 2u) << codec;
    EXPECT_EQ(lines[0], kCsvHeader) << codec;
  }
  for (const char* codec : {"fpc", "bdi", "adaptive"}) {
    EXPECT_EQ(
        run_cli("sim " + workload_path() + " --codec " + codec).exit_code, 1)
        << codec;
  }
}

TEST(CliSmoke, EnumFlagsAcceptEveryNameAndRejectUnknownOnes) {
  // --strategy, --predictor and --codec read their names from the same
  // tables the wire does: every name runs (SimAcceptsEveryCodec runs the
  // codecs), and an unknown one is a usage error that names the flag's
  // kind and the value.
  const auto accepts_all = [](const std::string& flag, const auto& table) {
    for (const auto& row : table) {
      EXPECT_EQ(run_cli("sim " + workload_path() + " " + flag + " " +
                        row.name + " --csv")
                    .exit_code,
                0)
          << flag << " " << row.name;
    }
  };
  accepts_all("--strategy", apcc::runtime::kStrategyNames);
  accepts_all("--predictor", apcc::runtime::kPredictorNames);
  for (const auto& [flag, kind] :
       std::vector<std::pair<std::string, std::string>>{
           {"--strategy", "strategy"},
           {"--predictor", "predictor"},
           {"--codec", "codec"}}) {
    const auto result =
        run_cli_stderr("sim " + workload_path() + " " + flag + " bogus");
    EXPECT_EQ(result.exit_code, 1) << flag;
    EXPECT_NE(result.output.find("unknown " + kind + " 'bogus'"),
              std::string::npos)
        << flag << ": " << result.output;
  }
}

TEST(CliSmoke, SweepCsvHasFullGridInTaskOrder) {
  const auto result =
      run_cli("sweep " + workload_path() + " --csv --workers 2");
  ASSERT_EQ(result.exit_code, 0);
  const auto lines = lines_of(result.output);
  // Header + 3 strategies x 4 k values.
  ASSERT_EQ(lines.size(), 1u + 12u);
  EXPECT_EQ(lines[0], kCsvHeader);
  EXPECT_EQ(lines[1].rfind("on-demand/k=1,", 0), 0u);
  EXPECT_EQ(lines[12].rfind("pre-single/k=8,", 0), 0u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(count_fields(lines[i]), count_fields(lines[0])) << lines[i];
  }
}

TEST(CliSmoke, SweepBatchCellsMatchesPerEngineSweep) {
  // --batch-cells is a scheduling knob, never a results knob: the CSV
  // (task order, every field) must be byte-identical to the default
  // width-1 sweep, including a width that does not divide the 12-task
  // grid.
  const auto reference =
      run_cli("sweep " + workload_path() + " --csv --workers 2");
  ASSERT_EQ(reference.exit_code, 0);
  for (const char* width : {"1", "5", "16"}) {
    const auto batched =
        run_cli("sweep " + workload_path() + " --csv --workers 2" +
                " --batch-cells " + width);
    ASSERT_EQ(batched.exit_code, 0) << width;
    EXPECT_EQ(batched.output, reference.output) << width;
  }
}

TEST(CliSmoke, CacheBudgetIsAServerKnobNeverAResultsKnob) {
  // --cache-budget-bytes bounds the service's artifact cache: a one-byte
  // ceiling forces eviction at every publish, yet the CSV must stay
  // byte-identical to the unbudgeted sweep (evicted artifacts rebuild
  // bit-identically on next use).
  const auto reference =
      run_cli("sweep " + workload_path() + " --csv --workers 1");
  ASSERT_EQ(reference.exit_code, 0);
  const auto budgeted =
      run_cli("sweep " + workload_path() + " --csv --workers 1" +
              " --cache-budget-bytes 1");
  ASSERT_EQ(budgeted.exit_code, 0);
  EXPECT_EQ(budgeted.output, reference.output);
  // One ceiling covers both artifact kinds: the per-kind flags are gone.
  for (const char* gone :
       {"--cache-budget-image-bytes", "--cache-budget-frontier-bytes"}) {
    EXPECT_EQ(run_cli("sweep " + workload_path() + " --workers 1 " + gone +
                      " 1")
                  .exit_code,
              1)
        << gone;
  }
  // A missing value is a usage error, not a silent zero.
  EXPECT_EQ(run_cli("sweep " + workload_path() + " --cache-budget-bytes")
                .exit_code,
            1);
}

TEST(CliSmoke, NumericFlagsRejectNegativeAndOutOfRangeValues) {
  // A value the flag's setting cannot hold is a usage error naming the
  // flag, never a wrapped number: --kc -1 would otherwise run with
  // k = 4294967295, --kc 4294967298 as k = 2, and --budget -1 unbounded.
  // So is one above the setting's own maximum: --workers 4000000000
  // would ask for four billion pool threads.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"sim gsm-like --kc -1", "--kc"},
      {"sim gsm-like --kc 4294967298", "--kc"},
      {"sim gsm-like --budget -1", "--budget"},
      {"sweep " + workload_path() + " --cache-budget-bytes -1",
       "--cache-budget-bytes"},
      {"serve --client-weight tenant=4294967297 < /dev/null",
       "--client-weight"},
      {"sim gsm-like --units x", "--units"},
      {"sweep " + workload_path() + " --workers 4000000000", "--workers"},
  };
  for (const auto& [args, flag] : cases) {
    const auto result = run_cli_stderr(args);
    EXPECT_EQ(result.exit_code, 1) << args;
    EXPECT_NE(result.output.find(flag), std::string::npos)
        << args << ": " << result.output;
  }
}

TEST(CliSmoke, BatchSummaryReportsEvictionCountersUnderBudget) {
  // The batch summary on stderr uses the shared cache-stats formatter:
  // under a one-byte budget the thrashing sweep must surface nonzero
  // eviction counters there.
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_budget_jobs.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind sweep\nworkload " << workload_path()
        << "\ngrid strategy-k\nend\n";
  }
  const auto result = run_cli_stderr("batch " + jobfile +
                                     " --workers 1 --cache-budget-bytes 1");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("cache images:"), std::string::npos)
      << result.output;
  const std::size_t frontier_line = result.output.find("cache frontiers:");
  ASSERT_NE(frontier_line, std::string::npos) << result.output;
  // The k-gridded sweep thrashes the one-byte budget, so the frontier
  // eviction counter is nonzero. (The lone image stays pinned by every
  // publishing cell, so its counter legitimately reads 0.)
  const std::string frontiers = result.output.substr(frontier_line);
  EXPECT_NE(frontiers.find(" eviction(s)"), std::string::npos) << frontiers;
  EXPECT_EQ(frontiers.find(" 0 eviction(s)"), std::string::npos) << frontiers;
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, BatchCellsRejectedWhereItCannotApply) {
  // Run-kind commands have a single cell per job; batch and serve take
  // per-job knobs from the job records. Silently ignoring the flag is
  // the trap the CLI rejects everywhere.
  EXPECT_EQ(run_cli("sim " + workload_path() + " --batch-cells 4").exit_code,
            1);
  EXPECT_EQ(run_cli("suite --batch-cells 4").exit_code, 1);
  EXPECT_EQ(run_cli("batch nofile.wire --batch-cells 4").exit_code, 1);
  EXPECT_EQ(run_cli("serve --batch-cells 4 < /dev/null").exit_code, 1);
}

TEST(CliSmoke, SweepAndCampaignRejectContradictoryGridOptions) {
  EXPECT_EQ(run_cli("sweep " + workload_path() + " --strategy pre-all")
                .exit_code,
            1);
  EXPECT_EQ(run_cli("sweep " + workload_path() + " --kc 2").exit_code, 1);
  EXPECT_EQ(run_cli("campaign --kd 4").exit_code, 1);
}

TEST(CliSmoke, UsageErrorsExitOne) {
  EXPECT_EQ(run_cli("sim " + workload_path() + " --no-such-flag").exit_code,
            1);
  EXPECT_EQ(run_cli("frobnicate x").exit_code, 1);
  // Output-format flags that would be silently ignored are rejected:
  // only batch takes --wire, and serve always emits wire records.
  EXPECT_EQ(run_cli("sim " + workload_path() + " --wire").exit_code, 1);
  EXPECT_EQ(run_cli("sweep " + workload_path() + " --wire").exit_code, 1);
  EXPECT_EQ(run_cli("serve --csv < /dev/null").exit_code, 1);
  // wire-roundtrip takes exactly one file; extras are rejected, not
  // silently dropped.
  EXPECT_EQ(run_cli("wire-roundtrip a.wire b.wire").exit_code, 1);
}

TEST(CliSmoke, GeometrySharingFlagIsGone) {
  // The service always borrows its cached geometry since wire v7; the
  // flag that turned that off is an unknown option now.
  EXPECT_EQ(run_cli("sim gsm-like --no-shared-frontiers").exit_code, 1);
}

TEST(CliSmoke, FifoSchedulingFlagIsGone) {
  // Untagged jobs already run in lowest-id order under fair share; the
  // flag that switched fair share off is an unknown option now.
  const auto serve = run_cli_stderr("serve --no-fair-share < /dev/null");
  EXPECT_EQ(serve.exit_code, 1);
  EXPECT_NE(serve.output.find("unknown option"), std::string::npos)
      << serve.output;
}

TEST(CliSmoke, MissingInputExitsTwo) {
  EXPECT_EQ(run_cli("sim /nonexistent/nope.s").exit_code, 2);
}

TEST(CliSmoke, EngineFailureNamesItsCauseWithoutTheCheckoutPath) {
  // A budget too small for the working set: the engine cell fails, its
  // CellOutcome error fails the job, and the job's rethrown CheckError
  // is the CLI's exit-2 message. The failing check's location renders
  // relative to the source root -- a failed job's error record must not
  // depend on where the tree was checked out.
  const std::string data_dir = kDataDir;
  const std::string checkout =
      data_dir.substr(0, data_dir.rfind("/tests/cli/data")) + "/";
  const auto sim = run_cli_stderr("sim gsm-like --budget 16");
  EXPECT_EQ(sim.exit_code, 2);
  EXPECT_NE(sim.output.find("decompressed area exhausted"), std::string::npos)
      << sim.output;
  EXPECT_NE(sim.output.find(" at src/"), std::string::npos) << sim.output;
  EXPECT_EQ(sim.output.find(checkout), std::string::npos) << sim.output;

  // The same failure served as a wire error record.
  const auto served = run_shell(
      "printf '" + apcc::serving::wire::kJobHeader +
      "\\nkind run\\nworkload gsm-like\\n"
      "policy budget=16\\nend\\n' | " +
      std::string(kCliPath) + " serve 2>/dev/null");
  EXPECT_EQ(served.exit_code, 0);
  EXPECT_NE(served.output.find("status error"), std::string::npos)
      << served.output;
  EXPECT_NE(served.output.find("decompressed%20area%20exhausted"),
            std::string::npos)
      << served.output;
  EXPECT_NE(served.output.find("%20at%20src/"), std::string::npos)
      << served.output;
  EXPECT_EQ(served.output.find(checkout), std::string::npos) << served.output;
}

TEST(CliSmoke, BatchRunsWireJobFileOverTheCheckedInWorkload) {
  // batch covers the wire-format job file: run + sweep + campaign
  // records over the checked-in workload (the bare `campaign`
  // subcommand grids over the whole built-in suite, too slow for a
  // smoke test), exercising artifact reuse and the QoS fields.
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_jobs.wire";
  {
    std::ofstream out(jobfile);
    out << "# smoke jobs (wire format)\n"
        << kJobLine
        << "kind run\n"
        << "workload " << workload_path() << "\n"
        << "end\n"
        << "\n"
        << kJobLine
        << "kind sweep\n"
        << "priority high\n"
        << "max-workers 1\n"
        << "workload " << workload_path() << "\n"
        << "grid strategy-k\n"
        << "end\n"
        << "\n"
        << kJobLine
        << "kind campaign\n"
        << "priority batch\n"
        << "workload " << workload_path() << "\n"
        << "task label=on-demand/k=1 strategy=on-demand kc=1 kd=1\n"
        << "end\n";
  }
  const auto result = run_cli("batch " + jobfile + " --workers 2 --csv");
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("### job 1: run"), std::string::npos);
  EXPECT_NE(result.output.find("### job 2: sweep"), std::string::npos);
  EXPECT_NE(result.output.find("[high]"), std::string::npos);
  EXPECT_NE(result.output.find("### job 3: campaign"), std::string::npos);
  // The sweep grid sugar expanded to the standard 12 labels, and the
  // campaign CSV labels rows workload/task.
  EXPECT_NE(result.output.find("pre-single/k=8,"), std::string::npos);
  EXPECT_NE(result.output.find(workload_path() + "/on-demand/k=1,"),
            std::string::npos);

  // --wire emits machine-readable result records instead.
  const auto wired = run_cli("batch " + jobfile + " --wire");
  ASSERT_EQ(wired.exit_code, 0);
  EXPECT_NE(wired.output.find(kResultLine + "job 1\n"), std::string::npos);
  EXPECT_NE(wired.output.find("status ok"), std::string::npos);
  EXPECT_NE(wired.output.find("kind campaign"), std::string::npos);
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, BatchWireEmitsErrorRecordsForFailedJobs) {
  // In --wire mode the stream is the contract: a job that fails at
  // runtime becomes a status-error record (like serve), never a
  // truncated stream -- later jobs' records still arrive.
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_wire_fail.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind run\nworkload " << workload_path() << "\nend\n"
        << kJobLine << "kind run\nworkload " << workload_path() << "\n"
        << "policy budget=1\n"  // smaller than any block: engine throws
        << "end\n"
        << kJobLine << "kind run\nworkload /nonexistent/nope.s\nend\n"
        << kJobLine << "kind run\nworkload " << workload_path() << "\nend\n";
  }
  const auto result = run_cli("batch " + jobfile + " --wire");
  ASSERT_EQ(result.exit_code, 0);
  const std::size_t first = result.output.find(kResultLine + "job 1\n");
  const std::size_t second = result.output.find(kResultLine + "job 2\n");
  const std::size_t third = result.output.find(kResultLine + "job 3\n");
  const std::size_t fourth = result.output.find(kResultLine + "job 4\n");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(third, std::string::npos);
  ASSERT_NE(fourth, std::string::npos);
  // Job 2 failed at runtime (engine), job 3 never started (unknown
  // workload) -- both are status-error records in their slots; jobs 1
  // and 4 still deliver ok results.
  const std::string engine_failed = result.output.substr(second, third - second);
  EXPECT_NE(engine_failed.find("status error"), std::string::npos)
      << engine_failed;
  const std::string never_started =
      result.output.substr(third, fourth - third);
  EXPECT_NE(never_started.find("status error"), std::string::npos)
      << never_started;
  EXPECT_NE(never_started.find("nope.s"), std::string::npos);
  EXPECT_NE(result.output.substr(fourth).find("status ok"),
            std::string::npos);
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, BatchReportsLineAndSnippetOnMalformedRecords) {
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_bad_jobs.wire";
  // A job record with a bad value on line 4: the diagnostic must name
  // the file, the line, and echo the offending text -- not just exit 1.
  {
    std::ofstream out(jobfile);
    out << kJobLine
        << "kind sweep\n"
        << "workload " << workload_path() << "\n"
        << "task label=x strategy=warp-speed\n"
        << "end\n";
  }
  const auto result = run_cli_stderr("batch " + jobfile);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find(jobfile + ":4:"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("strategy=warp-speed"), std::string::npos)
      << result.output;
  // The PR 4 job-file syntax is gone: an old-style line is a wire
  // format error (migration note in README.md), not a silent no-op.
  {
    std::ofstream out(jobfile);
    out << "run " << workload_path() << "\n";
  }
  EXPECT_EQ(run_cli("batch " + jobfile).exit_code, 1);
  // Per-job config on the batch command line (which applies to no job)
  // is still rejected, not silently dropped.
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind run\nworkload " << workload_path() << "\nend\n";
  }
  EXPECT_EQ(run_cli("batch " + jobfile + " --codec null").exit_code, 1);
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, ServeStreamsWireResultsInSubmissionOrder) {
  // The remote front door: job records in on stdin, result records out
  // on stdout, submission order, errors as records (the server keeps
  // going after a bad job).
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_serve.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine
        << "kind run\n"
        << "client smoke\n"
        << "workload " << workload_path() << "\n"
        << "end\n"
        << kJobLine
        << "kind run\n"
        << "workload /nonexistent/nope.s\n"
        << "end\n"
        << kJobLine
        << "kind sweep\n"
        << "workload " << workload_path() << "\n"
        << "task label=on-demand/k=1 strategy=on-demand kc=1 kd=1\n"
        << "end\n";
  }
  const auto result = run_cli("serve < " + jobfile);
  ASSERT_EQ(result.exit_code, 0);
  const std::size_t first = result.output.find(kResultLine + "job 1\n");
  const std::size_t second = result.output.find(kResultLine + "job 2\n");
  const std::size_t third = result.output.find(kResultLine + "job 3\n");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(third, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  EXPECT_NE(result.output.find("client smoke"), std::string::npos);
  // Job 2 failed (missing file) as a status error record; job 3 after
  // it still ran to an ok sweep result.
  const std::string middle = result.output.substr(second, third - second);
  EXPECT_NE(middle.find("status error"), std::string::npos);
  EXPECT_NE(middle.find("nope.s"), std::string::npos);
  const std::string tail = result.output.substr(third);
  EXPECT_NE(tail.find("status ok"), std::string::npos);
  EXPECT_NE(tail.find("kind sweep"), std::string::npos);
  EXPECT_NE(tail.find("label=on-demand/k=1"), std::string::npos);
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, ServeAnswersAnUnassemblableWorkloadAndKeepsServing) {
  // A workload file with a statement of only delimiters: `asm` exits 2
  // with the assembler's line, and `serve` answers a record naming it
  // with an error record, then answers the next record. (Reading the
  // missing first field of that statement once took the server down.)
  const std::string source =
      ::testing::TempDir() + "/apcc_smoke_delimiters.s";
  {
    std::ofstream out(source);
    out << ".func main\n  ,\n  halt\n";
  }
  const auto assembled = run_cli_stderr("asm " + source);
  EXPECT_EQ(assembled.exit_code, 2);
  EXPECT_NE(assembled.output.find("line 2: statement has no mnemonic"),
            std::string::npos)
      << assembled.output;

  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_delimiters.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind run\n"
        << "workload " << source << "\n"
        << "end\n"
        << kJobLine << "kind run\n"
        << "workload " << workload_path() << "\n"
        << "end\n";
  }
  const auto served = run_cli("serve < " + jobfile);
  ASSERT_EQ(served.exit_code, 0) << served.output;
  const std::size_t first = served.output.find(kResultLine + "job 1\n");
  const std::size_t second = served.output.find(kResultLine + "job 2\n");
  ASSERT_NE(first, std::string::npos) << served.output;
  ASSERT_NE(second, std::string::npos) << served.output;
  const std::string bad = served.output.substr(first, second - first);
  EXPECT_NE(bad.find("status error"), std::string::npos) << bad;
  EXPECT_NE(bad.find("statement%20has%20no%20mnemonic"), std::string::npos)
      << bad;
  EXPECT_NE(served.output.substr(second).find("status ok"),
            std::string::npos)
      << served.output;
  std::remove(jobfile.c_str());
  std::remove(source.c_str());
}

TEST(CliSmoke, ServeEmitsResultsWhileStdinIsStillOpen) {
  // The request/response shape: a client writes one job and waits for
  // its result before sending anything else. The result record must
  // arrive while stdin is still open -- the server can't sit on
  // completed results until the next record or EOF.
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_serve_stream.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind run\nworkload " << workload_path() << "\nend\n";
  }
  // The subshell holds stdin open for 4s after the job; the first
  // result record must complete well before that.
  const std::string command = "( cat " + jobfile + "; sleep 4 ) | " +
                              std::string(kCliPath) + " serve 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  const auto start = std::chrono::steady_clock::now();
  std::string output;
  double first_record_seconds = 1e9;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    output += buffer;
    if (std::string(buffer) == "end\n") {
      first_record_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      break;
    }
  }
  pclose(pipe);  // waits out the subshell's sleep
  EXPECT_NE(output.find(kResultLine + "job 1\n"), std::string::npos)
      << output;
  EXPECT_NE(output.find("status ok"), std::string::npos) << output;
  EXPECT_LT(first_record_seconds, 3.0)
      << "serve held a finished result until stdin closed";
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, ServeOverStdinMatchesBatchWireByteForByte) {
  // One session loop, one framer: the stdin session and batch --wire
  // emit the same stream for the same job file.
  const std::string golden = std::string(kWireDataDir) + "/jobs_mixed.wire";
  const auto served = run_cli("serve --workers 4 < " + golden);
  const auto batched = run_cli("batch " + golden + " --wire --workers 4");
  ASSERT_EQ(served.exit_code, 0);
  ASSERT_EQ(batched.exit_code, 0);
  EXPECT_FALSE(served.output.empty());
  EXPECT_EQ(served.output, batched.output);
}

TEST(CliSmoke, ServeStdinFramingErrorWritesAFinalRecordAndExitsOne) {
  // A framing error on stdin: accepted jobs deliver, one final status
  // error record says where, then a positioned diagnostic and exit 1.
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_serve_garbage.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind run\nworkload " << workload_path() << "\nend\n"
        << "not a record header\n";  // line 5
  }
  const auto result = run_shell(std::string(kCliPath) + " serve < " +
                                jobfile + " 2>&1 >/dev/null; echo \"exit=$?\"");
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("error: stdin:5: expected an 'apcc.job' or "
                               "'apcc.result' record header"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("exit=1"), std::string::npos) << result.output;
  const auto stdout_only = run_shell(std::string(kCliPath) + " serve < " +
                                     jobfile + " 2>/dev/null");
  EXPECT_EQ(stdout_only.exit_code, 1);
  EXPECT_EQ(count_occurrences(stdout_only.output, kResultLine), 2u)
      << stdout_only.output;
  const std::string last =
      stdout_only.output.substr(stdout_only.output.rfind(kResultLine));
  EXPECT_EQ(last, kResultLine +
                      "job 2\nclient -\nstatus error\nerror "
                      "stdin:5:%20expected%20an%20'apcc.job'%20or%20'apcc."
                      "result'%20record%20header\nend\n");
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, ServeStdinBoundsRecordsLikeSocketsButBatchDoesNot) {
  // A stdin record gets the sockets' 1 MiB framing bound; a job file is
  // bounded only by its own size.
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_big_record.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind run\nworkload " << workload_path() << "\n";
    const std::string comment = "# " + std::string(98, 'x') + "\n";
    for (int i = 0; i < 11000; ++i) out << comment;  // 1.1 MB
    out << "end\n";
  }
  const auto served = run_shell(std::string(kCliPath) + " serve < " +
                                jobfile + " 2>&1 >/dev/null; echo \"exit=$?\"");
  EXPECT_NE(served.output.find("error: stdin:1: record exceeds the size "
                               "limit (1048576 bytes)"),
            std::string::npos)
      << served.output;
  EXPECT_NE(served.output.find("exit=1"), std::string::npos) << served.output;
  const auto batched = run_cli("batch " + jobfile + " --wire");
  EXPECT_EQ(batched.exit_code, 0);
  EXPECT_EQ(count_occurrences(batched.output, "status ok"), 1u);
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, BatchRejectsAFileWithoutItsFinalNewline) {
  // The socket rule for every path: the last line must end in '\n'. The
  // diagnostic names the unterminated line, not a missing 'end'.
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_no_final_newline.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind run\nworkload " << workload_path() << "\nend";
  }
  const auto result = run_cli_stderr("batch " + jobfile);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find(jobfile +
                               ":4: stream ends mid-line (no trailing "
                               "newline)"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("  4 | end"), std::string::npos)
      << result.output;
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, WireRoundtripIsAFixedPoint) {
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_roundtrip.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine
        << "kind sweep\n"
        << "workload gsm-like\n"
        << "grid strategy-k\n"
        << "end\n";
  }
  const auto once = run_cli("wire-roundtrip " + jobfile);
  ASSERT_EQ(once.exit_code, 0);
  const std::string canonical = ::testing::TempDir() + "/apcc_canonical.wire";
  {
    std::ofstream out(canonical);
    out << once.output;
  }
  const auto twice = run_cli("wire-roundtrip " + canonical);
  ASSERT_EQ(twice.exit_code, 0);
  EXPECT_EQ(once.output, twice.output);
  std::remove(jobfile.c_str());
  std::remove(canonical.c_str());
}

TEST(CliSmoke, VersionPrintsToolAndWireVersion) {
  const auto result = run_cli("version");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output.rfind("apcc_cli ", 0), 0u) << result.output;
  const std::string wire_tag =
      "(wire v" + std::to_string(apcc::serving::JobSpec::kWireVersion) + ")";
  EXPECT_NE(result.output.find(wire_tag), std::string::npos)
      << result.output;
  // Exactly-one-line contract, scripts parse it.
  EXPECT_EQ(lines_of(result.output).size(), 1u);
  EXPECT_EQ(run_cli("version --csv").exit_code, 1);
}

TEST(CliSmoke, ServeMaxQueuedRejectsOverloadAsRecords) {
  // Bounded admission: with --max-queued 1 and a slow sweep occupying
  // the slot, the quick jobs behind it resolve as status-rejected
  // records -- the stream never stalls, never throws, and still emits
  // exactly one record per job, in submission order.
  const std::string jobfile =
      ::testing::TempDir() + "/apcc_smoke_overload.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind sweep\nworkload " << workload_path()
        << "\ngrid strategy-k\nend\n"
        << kJobLine << "kind run\nworkload " << workload_path() << "\nend\n"
        << kJobLine << "kind run\nworkload " << workload_path() << "\nend\n";
  }
  const auto result =
      run_cli("serve --max-queued 1 --workers 1 < " + jobfile);
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_EQ(count_occurrences(result.output, kResultLine), 3u)
      << result.output;
  for (int job = 1; job <= 3; ++job) {
    EXPECT_EQ(count_occurrences(result.output,
                                "job " + std::to_string(job) + "\n"),
              1u)
        << result.output;
  }
  // The occupant finished; the overflow was rejected with the fixed
  // admission message (deterministic bytes, see fault_injection_test).
  EXPECT_NE(result.output.find("status ok"), std::string::npos);
  EXPECT_NE(result.output.find("status rejected"), std::string::npos);
  EXPECT_NE(result.output.find("job%20limit%20reached"), std::string::npos)
      << result.output;
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, ServeDrainsGracefullyOnSigterm) {
  // SIGTERM mid-stream: serve stops reading, finishes every accepted
  // job, emits exactly one record per accepted job, and exits 0. The
  // fifo keeps stdin open so the shutdown is signal-driven, not EOF.
  const std::string dir = ::testing::TempDir();
  const std::string jobfile = dir + "/apcc_smoke_drain.wire";
  {
    std::ofstream out(jobfile);
    out << kJobLine << "kind run\nworkload " << workload_path() << "\nend\n"
        << kJobLine << "kind sweep\nworkload " << workload_path()
        << "\ngrid strategy-k\nend\n";
  }
  const std::string script =
      "fifo=" + dir + "/apcc_drain_fifo; out=" + dir + "/apcc_drain_out; "
      "rm -f \"$fifo\"; mkfifo \"$fifo\"; "
      + std::string(kCliPath) + " serve --workers 1 < \"$fifo\" > \"$out\" "
      "2>/dev/null & pid=$!; "
      "exec 3> \"$fifo\"; cat " + jobfile + " >&3; "
      "n=0; until grep -q '^end$' \"$out\" 2>/dev/null; do "
      "sleep 0.1; n=$((n+1)); [ $n -gt 300 ] && break; done; "
      "kill -TERM $pid; wait $pid; status=$?; exec 3>&-; "
      "echo \"serve-exit=$status\"; cat \"$out\"; "
      "rm -f \"$fifo\" \"$out\"";
  const auto result = run_shell(script);
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("serve-exit=0"), std::string::npos)
      << result.output;
  // Exactly one record per accepted job, drained to completion (the
  // sweep may legitimately resolve cancelled if it had not started).
  EXPECT_EQ(count_occurrences(result.output, kResultLine), 2u)
      << result.output;
  EXPECT_EQ(count_occurrences(result.output, "job 1\n"), 1u);
  EXPECT_EQ(count_occurrences(result.output, "job 2\n"), 1u);
  EXPECT_EQ(count_occurrences(result.output, "status error"), 0u)
      << result.output;
  std::remove(jobfile.c_str());
}

TEST(CliSmoke, ServeListensOnTcpRejectsOverloadAndDrainsOnSigterm) {
  // The TCP front door end-to-end: `serve --listen 0` binds an
  // ephemeral port and announces it on stderr; a loopback client
  // speaks the stdin wire protocol over the socket -- per-session
  // submission order, --max-queued-per-client overflow resolving as a
  // `status rejected` record -- and SIGTERM drains the server to exit
  // 0 while the listener is live.
  const std::string command =
      std::string(kCliPath) +
      " serve --listen 0 --workers 1 --max-queued-per-client 1"
      " < /dev/null 2>&1 1>/dev/null"
      " & pid=$!; echo pid=$pid; wait $pid; echo exit=$?";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char buffer[512];
  long pid = -1;
  int port = 0;
  while ((pid < 0 || port == 0) &&
         fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    const std::string line(buffer);
    if (line.rfind("pid=", 0) == 0) pid = std::stol(line.substr(4));
    const std::string needle = "listening on 127.0.0.1:";
    const std::size_t pos = line.find(needle);
    if (pos != std::string::npos) {
      port = std::stoi(line.substr(pos + needle.size()));
    }
  }
  ASSERT_GT(pid, 0);
  ASSERT_GT(port, 0);

  // A slow job occupies the per-client slot; the run job right behind
  // it on the same connection must come back rejected. Job 1 is a
  // three-workload suite campaign (tens of ms of work on the single
  // worker); job 2 reuses gsm-like, so its prepare is a dedup lookup
  // and both submits happen back-to-back on the IO thread -- job 1 is
  // still live at job 2's admission check unless the IO thread stalls
  // for the whole campaign between two adjacent submits.
  const std::string jobs =
      kJobLine + "kind campaign\nworkload gsm-like\n"
      "workload crc-like\nworkload adpcm-like\n"
      "grid strategy-k\nend\n" +
      kJobLine + "kind run\nworkload gsm-like\nend\n";
  std::string response;
  {
    const apcc::net::Fd client =
        apcc::net::connect_tcp("127.0.0.1", static_cast<std::uint16_t>(port));
    std::size_t sent = 0;
    while (sent < jobs.size()) {
      const ssize_t n =
          ::send(client.get(), jobs.data() + sent, jobs.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    ::shutdown(client.get(), SHUT_WR);  // half-close: results still flow
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(client.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      response.append(chunk, static_cast<std::size_t>(n));
    }
  }
  const std::size_t first = response.find(kResultLine + "job 1\n");
  const std::size_t second = response.find(kResultLine + "job 2\n");
  ASSERT_NE(first, std::string::npos) << response;
  ASSERT_NE(second, std::string::npos) << response;
  EXPECT_LT(first, second);
  EXPECT_NE(response.find("status ok"), std::string::npos) << response;
  EXPECT_NE(response.find("status rejected"), std::string::npos) << response;

  // SIGTERM with no client connected: the drain closes the listener
  // and the process exits 0.
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGTERM), 0);
  std::string tail;
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) tail += buffer;
  pclose(pipe);
  EXPECT_NE(tail.find("exit=0"), std::string::npos) << tail;

  // --host is a --listen modifier: rejected on the stdin path.
  EXPECT_EQ(run_cli("serve --host 10.0.0.1 < /dev/null").exit_code, 1);
}

TEST(CliSmoke, AsmAndCfgStillWork) {
  const auto asm_result = run_cli("asm " + workload_path());
  EXPECT_EQ(asm_result.exit_code, 0);
  EXPECT_NE(asm_result.output.find("function(s)"), std::string::npos);
  const auto cfg_result = run_cli("cfg " + workload_path());
  EXPECT_EQ(cfg_result.exit_code, 0);
  EXPECT_NE(cfg_result.output.find("digraph"), std::string::npos);
}

}  // namespace
