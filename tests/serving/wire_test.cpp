// Wire codec contract: serialize(parse(.)) is a fixed point for jobs
// and every result type (the byte-identical round-trip the CI golden
// gate diffs), parsing is strict (versioned header, unknown/duplicate
// keys, missing end -- all positioned errors with line + snippet), and
// omitted keys default so hand-written job files stay short. The
// checked-in golden files under tests/serving/data pin the canonical
// serialization: a schema change that alters them must bump
// JobSpec::kWireVersion deliberately.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/wire_headers.hpp"
#include "net/framer.hpp"
#include "serving/wire.hpp"
#include "support/assert.hpp"

#ifndef APCC_WIRE_DATA_DIR
#define APCC_WIRE_DATA_DIR "."
#endif

namespace apcc::serving::wire {
namespace {

using testref::kJobLine;
using testref::kResultLine;

JobSpec sample_sweep_spec() {
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.workloads = {"gsm-like"};
  spec.config.codec = compress::CodecKind::kLzss;
  spec.config.policy.predictor = runtime::PredictorKind::kStatic;
  spec.config.costs.exception_cycles = 300;
  spec.priority = sweep::Priority::kHigh;
  spec.max_workers = 3;
  spec.deadline_ms = 2500;
  spec.batch_cells = 3;
  spec.client = "bench rig #7";  // space + '#': exercises escaping
  sweep::SweepTask task;
  task.label = "pre-all/k=2 tight";
  task.config.policy.strategy = runtime::DecompressionStrategy::kPreAll;
  task.config.policy.compress_k = 2;
  task.config.policy.predecompress_k = 2;
  task.config.policy.memory_budget = 4096;
  task.config.costs.cycles_per_instruction = 1.25;
  spec.tasks.push_back(task);
  task.label = "on-demand";
  task.config.policy.strategy = runtime::DecompressionStrategy::kOnDemand;
  spec.tasks.push_back(task);
  return spec;
}

sim::RunResult sample_result(std::uint64_t seed) {
  sim::RunResult r;
  r.total_cycles = 1000 + seed;
  r.baseline_cycles = 900 + seed;
  r.busy_cycles = 800 + seed;
  r.stall_cycles = 7 * seed;
  r.exceptions = 13 + seed;
  r.demand_decompressions = 11 + seed;
  r.predecompressions = 5 * seed;
  r.deletions = 3 + seed;
  r.evictions = seed;
  r.original_image_bytes = 4096;
  r.compressed_area_bytes = 2048;
  r.peak_occupancy_bytes = 512 + seed;
  r.avg_occupancy_bytes = 123.456 + static_cast<double>(seed);
  r.codec_ratio = 0.515625;
  r.allocator.capacity = 8192;
  r.allocator.used = 100 + seed;
  r.allocator.total_allocations = 42 + seed;
  return r;
}

TEST(Wire, JobRoundTripIsFixedPoint) {
  for (const JobSpec& spec :
       {sample_sweep_spec(),
        [] {
          JobSpec run;
          run.kind = JobKind::kRun;
          run.workloads = {"@2"};
          run.max_workers = 1;
          return run;
        }(),
        [] {
          JobSpec campaign;
          campaign.kind = JobKind::kCampaign;
          campaign.workloads = {"crc-like", "adpcm-like", "a path/with space.s"};
          campaign.priority = sweep::Priority::kBatch;
          campaign.tasks.push_back({"only", {}});
          return campaign;
        }()}) {
    const std::string text = serialize_job(spec);
    const JobSpec reparsed = parse_job(text);
    EXPECT_EQ(serialize_job(reparsed), text);
    EXPECT_EQ(reparsed.kind, spec.kind);
    EXPECT_EQ(reparsed.workloads, spec.workloads);
    EXPECT_EQ(reparsed.client, spec.client);
    EXPECT_EQ(reparsed.priority, spec.priority);
    EXPECT_EQ(reparsed.max_workers, spec.max_workers);
    EXPECT_EQ(reparsed.deadline_ms, spec.deadline_ms);
    EXPECT_EQ(reparsed.batch_cells, spec.batch_cells);
    EXPECT_EQ(reparsed.tasks.size(), spec.tasks.size());
  }
}

TEST(Wire, MinimalJobParsesToDefaults) {
  const JobSpec spec = parse_job(
      kJobLine +
      "kind run\n"
      "workload gsm-like\n"
      "end\n");
  EXPECT_EQ(spec.kind, JobKind::kRun);
  EXPECT_EQ(spec.workloads, std::vector<std::string>{"gsm-like"});
  EXPECT_EQ(spec.client, "");
  EXPECT_EQ(spec.priority, sweep::Priority::kNormal);
  EXPECT_EQ(spec.max_workers, 0u);
  EXPECT_EQ(spec.deadline_ms, 0u);
  // Omitted batch-cells is the v3-compatible default: the per-engine
  // scheduling path, no lockstep batching.
  EXPECT_EQ(spec.batch_cells, 0u);
  EXPECT_TRUE(spec.tasks.empty());
  const JobSpec defaults = [] {
    JobSpec s;
    s.kind = JobKind::kRun;
    s.workloads = {"gsm-like"};
    return s;
  }();
  EXPECT_EQ(serialize_job(spec), serialize_job(defaults));
}

TEST(Wire, RecordLevelPolicyIsTheBaseTasksOverride) {
  // The record's policy/costs/fit lines are the base configuration
  // every explicit task inherits (exactly what `grid strategy-k`
  // expands over); task kvs override per cell. Order doesn't matter:
  // a policy line below the task lines still applies.
  const JobSpec spec = parse_job(
      kJobLine +
      "kind sweep\n"
      "workload gsm-like\n"
      "task label=inherit strategy=pre-all\n"
      "task label=override strategy=pre-all kc=2 exception=250\n"
      "policy kc=8 kd=8\n"
      "costs exception=999\n"
      "end\n");
  ASSERT_EQ(spec.tasks.size(), 2u);
  EXPECT_EQ(spec.tasks[0].config.policy.compress_k, 8u);
  EXPECT_EQ(spec.tasks[0].config.policy.predecompress_k, 8u);
  EXPECT_EQ(spec.tasks[0].config.costs.exception_cycles, 999u);
  EXPECT_EQ(spec.tasks[0].config.policy.strategy,
            runtime::DecompressionStrategy::kPreAll);
  EXPECT_EQ(spec.tasks[1].config.policy.compress_k, 2u);   // overridden
  EXPECT_EQ(spec.tasks[1].config.policy.predecompress_k, 8u);  // inherited
  EXPECT_EQ(spec.tasks[1].config.costs.exception_cycles, 250u);
  // Still a canonical fixed point: tasks serialize fully explicit.
  const std::string text = serialize_job(spec);
  EXPECT_EQ(serialize_job(parse_job(text)), text);
}

TEST(Wire, GridSugarExpandsToTheStandardGrid) {
  const JobSpec spec = parse_job(
      kJobLine +
      "kind sweep\n"
      "workload gsm-like\n"
      "codec lzss\n"
      "grid strategy-k\n"
      "end\n");
  core::SystemConfig config;
  config.codec = compress::CodecKind::kLzss;
  const auto expanded = strategy_k_grid(core::engine_config(config));
  ASSERT_EQ(spec.tasks.size(), expanded.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(spec.tasks[i].label, expanded[i].label);
    EXPECT_EQ(spec.tasks[i].config.policy.strategy,
              expanded[i].config.policy.strategy);
    EXPECT_EQ(spec.tasks[i].config.policy.compress_k,
              expanded[i].config.policy.compress_k);
  }
  // The canonical form is explicit: re-serialization emits task lines,
  // never 'grid', and stays a fixed point.
  const std::string text = serialize_job(spec);
  EXPECT_EQ(text.find("grid "), std::string::npos);
  EXPECT_EQ(serialize_job(parse_job(text)), text);
}

void expect_wire_error(const std::string& text, const char* needle,
                       std::size_t line) {
  try {
    (void)parse_job(text);
    FAIL() << "expected WireError containing '" << needle << "'";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), line) << e.what();
  }
}

TEST(Wire, EngineDebugKeysAreGoneInV5) {
  // v4 let any client switch the engine onto its O(B) debug paths; v5
  // has no such keys, at job or task level, and names the first one.
  expect_wire_error(kJobLine + "kind run\nworkload x\nreference-scans 1\nend\n",
                    "unknown key 'reference-scans'", 4);
  expect_wire_error(kJobLine + "kind run\nworkload x\nreference-frontiers 0\n"
                               "end\n",
                    "unknown key 'reference-frontiers'", 4);
  expect_wire_error(kJobLine + "kind sweep\nworkload x\n"
                               "task label=a reference-scans=1\nend\n",
                    "unknown key 'reference-scans'", 4);
  expect_wire_error(kJobLine + "kind sweep\nworkload x\n"
                               "task label=a reference-frontiers=0\nend\n",
                    "unknown key 'reference-frontiers'", 4);
}

TEST(Wire, GeometryAndVerifyKeysAreGoneInV7) {
  // v6 let a client turn geometry sharing off and switch on the
  // engine's decompress-and-verify debug path; v7 has neither key and
  // names the first one at its line.
  expect_wire_error(kJobLine + "kind run\nworkload x\nshare-frontiers 1\n"
                               "end\n",
                    "unknown key 'share-frontiers'", 4);
  expect_wire_error(kJobLine + "kind run\nworkload x\npolicy paranoid=1\n"
                               "end\n",
                    "unknown key 'paranoid'", 4);
  expect_wire_error(kJobLine + "kind sweep\nworkload x\n"
                               "task label=a paranoid=1\nend\n",
                    "unknown key 'paranoid'", 4);
  // A v6 record is refused at its header, job and result alike.
  expect_wire_error("apcc.job v6\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  EXPECT_THROW((void)parse_result("apcc.result v6\njob 1\nstatus error\n"
                                  "error x\nend\n"),
               WireError);
}

TEST(Wire, EveryCodecNameRoundTrips) {
  // The goldens name only some codecs: every kind the library keeps
  // parses from its name and serializes back to the same record.
  for (const compress::CodecKind kind : compress::all_codec_kinds()) {
    const std::string name = compress::codec_kind_name(kind);
    const std::string text = serialize_job(parse_job(
        kJobLine + "kind run\nworkload gsm-like\ncodec " + name + "\nend\n"));
    const JobSpec spec = parse_job(text);
    EXPECT_EQ(spec.config.codec, kind) << name;
    EXPECT_NE(text.find("\ncodec " + name + "\n"), std::string::npos)
        << text;
    EXPECT_EQ(serialize_job(spec), text) << name;
  }
}

TEST(Wire, PrunedCodecsAreGoneInV6) {
  // v5 named three more codecs; v6 rejects each at its line and lists
  // the names it accepts.
  for (const std::string name : {"fpc", "bdi", "adaptive"}) {
    const std::string needle = "unknown codec '" + name + "'";
    expect_wire_error(
        kJobLine + "kind run\nworkload x\ncodec " + name + "\nend\n",
        needle.c_str(), 4);
  }
  expect_wire_error(kJobLine + "kind run\nworkload x\ncodec fpc\nend\n",
                    "(expected null|mtf-rle|huffman|huffman-shared|lzss|"
                    "codepack|field-split)",
                    4);
}

TEST(Wire, StrictParsingPositionsErrors) {
  expect_wire_error("apcc.job v1\nkind run\nend\n", "unsupported wire", 1);
  // Older records (v2: no deadline-ms; v3: no batch-cells; v4: the
  // engine debug keys; v5: the fpc/bdi/adaptive codecs) are not
  // silently accepted either: the header gate rejects anything but the
  // current version.
  expect_wire_error("apcc.job v2\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  expect_wire_error("apcc.job v3\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  expect_wire_error("apcc.job v4\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  expect_wire_error("apcc.job v5\nkind run\nworkload x\nend\n",
                    "unsupported wire", 1);
  EXPECT_THROW((void)parse_result("apcc.result v4\njob 1\nstatus error\n"
                                  "error x\nend\n"),
               WireError);
  EXPECT_THROW((void)parse_result("apcc.result v5\njob 1\nstatus error\n"
                                  "error x\nend\n"),
               WireError);
  expect_wire_error("bogus\n", "record header", 1);
  expect_wire_error(kJobLine + "kind run\nworkload x\n", "missing 'end'",
                    4);
  expect_wire_error(kJobLine + "workload x\nend\n", "missing 'kind'", 1);
  expect_wire_error(kJobLine + "kind run\nfrobnicate 1\nend\n",
                    "unknown key", 3);
  expect_wire_error(kJobLine + "kind run\nkind sweep\nend\n",
                    "duplicate", 3);
  expect_wire_error(
      kJobLine + "kind sweep\nworkload x\ntask label=a bogus=1\nend\n",
      "unknown key 'bogus'", 4);
  expect_wire_error(
      kJobLine + "kind sweep\nworkload x\ntask label=a kc=1 kc=2\nend\n",
      "duplicate key 'kc'", 4);
  expect_wire_error(kJobLine + "kind run\nmax-workers lots\nend\n",
                    "malformed max-workers", 3);
  expect_wire_error(kJobLine + "kind run\ndeadline-ms soon\nend\n",
                    "malformed deadline-ms", 3);
  expect_wire_error(
      kJobLine + "kind run\ndeadline-ms 1\ndeadline-ms 2\nend\n",
      "duplicate", 4);
  expect_wire_error(
      kJobLine + "kind sweep\nworkload x\nbatch-cells many\n"
      "grid strategy-k\nend\n",
      "malformed batch-cells", 4);
  expect_wire_error(
      kJobLine + "kind sweep\nworkload x\nbatch-cells 1\nbatch-cells 2\n"
      "grid strategy-k\nend\n",
      "duplicate", 5);
  expect_wire_error(
      kJobLine + "kind sweep\nworkload x\nbatch-cells 4294967296\n"
      "grid strategy-k\nend\n",
      "batch-cells out of range", 4);
  // batch-cells on a run job is structurally invalid (a run has one
  // cell); rejected by validate(), positioned at the record header.
  expect_wire_error(
      kJobLine + "kind run\nworkload x\nbatch-cells 4\nend\n",
      "batch-cells does not apply", 1);
  // Narrowing is strict: a value past the field's width is malformed,
  // never a silent wrap (4294967296 -> 0 would read as "uncapped").
  expect_wire_error(kJobLine + "kind run\nmax-workers 4294967296\nend\n",
                    "max-workers out of range", 3);
  expect_wire_error(
      kJobLine + "kind sweep\nworkload x\ntask label=a kc=4294967296\n"
      "end\n",
      "kc out of range", 4);
  expect_wire_error(kJobLine + "kind run\npriority urgent\nend\n",
                    "unknown priority", 3);
  expect_wire_error(
      kJobLine + "kind sweep\nworkload x\ngrid bogus\nend\n",
      "unknown grid", 4);
  expect_wire_error(
      kJobLine + "kind sweep\nworkload x\ntask label=a\ngrid strategy-k\n"
      "end\n",
      "exclusive", 5);
  // A grid job record with no grid is the silent-zero-outcomes trap:
  // rejected at the wire layer (an in-process JobSpec keeps empty-grid
  // semantics; tests/serving/service_test.cpp pins those).
  expect_wire_error(kJobLine + "kind sweep\nworkload x\nend\n",
                    "needs 'task' lines or 'grid strategy-k'", 1);
  expect_wire_error(kJobLine + "kind campaign\nworkload x\nend\n",
                    "needs 'task' lines or 'grid strategy-k'", 1);
  // ...and a campaign with no workloads (the old bare-`campaign`
  // batch line meant "whole suite"; a record spells them out).
  expect_wire_error(
      kJobLine + "kind campaign\ngrid strategy-k\nend\n",
      "at least one 'workload' line", 1);
  // Structural validation is positioned too (the record header line).
  expect_wire_error(kJobLine + "kind run\nend\n", "exactly one workload",
                    1);
  expect_wire_error(
      kJobLine + "kind run\nworkload x\ntask label=a\nend\n",
      "not a task grid", 1);
  // Comments and blank lines inside a record are skipped but counted.
  expect_wire_error(
      kJobLine + "\n# comment\nkind run\nbroken-key 1\nend\n",
      "unknown key 'broken-key'", 5);
}

TEST(Wire, ResultRoundTripsAllKindsAndErrors) {
  ResultRecord run;
  run.job = 7;
  run.client = "tier-0";
  run.result.kind = JobKind::kRun;
  run.result.run = sample_result(1);

  ResultRecord sweep_rec;
  sweep_rec.job = 8;
  sweep_rec.result.kind = JobKind::kSweep;
  sweep_rec.result.sweep.push_back({0, "on-demand/k=1", sample_result(2)});
  sweep_rec.result.sweep.push_back({1, "pre-all k=2", sample_result(3)});

  ResultRecord campaign_rec;
  campaign_rec.job = 9;
  campaign_rec.result.kind = JobKind::kCampaign;
  campaign_rec.result.campaign.push_back(
      {"gsm-like", {{0, "a", sample_result(4)}, {1, "b", sample_result(5)}}});
  campaign_rec.result.campaign.push_back(
      {"crc-like", {{0, "a", sample_result(6)}}});

  ResultRecord failed;
  failed.job = 10;
  failed.client = "tier-0";
  failed.status = JobStatus::kError;
  failed.error = "workload 'x' has no default trace";

  // The v3 lifecycle statuses: error message optional, payload never.
  ResultRecord rejected;
  rejected.job = 11;
  rejected.client = "tier-0";
  rejected.status = JobStatus::kRejected;
  rejected.error = "rejected: job limit reached (4 jobs in flight)";

  ResultRecord cancelled;
  cancelled.job = 12;
  cancelled.status = JobStatus::kCancelled;  // no error line at all

  ResultRecord expired;
  expired.job = 13;
  expired.status = JobStatus::kDeadlineExceeded;
  expired.error = "job deadline exceeded";

  for (const ResultRecord& record :
       {run, sweep_rec, campaign_rec, failed, rejected, cancelled, expired}) {
    const std::string text = serialize_result(record);
    const ResultRecord reparsed = parse_result(text);
    EXPECT_EQ(serialize_result(reparsed), text);
    EXPECT_EQ(reparsed.job, record.job);
    EXPECT_EQ(reparsed.client, record.client);
    EXPECT_EQ(reparsed.status, record.status);
    EXPECT_EQ(reparsed.error, record.error);
    EXPECT_EQ(reparsed.ok(), record.ok());
  }
  // Spot-check payload fidelity, including doubles.
  const ResultRecord reparsed = parse_result(serialize_result(campaign_rec));
  ASSERT_EQ(reparsed.result.campaign.size(), 2u);
  EXPECT_EQ(reparsed.result.campaign[0].workload, "gsm-like");
  ASSERT_EQ(reparsed.result.campaign[0].outcomes.size(), 2u);
  EXPECT_EQ(reparsed.result.campaign[0].outcomes[1].result.total_cycles,
            1005u);
  EXPECT_EQ(reparsed.result.campaign[0].outcomes[0].result.avg_occupancy_bytes,
            sample_result(4).avg_occupancy_bytes);
  EXPECT_EQ(reparsed.result.campaign[0].outcomes[0].result.codec_ratio,
            0.515625);
}

TEST(Wire, EveryRunResultFieldCrossesIntoItsOwnMember) {
  // Each eight-byte slot of a RunResult holds the bits of a distinct
  // double (slot i: i + 1.0), a valid value whether the slot is a count
  // or a double. Written and read back as a run, a sweep and a campaign
  // record, every slot must come back bit for bit, so a field-table row
  // that is missing or names a member twice fails here.
  constexpr std::size_t kSlots = sizeof(sim::RunResult) / sizeof(double);
  static_assert(sizeof(sim::RunResult) == kSlots * sizeof(double));
  sim::RunResult filled;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const double bits = static_cast<double>(i) + 1.0;
    std::memcpy(reinterpret_cast<unsigned char*>(&filled) + i * sizeof(bits),
                &bits, sizeof(bits));
  }
  const auto differing_slot = [&filled](const sim::RunResult& got) {
    for (std::size_t i = 0; i < kSlots; ++i) {
      if (std::memcmp(reinterpret_cast<const unsigned char*>(&got) +
                          i * sizeof(double),
                      reinterpret_cast<const unsigned char*>(&filled) +
                          i * sizeof(double),
                      sizeof(double)) != 0) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  ResultRecord run;
  run.result.kind = JobKind::kRun;
  run.result.run = filled;
  ResultRecord sweep_rec;
  sweep_rec.result.kind = JobKind::kSweep;
  sweep_rec.result.sweep.push_back({0, "a", filled});
  ResultRecord campaign_rec;
  campaign_rec.result.kind = JobKind::kCampaign;
  campaign_rec.result.campaign.push_back({"w", {{0, "a", filled}}});

  const ResultRecord runs[] = {parse_result(serialize_result(run)),
                               parse_result(serialize_result(sweep_rec)),
                               parse_result(serialize_result(campaign_rec))};
  EXPECT_EQ(differing_slot(runs[0].result.run), -1);
  ASSERT_EQ(runs[1].result.sweep.size(), 1u);
  EXPECT_EQ(differing_slot(runs[1].result.sweep[0].result), -1);
  ASSERT_EQ(runs[2].result.campaign.size(), 1u);
  ASSERT_EQ(runs[2].result.campaign[0].outcomes.size(), 1u);
  EXPECT_EQ(differing_slot(runs[2].result.campaign[0].outcomes[0].result),
            -1);
}

TEST(Wire, EngineKnobsOutOfRangeAreRejectedAtTheHeader) {
  // A value the engine, its cycle arithmetic or its per-unit tables
  // cannot take ends at validation, positioned at the record header and
  // naming the key -- not at an internal assertion, a 32 GiB table or a
  // wrapped sum in the middle of the run.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"costs cpi=nan", "cpi out of range"},
      {"costs cpi=inf", "cpi out of range"},
      {"costs cpi=-1", "cpi out of range"},
      {"costs cpi=1e300", "cpi out of range"},
      {"costs cpi=65536.5", "cpi out of range"},
      {"costs exception=18446744073709551615", "exception out of range"},
      {"costs exception=4294967296", "exception out of range"},
      {"costs patch=4294967296", "patch out of range"},
      {"costs unpatch=4294967296", "unpatch out of range"},
      {"costs delete=4294967296", "delete out of range"},
      {"costs alloc=4294967296", "alloc out of range"},
      {"costs dispatch=4294967296", "dispatch out of range"},
      {"policy units=4294967295", "units out of range"},
      {"policy units=65", "units out of range"},
      {"policy units=0", "units out of range"},
      {"policy kc=0", "kc out of range"},
      {"policy kd=65", "kd out of range: 65 (expected at most 64)"},
      {"policy kd=4294967295", "kd out of range"},
  };
  for (const auto& [line, needle] : cases) {
    SCOPED_TRACE(line);
    expect_wire_error(kJobLine + "kind run\nworkload x\n" + line + "\nend\n",
                      needle.c_str(), 1);
  }
  // Task lines are held to the same rule, and the message names the task.
  expect_wire_error(kJobLine + "kind sweep\nworkload x\n"
                               "task label=t kc=0\nend\n",
                    "task 't': kc out of range", 1);
  expect_wire_error(kJobLine + "kind sweep\nworkload x\n"
                               "task label=t cpi=nan\nend\n",
                    "task 't': cpi out of range", 1);
  // At the bounds the record is accepted.
  const JobSpec edge = parse_job(
      kJobLine +
      "kind sweep\nworkload x\n"
      "policy kc=1 kd=64 units=64\n"
      "costs cpi=65536 exception=4294967295 patch=4294967295 "
      "unpatch=4294967295 delete=4294967295 alloc=4294967295 "
      "dispatch=4294967295\n"
      "task label=t cpi=0 units=1\nend\n");
  EXPECT_EQ(edge.config.policy.decompress_units, 64u);
  EXPECT_EQ(edge.config.policy.predecompress_k, 64u);
  EXPECT_EQ(edge.tasks.at(0).config.costs.exception_cycles, 4294967295u);
}

TEST(Wire, DeadlineAboveTwoToTheFortyMsIsRejected) {
  // Submit time plus the deadline in steady_clock nanoseconds must not
  // overflow, nor may the value wrap negative as milliseconds.
  expect_wire_error(
      kJobLine + "kind run\nworkload x\ndeadline-ms 1099511627777\nend\n",
      "deadline-ms out of range", 1);
  expect_wire_error(kJobLine +
                        "kind run\nworkload x\n"
                        "deadline-ms 18446744073709551615\nend\n",
                    "deadline-ms out of range", 1);
  EXPECT_EQ(parse_job(kJobLine +
                      "kind run\nworkload x\ndeadline-ms 1099511627776\n"
                      "end\n")
                .deadline_ms,
            std::uint64_t{1} << 40);
}

TEST(Wire, ResultParsingIsStrict) {
  const auto expect_result_error = [](const std::string& text,
                                      const char* needle) {
    try {
      (void)parse_result(text);
      FAIL() << "expected WireError containing '" << needle << "'";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const std::string expected_header = "expected '" + kResultHeader + "'";
  expect_result_error(kJobLine + "end\n", expected_header.c_str());
  expect_result_error(kResultLine + "job 1\nend\n", "missing 'status'");
  expect_result_error(kResultLine + "status done\nend\n",
                      "unknown status");
  expect_result_error(kResultLine + "status error\nend\n",
                      "missing 'error'");
  expect_result_error(kResultLine + "status ok\nend\n", "missing 'kind'");
  expect_result_error(
      kResultLine + "status ok\nkind run\nend\n", "exactly one 'run' line");
  expect_result_error(
      kResultLine + "status error\nerror x\nkind run\nrun total-cycles=1\n"
      "end\n",
      "cannot carry a payload");
  // Every non-ok status refuses a payload, not just error.
  expect_result_error(
      kResultLine + "status cancelled\nkind run\nrun total-cycles=1\n"
      "end\n",
      "cannot carry a payload");
  expect_result_error(
      kResultLine + "status ok\nkind campaign\noutcome index=0 label=a\n"
      "end\n",
      "follow a 'group' line");
  // ...while a bare lifecycle status (no error, no payload) is fine.
  const ResultRecord bare =
      parse_result(kResultLine + "job 3\nstatus rejected\nend\n");
  EXPECT_EQ(bare.status, JobStatus::kRejected);
  EXPECT_FALSE(bare.ok());
  EXPECT_EQ(bare.error, "");
}

TEST(Wire, FieldEscapingRoundTrips) {
  for (const std::string& s :
       {std::string(""), std::string("-"), std::string("plain"),
        std::string("with space"), std::string("pct%and=eq"),
        std::string("new\nline"), std::string("#comment-ish"),
        std::string("\x01\x7f bytes")}) {
    EXPECT_EQ(unescape_field(escape_field(s)), s) << escape_field(s);
  }
  EXPECT_EQ(escape_field(""), "-");
  EXPECT_EQ(escape_field("-"), "%2D");
  EXPECT_EQ(escape_field("a b"), "a%20b");
  EXPECT_THROW((void)unescape_field("bad%zz"), apcc::CheckError);
  EXPECT_THROW((void)unescape_field("trunc%2"), apcc::CheckError);
}

/// Every record a framer yields once `text` is fed whole and finished.
std::vector<RawRecord> frame_all(const std::string& text) {
  net::RecordFramer framer;
  framer.feed(text);
  framer.finish();
  std::vector<RawRecord> records;
  while (auto record = framer.next()) records.push_back(std::move(*record));
  return records;
}

TEST(Wire, FramerSplitsStreamsAndPositions) {
  const auto records = frame_all(
      "# a comment between records\n"
      "\n" +
      kJobLine +
      "kind run\n"
      "workload gsm-like\n"
      "end\n"
      "\n" +
      kResultLine +
      "job 1\n"
      "status error\n"
      "error boom\n"
      "end\n");
  ASSERT_EQ(records.size(), 2u);
  const RawRecord& first = records[0];
  EXPECT_FALSE(first.is_result);
  EXPECT_EQ(first.first_line, 3u);
  const JobSpec spec = parse_job(first.text, first.first_line);
  EXPECT_EQ(spec.workloads, std::vector<std::string>{"gsm-like"});
  const RawRecord& second = records[1];
  EXPECT_TRUE(second.is_result);
  EXPECT_EQ(second.first_line, 8u);
  const ResultRecord record = parse_result(second.text, second.first_line);
  EXPECT_EQ(record.error, "boom");

  EXPECT_THROW({ (void)frame_all(kJobLine + "kind run\n"); }, WireError);

  // The unterminated-record snippet is the header line, intact even
  // when later (longer) body lines followed it.
  try {
    (void)frame_all(kJobLine + "kind run\nclient " + std::string(512, 'x') +
                    "\n");
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.snippet(), kJobHeader);
    EXPECT_EQ(e.line(), 1u);
  }
}

TEST(Wire, GoldenFilesAreFixedPoints) {
  // The checked-in canonical records: parse -> serialize must
  // reproduce every file byte-for-byte (the same gate CI runs through
  // `apcc_cli wire-roundtrip`). Records within a file are separated by
  // one blank line.
  const std::vector<std::string> goldens = {
      "job_run.wire",      "job_sweep.wire",     "job_campaign.wire",
      "result_run.wire",   "result_sweep.wire",  "result_campaign.wire",
      "result_error.wire", "result_rejected.wire",
      "result_cancelled.wire", "jobs_mixed.wire",
  };
  for (const std::string& name : goldens) {
    const std::string path = std::string(APCC_WIRE_DATA_DIR) + "/" + name;
    std::ifstream file(path);
    ASSERT_TRUE(file.good()) << "missing golden " << path;
    std::ostringstream raw;
    raw << file.rdbuf();
    std::string round_tripped;
    bool first = true;
    for (const RawRecord& record : frame_all(raw.str())) {
      if (!first) round_tripped += '\n';
      first = false;
      round_tripped += record.is_result
                           ? serialize_result(
                                 parse_result(record.text, record.first_line))
                           : serialize_job(
                                 parse_job(record.text, record.first_line));
    }
    EXPECT_FALSE(first) << "no records in " << path;
    EXPECT_EQ(round_tripped, raw.str()) << name;
  }
}

}  // namespace
}  // namespace apcc::serving::wire
