// apcc_cli: command-line driver for the APCC toolchain.
//
// Every simulation subcommand runs through one serving::Service: each
// workload is registered once, its compressed image and frontier
// geometry are built lazily on the service's pool and cached, and jobs
// are scheduled onto that one resident pool -- several jobs in flight
// at once in batch and serve modes, under the per-job QoS (priority
// class, worker budget) their JobSpecs carry.
//
// Subcommands:
//   asm <file.s>                 assemble; print stats + disassembly
//   cfg <file.s>                 assemble; print the CFG as Graphviz DOT
//   sim <workload> [options]     one run job: simulate the workload's
//                                access pattern under a policy + report
//   sweep <workload> [options]   one sweep job: the strategy x k policy
//                                grid over the workload
//   suite [options]              one run job per built-in suite workload,
//                                all in flight on the shared pool
//   campaign [options]           one campaign job: the strategy x k grid
//                                over every suite workload, shared
//                                (workload, k) frontier geometry
//   batch <jobs.wire> [options]  job-file mode: the file holds wire
//                                format job records (serving/wire.hpp),
//                                every job submitted before the first is
//                                waited on; --wire emits results as wire
//                                records for machine consumption
//   serve [options]              the remote front door: one net::Server
//                                session reads job records from stdin and
//                                streams result records to stdout (in
//                                submission order). --max-queued bounds
//                                admission (over-limit jobs get a `status
//                                rejected` record); SIGINT/SIGTERM drains
//                                gracefully -- in-flight jobs finish,
//                                queued jobs resolve `status cancelled`,
//                                and every accepted job still gets exactly
//                                one result record. --listen PORT runs the
//                                same session loop over TCP instead: one
//                                session per connection, untagged jobs
//                                inherit the connection's client tag
//                                ("conn-<n>"), the same ordering, errors
//                                and drain over live sockets
//   wire-roundtrip <file>        parse every record in a wire file and
//                                re-serialize it canonically (the
//                                Wire.CliRoundTrip.* golden ctests)
//   version                      print the tool version and the wire
//                                schema version it speaks
//
// <workload> is a path to a .s file or a built-in suite name
// (adpcm-like, gsm-like, jpeg-like, mpeg2-like, g721-like, pegwit-like,
// dijkstra-like, crc-like).
//
// batch / serve job records are the versioned wire format -- see
// docs/API.md for the full grammar. The minimal job is:
//
//   apcc.job v<JobSpec::kWireVersion>
//   kind run
//   workload gsm-like
//   end
//
// A sweep/campaign record lists explicit `task` lines or expands the
// standard grid with `grid strategy-k`; `priority high|normal|batch`,
// `max-workers N`, and `client <tag>` carry the QoS metadata. The
// whole batch file is parsed and validated before anything is
// submitted, and a malformed record is reported with its file line and
// a snippet of the offending text.
//
// options:
//   --codec null|mtf-rle|huffman|huffman-shared|lzss|codepack|
//           field-split   (null, mtf-rle and huffman are the baselines)
//   --strategy on-demand|pre-all|pre-single   (sim/run only)
//   --predictor profile|static|oracle
//   --kc N            compression-side k (default 2; sim/run only)
//   --kd N            pre-decompression k (default 2; sim/run only)
//   --budget BYTES    decompressed-area budget (default unbounded)
//   --units N         decompression helper units (default 1)
//   --workers N       service pool width (default: hardware concurrency;
//                     at most 1024)
//   --cache-budget-bytes N  artifact-cache ceiling shared by images
//                     and frontier geometry (0 = unbounded). Over-budget
//                     artifacts are evicted cost-aware at publish time
//                     and rebuilt bit-identically on next use -- results
//                     never change, only when artifacts are rebuilt
//   --batch-cells N   sweep/campaign: grid cells stepped in lockstep per
//                     pool work item (0 = one engine per cell; results
//                     are byte-identical either way)
//   --max-queued N    serve: admission bound -- at most N jobs in flight,
//                     over-limit submissions get `status rejected` records
//   --max-queued-per-client N  serve: the same bound per client tag
//   --listen PORT     serve: accept wire sessions over TCP on PORT
//                     (0 = ephemeral; the bound address is printed to
//                     stderr) instead of stdin/stdout
//   --host ADDR       serve: bind ADDR (default 127.0.0.1; needs --listen)
//   --client-weight TAG=W  serve: fair-share weight for a client tag
//                     (repeatable; absent tags weigh 1). Server-side
//                     policy -- never part of the wire records
//   --csv             emit CSV instead of the text report
//   --wire            batch: emit results as wire records
//
// sweep and campaign grid over strategy and k themselves, so passing
// --strategy/--kc/--kd to them is contradictory and a usage error.
// batch and serve take per-job configuration from the job records, so
// per-job flags on their command lines are usage errors too.
//
// Every numeric option takes a non-negative integer that fits its
// setting: a negative, out-of-range or malformed value is a usage error
// naming the flag, never a wrapped value.
//
// Exit code 0 on success, 1 on usage errors (including malformed wire
// records and contradictory grid options), 2 on input errors.
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/builder.hpp"
#include "cfg/dot.hpp"
#include "core/csv.hpp"
#include "core/report.hpp"
#include "isa/assembler.hpp"
#include "isa/disasm.hpp"
#include "isa/interpreter.hpp"
#include "net/framer.hpp"
#include "net/server.hpp"
#include "serving/service.hpp"
#include "serving/wire.hpp"
#include "support/strings.hpp"
#include "sweep/sweep.hpp"

/// Graceful-drain flag for `serve`: set by SIGINT/SIGTERM. The handlers
/// are installed *without* SA_RESTART, so the server's blocking poll()
/// fails with EINTR instead of resuming -- its interrupted() hook then
/// observes the flag and drains. (File scope, C linkage constraints:
/// signal handlers cannot touch anything else here.)
namespace {
volatile std::sig_atomic_t g_serve_shutdown = 0;
}
extern "C" void apcc_cli_serve_signal(int) { g_serve_shutdown = 1; }

namespace {

using namespace apcc;

/// The tool's own version (wire schema versioning is separate --
/// JobSpec::kWireVersion -- and printed alongside by `version`).
constexpr const char* kToolVersion = "0.6.0";

[[noreturn]] void usage(const std::string& message = {}) {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage: apcc_cli <asm|cfg> <file.s>\n"
      "       apcc_cli <sim|sweep> <workload> [options]\n"
      "       apcc_cli <suite|campaign> [options]\n"
      "       apcc_cli batch <jobs.wire> [options]\n"
      "       apcc_cli serve [options]\n"
      "       apcc_cli wire-roundtrip <file>\n"
      "       apcc_cli version\n"
      "\n"
      "All simulation commands run through one serving::Service --\n"
      "workloads registered once, compressed images + frontier geometry\n"
      "cached, jobs scheduled onto one shared pool under their QoS\n"
      "(priority class, worker budget).\n"
      "\n"
      "<workload>: a .s file path or a suite name (adpcm-like, gsm-like,\n"
      "jpeg-like, mpeg2-like, g721-like, pegwit-like, dijkstra-like,\n"
      "crc-like)\n"
      "\n"
      "batch files and the serve stdin stream hold wire format job\n"
      "records (docs/API.md):\n"
      "  " << serving::wire::kJobHeader << "\n"
      "  kind " << joined_names(serving::kJobKindNames) << "\n"
      "  workload <name-or-path>      (repeatable for campaign)\n"
      "  priority " << joined_names(sweep::kPriorityNames) <<
      "   (optional QoS)\n"
      "  max-workers N                (optional worker budget)\n"
      "  deadline-ms N                (optional per-job deadline)\n"
      "  batch-cells N                (optional lockstep batch width)\n"
      "  grid strategy-k              (or explicit task lines)\n"
      "  end\n"
      "\n"
      "options: --codec K --strategy S --predictor P --kc N --kd N\n"
      "         --budget BYTES --units N --workers N --max-queued N\n"
      "         --max-queued-per-client N --listen PORT --host ADDR\n"
      "         --client-weight TAG=W --cache-budget-bytes N\n"
      "         --batch-cells N --csv --wire\n"
      "(sweep and campaign grid over strategy and k themselves:\n"
      " --strategy/--kc/--kd there is a usage error; batch and serve\n"
      " take per-job configuration from the job records; --max-queued,\n"
      " --max-queued-per-client, --listen, --host, and --client-weight\n"
      " are serve-only. serve --listen PORT speaks the same wire\n"
      " protocol over TCP -- one session per connection, results in\n"
      " per-session submission order, untagged jobs billed to the\n"
      " connection's own client tag)\n";
  std::exit(message.empty() ? 0 : 1);
}

/// Wire format diagnostics: the offending position and a snippet of
/// the input, not just exit 1. `where` names the source (file path or
/// "stdin"); the WireError carries the absolute line number in it.
[[noreturn]] void wire_usage(const std::string& where,
                             const serving::wire::WireError& error) {
  std::cerr << "error: " << where << ":" << error.line() << ": "
            << error.what() << '\n';
  if (!error.snippet().empty()) {
    std::cerr << "  " << error.line() << " | " << error.snippet() << '\n';
  }
  std::exit(1);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  APCC_CHECK(in.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A whole wire file fed to the framer the sessions use, finished, and
/// bounded by the file's own size: files get no record size limit.
net::RecordFramer frame_file(const std::string& path) {
  const std::string text = read_file(path);
  net::RecordFramer framer(net::FramerOptions{text.size()});
  framer.feed(text);
  framer.finish();
  return framer;
}

/// The value an enum's name table gives `name`; an unknown name is a
/// usage error naming `kind`.
template <typename E, std::size_t N>
E parse_name(const NamedValue<E> (&table)[N], const char* kind,
             const std::string& name) {
  if (const auto value = value_of(table, name)) return *value;
  usage(std::string("unknown ") + kind + " '" + name + "'");
}

struct CliOptions {
  core::SystemConfig config;
  unsigned workers = 0;
  /// Service artifact-cache ceiling (--cache-budget-bytes; 0 =
  /// unbounded). Server-side configuration like --workers: accepted on
  /// every Service-backed command, never part of the wire job records.
  serving::CacheBudget cache_budget;
  /// serve-only admission bound (0 = unbounded): at most N jobs
  /// submitted-but-unfinished; over-limit jobs get rejected records.
  std::size_t max_queued = 0;
  /// serve-only: the same bound per client tag (0 = unbounded).
  std::size_t max_queued_per_client = 0;
  /// serve-only: TCP mode -- accept wire sessions on this port instead
  /// of reading stdin (0 = ephemeral). nullopt = stdin/stdout mode.
  std::optional<std::uint16_t> listen;
  /// serve-only: the address --listen binds (loopback unless asked).
  std::string host = "127.0.0.1";
  /// serve-only: per-tag fair-share weights (--client-weight TAG=W).
  std::map<std::string, unsigned> client_weights;
  /// Lockstep batch width for grid commands (sweep/campaign); 0 keeps
  /// the historical one-engine-per-cell path. Run-kind commands reject
  /// it (a run job has a single cell), and batch/serve take it from
  /// the job records like every other per-job knob.
  std::uint32_t batch_cells = 0;
  bool csv = false;
  bool wire = false;
  /// Which of --strategy/--kc/--kd appeared: grid commands (sweep,
  /// campaign) supply those axes themselves, so seeing one there is a
  /// contradiction and exits 1 instead of being silently ignored.
  std::vector<std::string> grid_overrides;
  /// Per-job config flags seen (--codec/--predictor/--budget/--units,
  /// plus everything in grid_overrides): `batch` and `serve` take
  /// per-job config from the job records, so these on their command
  /// lines are contradictions (exit 1), not silently dropped defaults.
  std::vector<std::string> config_flags;
};

/// A numeric flag's value as the setting's type T. A negative value, one
/// above `max` (T's maximum unless the setting has a smaller one), or a
/// malformed one is a usage error naming the flag -- the rule the wire
/// codec applies to records -- where a cast would wrap it silently.
template <typename T>
T parse_number(const std::string& flag, const std::string& value,
               T max = std::numeric_limits<T>::max()) {
  std::int64_t v = 0;
  try {
    v = parse_int(value);
  } catch (const CheckError&) {
    usage(flag + ": malformed number '" + value + "'");
  }
  if (v < 0 || static_cast<std::uint64_t>(v) > max) {
    usage(flag + ": value out of range: '" + value + "'");
  }
  return static_cast<T>(v);
}

CliOptions parse_options(const std::vector<std::string>& args,
                         std::size_t first) {
  CliOptions opts;
  auto need_value = [&](std::size_t i) -> const std::string& {
    if (i + 1 >= args.size()) usage("missing value for " + args[i]);
    return args[i + 1];
  };
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--codec") {
      opts.config.codec =
          parse_name(compress::kCodecNames, "codec", need_value(i++));
      opts.config_flags.push_back(a);
    } else if (a == "--strategy") {
      opts.config.policy.strategy =
          parse_name(runtime::kStrategyNames, "strategy", need_value(i++));
      opts.grid_overrides.push_back(a);
    } else if (a == "--predictor") {
      opts.config.policy.predictor =
          parse_name(runtime::kPredictorNames, "predictor", need_value(i++));
      opts.config_flags.push_back(a);
    } else if (a == "--kc") {
      opts.config.policy.compress_k =
          parse_number<std::uint32_t>(a, need_value(i++));
      opts.grid_overrides.push_back(a);
    } else if (a == "--kd") {
      opts.config.policy.predecompress_k =
          parse_number<std::uint32_t>(a, need_value(i++));
      opts.grid_overrides.push_back(a);
    } else if (a == "--budget") {
      opts.config.policy.memory_budget =
          parse_number<std::uint64_t>(a, need_value(i++));
      opts.config_flags.push_back(a);
    } else if (a == "--units") {
      opts.config.policy.decompress_units =
          parse_number<unsigned>(a, need_value(i++));
      opts.config_flags.push_back(a);
    } else if (a == "--workers") {
      opts.workers = parse_number<unsigned>(
          a, need_value(i++), serving::ServiceOptions::kMaxWorkers);
    } else if (a == "--cache-budget-bytes") {
      opts.cache_budget.total_bytes =
          parse_number<std::uint64_t>(a, need_value(i++));
    } else if (a == "--max-queued") {
      opts.max_queued = parse_number<std::size_t>(a, need_value(i++));
    } else if (a == "--max-queued-per-client") {
      opts.max_queued_per_client =
          parse_number<std::size_t>(a, need_value(i++));
    } else if (a == "--listen") {
      opts.listen = parse_number<std::uint16_t>(a, need_value(i++));
    } else if (a == "--host") {
      opts.host = need_value(i++);
    } else if (a == "--client-weight") {
      const std::string& value = need_value(i++);
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        usage("--client-weight wants TAG=WEIGHT, got '" + value + "'");
      }
      const auto weight = parse_number<unsigned>(a, value.substr(eq + 1));
      if (weight < 1) usage("--client-weight: weight must be >= 1");
      opts.client_weights[value.substr(0, eq)] = weight;
    } else if (a == "--batch-cells") {
      opts.batch_cells = parse_number<std::uint32_t>(a, need_value(i++));
      opts.config_flags.push_back(a);
    } else if (a == "--csv") {
      opts.csv = true;
    } else if (a == "--wire") {
      opts.wire = true;
    } else {
      usage("unknown option '" + a + "'");
    }
  }
  return opts;
}

/// Only batch emits wire records; anywhere else --wire would be
/// silently ignored (the trap this CLI rejects everywhere).
void reject_wire_flag(const std::string& command, const CliOptions& opts) {
  if (!opts.wire) return;
  usage("'" + command + "' has no wire output; --wire is only meaningful "
        "for 'batch' (use 'serve' for a wire stream)");
}

/// The serve-only flags (--max-queued and friends bound or schedule a
/// *stream* of jobs; --listen/--host open the TCP front door);
/// everywhere else they would be silently ignored.
void reject_max_queued(const std::string& command, const CliOptions& opts) {
  std::string flag;
  if (opts.max_queued != 0) flag = "--max-queued";
  if (opts.max_queued_per_client != 0) flag = "--max-queued-per-client";
  if (opts.listen) flag = "--listen";
  if (opts.host != "127.0.0.1") flag = "--host";
  if (!opts.client_weights.empty()) flag = "--client-weight";
  if (flag.empty()) return;
  usage("'" + command + "' submits a fixed set of jobs; " + flag +
        " is only meaningful for 'serve'");
}

/// Run-kind commands (sim, suite) submit single-cell run jobs, where a
/// lockstep batch width has nothing to apply to.
void reject_batch_cells(const std::string& command, const CliOptions& opts) {
  if (opts.batch_cells == 0) return;
  usage("'" + command + "' runs single-configuration jobs; --batch-cells "
        "only applies to the sweep/campaign grids");
}

/// Grid commands own the strategy/k axes; reject attempts to pin them.
void reject_grid_overrides(const std::string& command,
                           const CliOptions& opts) {
  if (opts.grid_overrides.empty()) return;
  usage("'" + command + "' grids over strategy and k itself; " +
        opts.grid_overrides.front() +
        " contradicts that (drop it, or use 'sim'/'run' for a single "
        "configuration)");
}

/// batch/serve take per-job configuration from the job records;
/// accepting it on the command line and applying it to nothing would
/// be the silent-ignore trap this CLI rejects everywhere else.
void reject_job_config(const std::string& command, const CliOptions& opts) {
  if (opts.config_flags.empty() && opts.grid_overrides.empty()) return;
  const std::string& flag = !opts.config_flags.empty()
                                ? opts.config_flags.front()
                                : opts.grid_overrides.front();
  usage("'" + command + "' takes per-job options from the job records; " +
        flag + " on the command line would be silently ignored");
}

std::optional<workloads::WorkloadKind> suite_kind(const std::string& name) {
  for (const auto kind : workloads::all_workload_kinds()) {
    if (name == workloads::workload_name(kind)) return kind;
  }
  return std::nullopt;
}

workloads::Workload workload_from_file(const std::string& path) {
  return workloads::build_workload(path, read_file(path),
                                   isa::InterpreterOptions{},
                                   /*apply_profile=*/true);
}

/// Registers workloads with the Service on first use and deduplicates
/// by spec, so a batch file referring to "gsm-like" five times shares
/// one registration (and therefore one artifact cache). Because each
/// spec is registered exactly once under its own name, a JobSpec
/// workload reference resolves to the same registration.
class WorkloadDirectory {
 public:
  explicit WorkloadDirectory(serving::Service& service) : service_(service) {}

  serving::WorkloadId id_for(const std::string& spec) {
    APCC_CHECK(spec.empty() || spec[0] != '@',
               "job files reference workloads by name or path, not '" +
                   spec + "' (\"@<id>\" is only meaningful in-process)");
    const auto it = ids_.find(spec);
    if (it != ids_.end()) return it->second;
    serving::WorkloadId id = 0;
    if (const auto kind = suite_kind(spec)) {
      id = service_.register_workload(workloads::make_workload(*kind));
    } else {
      id = service_.register_workload(workload_from_file(spec));
    }
    ids_.emplace(spec, id);
    return id;
  }

 private:
  serving::Service& service_;
  std::map<std::string, serving::WorkloadId> ids_;
};

// ---------------------------------------------------------------- output

void print_run(serving::Service& service, serving::WorkloadId id,
               const sim::RunResult& result, bool csv) {
  const workloads::Workload& w = service.workload(id);
  if (csv) {
    std::cout << core::to_csv({{w.name, result}});
  } else {
    std::cout << "== " << w.name << " ==\n"
              << "image: " << human_bytes(w.image_bytes()) << " in "
              << w.cfg.block_count() << " blocks; trace " << w.trace.size()
              << " entries\n"
              << "compressed image: "
              << human_bytes(result.compressed_area_bytes) << "\n\n"
              << result.summary() << '\n';
  }
}

void print_sweep(const std::vector<sweep::SweepOutcome>& outcomes, bool csv) {
  std::vector<core::ReportRow> rows;
  rows.reserve(outcomes.size());
  for (const auto& outcome : outcomes) {
    rows.push_back({outcome.label, outcome.result});
  }
  std::cout << (csv ? core::to_csv(rows) : core::render_comparison(rows));
}

void print_campaign(const std::vector<sweep::CampaignResult>& results,
                    bool csv) {
  if (csv) {
    // One flat CSV: label = workload/task, ready for cross-workload
    // plotting.
    std::vector<core::ReportRow> rows;
    for (const auto& result : results) {
      for (const auto& outcome : result.outcomes) {
        rows.push_back(
            {result.workload + "/" + outcome.label, outcome.result});
      }
    }
    std::cout << core::to_csv(rows);
  } else {
    for (const auto& result : results) {
      std::vector<core::ReportRow> rows;
      for (const auto& outcome : result.outcomes) {
        rows.push_back({outcome.label, outcome.result});
      }
      std::cout << "== " << result.workload << " ==\n"
                << core::render_comparison(rows) << '\n';
    }
  }
}

// ------------------------------------------------------------- commands

int cmd_asm(const std::string& path) {
  const isa::Program program = isa::assemble(read_file(path));
  std::cout << path << ": " << program.word_count() << " words ("
            << human_bytes(program.size_bytes()) << "), "
            << program.functions().size() << " function(s)\n\n";
  std::cout << isa::disassemble(program);
  return 0;
}

int cmd_cfg(const std::string& path) {
  const isa::Program program = isa::assemble(read_file(path));
  const auto built = cfg::build_cfg(program);
  std::cout << cfg::to_dot(built.cfg);
  return 0;
}

/// ServiceOptions carrying the server-side knobs every Service-backed
/// subcommand shares: pool width and the artifact-cache byte budget.
/// (serve adds its admission limits on top.)
serving::ServiceOptions service_options(const CliOptions& opts) {
  serving::ServiceOptions options;
  options.workers = opts.workers;
  options.cache_budget = opts.cache_budget;
  return options;
}

/// The JobSpec a one-shot subcommand submits: `kind` over the registered
/// workloads `ids`, carrying the command line's codec, engine knobs and
/// batch width.
serving::JobSpec command_spec(serving::JobKind kind,
                              const std::vector<serving::WorkloadId>& ids,
                              const CliOptions& opts) {
  serving::JobSpec spec;
  spec.kind = kind;
  for (const auto id : ids) spec.workloads.push_back("@" + std::to_string(id));
  spec.config = opts.config;
  spec.batch_cells = opts.batch_cells;
  if (kind != serving::JobKind::kRun) {
    spec.tasks = serving::strategy_k_grid(core::engine_config(opts.config));
  }
  return spec;
}

/// Wait for a one-shot subcommand's job: a failed job rethrows its
/// error; any other non-ok status is an error too.
const serving::JobResult& wait_ok(
    const serving::JobHandle<serving::JobResult>& handle) {
  const serving::JobResult& result = handle.wait();
  APCC_CHECK(result.ok(), std::string(serving::status_name(result.status)) +
                              ": " + result.error);
  return result;
}

int cmd_sim(const std::string& workload, const CliOptions& opts) {
  reject_wire_flag("sim", opts);
  reject_max_queued("sim", opts);
  reject_batch_cells("sim", opts);
  serving::Service service(service_options(opts));
  WorkloadDirectory directory(service);
  const auto id = directory.id_for(workload);
  const auto handle =
      service.submit(command_spec(serving::JobKind::kRun, {id}, opts));
  print_run(service, id, wait_ok(handle).run, opts.csv);
  return 0;
}

int cmd_sweep(const std::string& workload, const CliOptions& opts) {
  reject_wire_flag("sweep", opts);
  reject_max_queued("sweep", opts);
  reject_grid_overrides("sweep", opts);
  serving::Service service(service_options(opts));
  WorkloadDirectory directory(service);
  const auto id = directory.id_for(workload);
  const auto handle =
      service.submit(command_spec(serving::JobKind::kSweep, {id}, opts));
  print_sweep(wait_ok(handle).sweep, opts.csv);
  return 0;
}

int cmd_suite(const CliOptions& opts) {
  reject_wire_flag("suite", opts);
  reject_max_queued("suite", opts);
  reject_batch_cells("suite", opts);
  serving::Service service(service_options(opts));
  WorkloadDirectory directory(service);
  // Submit every workload's run job before waiting on any: the whole
  // suite is in flight on the shared pool at once.
  std::vector<serving::WorkloadId> ids;
  std::vector<serving::JobHandle<serving::JobResult>> handles;
  for (const auto kind : workloads::all_workload_kinds()) {
    const auto id = directory.id_for(workloads::workload_name(kind));
    ids.push_back(id);
    handles.push_back(
        service.submit(command_spec(serving::JobKind::kRun, {id}, opts)));
  }
  std::vector<core::ReportRow> rows;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    rows.push_back({service.workload(ids[i]).name, wait_ok(handles[i]).run});
  }
  std::cout << (opts.csv ? core::to_csv(rows) : core::render_comparison(rows));
  return 0;
}

int cmd_campaign(const CliOptions& opts) {
  reject_wire_flag("campaign", opts);
  reject_max_queued("campaign", opts);
  reject_grid_overrides("campaign", opts);
  serving::Service service(service_options(opts));
  WorkloadDirectory directory(service);
  std::vector<serving::WorkloadId> ids;
  for (const auto kind : workloads::all_workload_kinds()) {
    ids.push_back(directory.id_for(workloads::workload_name(kind)));
  }
  const auto handle =
      service.submit(command_spec(serving::JobKind::kCampaign, ids, opts));
  print_campaign(wait_ok(handle).campaign, opts.csv);
  return 0;
}

// ------------------------------------------------------------ batch mode

/// One parsed + submitted batch job, remembered for ordered printing.
/// An invalid handle means the job never reached the pool (workload
/// registration failed); in --wire mode that still yields a
/// status-error record so the stream is never truncated.
struct BatchJob {
  std::string banner;
  std::string client;
  std::string error;
  serving::WorkloadId run_workload = 0;  // run jobs only
  serving::JobHandle<serving::JobResult> handle;
};

std::string job_banner(const serving::JobSpec& spec) {
  std::string banner = serving::job_kind_name(spec.kind);
  if (spec.workloads.size() == 1) {
    banner += " " + spec.workloads[0];
  } else {
    banner += " (" + std::to_string(spec.workloads.size()) + " workload(s))";
  }
  if (spec.priority != sweep::Priority::kNormal) {
    banner += std::string(" [") + sweep::priority_name(spec.priority) + "]";
  }
  return banner;
}

int cmd_batch(const std::string& path, const CliOptions& global) {
  reject_job_config("batch", global);
  reject_max_queued("batch", global);
  if (global.csv && global.wire) {
    usage("'batch' emits either CSV or wire records; --csv and --wire "
          "together would silently drop one");
  }

  // Phase 1: parse and validate the whole file. Wire format errors
  // exit 1 here -- with the offending line number and a snippet --
  // before a Service exists or any job is in flight.
  std::vector<serving::JobSpec> parsed;
  try {
    net::RecordFramer framer = frame_file(path);
    while (const auto record = framer.next()) {
      if (record->is_result) {
        throw serving::wire::WireError("expected a job record in a job file",
                                       record->first_line, "apcc.result ...");
      }
      parsed.push_back(
          serving::wire::parse_job(record->text, record->first_line));
    }
  } catch (const serving::wire::WireError& e) {
    wire_usage(path, e);
  }
  if (parsed.empty()) {
    usage(path + ": no job records (expected '" + serving::wire::kJobHeader +
          "' ... 'end')");
  }

  // Phase 2: register workloads (input errors exit 2 here, still
  // before submission) and submit every job. Nothing is waited on yet,
  // so the scheduler has the whole file in flight: a long campaign's
  // tail overlaps the next job's cells, workloads shared between
  // records hit the same cached artifacts, and the per-record QoS
  // (priority, max-workers) decides who gets the pool first.
  serving::Service service(service_options(global));
  WorkloadDirectory directory(service);
  std::vector<BatchJob> jobs;
  for (serving::JobSpec& spec : parsed) {
    BatchJob job;
    job.banner = job_banner(spec);
    job.client = spec.client;
    try {
      for (const std::string& ref : spec.workloads) {
        (void)directory.id_for(ref);
      }
      // Only run jobs read this (they have exactly one workload), and
      // id_for is memoized, so this is a lookup, not a re-registration.
      job.run_workload = spec.workloads.empty()
                             ? 0
                             : directory.id_for(spec.workloads.front());
      job.handle = service.submit(std::move(spec));
    } catch (const std::exception& e) {
      // Same contract as serve: in --wire mode a job that cannot start
      // becomes a status-error record in its stream slot. Human mode
      // keeps the old pre-submission abort (exit 2).
      if (!global.wire) throw;
      job.error = e.what();
    }
    jobs.push_back(std::move(job));
  }

  // Phase 3: wait and print in submission order.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    BatchJob& job = jobs[i];
    if (global.wire) {
      // Machine consumers get a complete stream: one record per job,
      // failures as status-error records (exactly like serve) rather
      // than a truncated stream and exit 2.
      serving::wire::ResultRecord record;
      record.job = i + 1;
      record.client = job.client;
      if (!job.error.empty()) {
        record.status = serving::JobStatus::kError;
        record.error = job.error;
      } else {
        try {
          const serving::JobResult& result = job.handle.wait();
          record.status = result.status;
          if (result.ok()) {
            record.result = result;
          } else {
            record.error = result.error;
          }
        } catch (const std::exception& e) {
          record.status = serving::JobStatus::kError;
          record.error = e.what();
        }
      }
      std::cout << serving::wire::serialize_result(record);
      continue;
    }
    std::cout << "### job " << (i + 1) << ": " << job.banner << "\n";
    const serving::JobResult& result = job.handle.wait();
    if (!result.ok()) {
      // Rejected / cancelled / deadline-exceeded: report and move on
      // (kError still rethrows out of wait() and aborts with exit 2,
      // the historical batch contract for failed jobs).
      std::cout << serving::status_name(result.status) << ": "
                << result.error << "\n\n";
      continue;
    }
    switch (result.kind) {
      case serving::JobKind::kRun:
        print_run(service, job.run_workload, result.run, global.csv);
        break;
      case serving::JobKind::kSweep:
        print_sweep(result.sweep, global.csv);
        break;
      case serving::JobKind::kCampaign:
        print_campaign(result.campaign, global.csv);
        break;
    }
    std::cout << '\n';
  }
  const auto stats = service.cache_stats();
  std::cerr << "batch: " << jobs.size() << " job(s)\n"
            << serving::format_cache_stats(stats);
  return 0;
}

// ------------------------------------------------------------ serve mode

/// The remote front door: one net::Server session over stdin/stdout,
/// or one per TCP connection with --listen. Wire job records in, wire
/// result records out (per-session submission order, each written as
/// its job retires). A record that parses but fails -- unknown
/// workload, invalid job, engine failure -- produces a `status error`
/// result record and the session keeps going. A framing error on stdin
/// writes one final error record after the accepted jobs' records, then
/// exits 1 with a positioned diagnostic.
int cmd_serve(const CliOptions& opts) {
  reject_job_config("serve", opts);
  if (opts.csv || opts.wire) {
    usage("'serve' always emits wire records; --csv would be silently "
          "ignored and --wire is redundant");
  }
  if (!opts.listen && opts.host != "127.0.0.1") {
    usage("--host only applies to the TCP front door; add --listen PORT");
  }
  // SIGINT/SIGTERM mean "drain": stop reading jobs, finish what was
  // accepted, emit every result record, exit 0. No SA_RESTART, so the
  // server's poll() fails with EINTR and its interrupted() hook sees
  // the flag.
  struct sigaction drain {};
  drain.sa_handler = apcc_cli_serve_signal;
  sigemptyset(&drain.sa_mask);
  drain.sa_flags = 0;
  sigaction(SIGINT, &drain, nullptr);
  sigaction(SIGTERM, &drain, nullptr);

  serving::ServiceOptions options = service_options(opts);
  options.limits.max_queued_jobs = opts.max_queued;
  options.limits.max_queued_per_client = opts.max_queued_per_client;
  options.client_weights = opts.client_weights;
  serving::Service service(options);
  WorkloadDirectory directory(service);

  // Both transports: the workload directory applies per record through
  // the prepare hook.
  net::ServerOptions server_options;
  server_options.prepare = [&](serving::JobSpec& spec) {
    for (const std::string& ref : spec.workloads) {
      (void)directory.id_for(ref);
    }
  };
  server_options.interrupted = [] { return g_serve_shutdown != 0; };
  if (!opts.listen) {
    net::Server server(service, std::move(server_options), STDIN_FILENO,
                       STDOUT_FILENO);
    try {
      server.run();
    } catch (const serving::wire::WireError& e) {
      wire_usage("stdin", e);
    }
    return 0;
  }
  server_options.host = opts.host;
  server_options.port = *opts.listen;
  net::Server server(service, std::move(server_options));
  // The bound address on stderr (stdout stays a pure wire stream in
  // both modes): how callers learn an ephemeral --listen 0 port.
  std::cerr << "serve: listening on " << server.address() << std::endl;
  server.run();
  return 0;
}

// ------------------------------------------------------- wire roundtrip

/// Parse every record in a wire file and print its canonical
/// re-serialization: the Wire.CliRoundTrip.* ctests diff it against
/// each golden file, which must stay a fixed point of serialize(parse(.)).
int cmd_wire_roundtrip(const std::string& path) {
  try {
    net::RecordFramer framer = frame_file(path);
    bool first = true;
    while (const auto record = framer.next()) {
      if (!first) std::cout << '\n';
      first = false;
      if (record->is_result) {
        std::cout << serving::wire::serialize_result(
            serving::wire::parse_result(record->text, record->first_line));
      } else {
        std::cout << serving::wire::serialize_job(
            serving::wire::parse_job(record->text, record->first_line));
      }
    }
    if (first) usage(path + ": no wire records");
  } catch (const serving::wire::WireError& e) {
    wire_usage(path, e);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  try {
    const std::string& cmd = args[0];
    if (cmd == "version") {
      if (args.size() != 1) {
        usage("version takes no arguments (extra arguments would be "
              "silently ignored)");
      }
      std::cout << "apcc_cli " << kToolVersion << " (wire v"
                << serving::JobSpec::kWireVersion << ")\n";
      return 0;
    }
    if (cmd == "suite") {
      return cmd_suite(parse_options(args, 1));
    }
    if (cmd == "campaign") {
      return cmd_campaign(parse_options(args, 1));
    }
    if (cmd == "serve") {
      return cmd_serve(parse_options(args, 1));
    }
    if (args.size() < 2) usage("command needs a file argument");
    if (cmd == "asm") return cmd_asm(args[1]);
    if (cmd == "cfg") return cmd_cfg(args[1]);
    if (cmd == "sim") return cmd_sim(args[1], parse_options(args, 2));
    if (cmd == "sweep") return cmd_sweep(args[1], parse_options(args, 2));
    if (cmd == "batch") return cmd_batch(args[1], parse_options(args, 2));
    if (cmd == "wire-roundtrip") {
      if (args.size() != 2) {
        usage("wire-roundtrip takes exactly one file (extra arguments "
              "would be silently ignored)");
      }
      return cmd_wire_roundtrip(args[1]);
    }
    usage("unknown command '" + cmd + "'");
  } catch (const apcc::CheckError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
