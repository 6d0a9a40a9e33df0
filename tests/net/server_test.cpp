// net::Server tests over both transports, with an in-process Service.
// Each test spins the server's IO loop on a helper thread.
//
// Loopback: plain blocking client sockets speak the wire protocol over
// TCP -- pinning the per-session contracts (submission-order results,
// tag inheritance, record-level errors as records, session-fatal
// framing errors, admission rejections as structured statuses), the
// graceful drain over live sockets, and accept() under fd exhaustion.
//
// Fd pair: the stdin/stdout session `apcc_cli serve` runs, over two
// pipes -- untagged records echo `client -`, diagnostics say
// `stdin:<line>:`, a framing error writes its final record and then
// run() rethrows, and the borrowed fds get their file-status flags
// back on every exit.
//
// (The TSan CI job runs this binary: one IO thread + pool workers +
// test threads.)
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/record_split.hpp"
#include "common/wire_headers.hpp"
#include "core/system.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "serving/service.hpp"
#include "serving/wire.hpp"
#include "workloads/suite.hpp"

namespace apcc::net {
namespace {

using serving::JobStatus;
using serving::wire::ResultRecord;

/// A Service with the CRC-like test workload registered under its
/// suite name, plus a Server on an ephemeral loopback port whose IO
/// loop runs on a helper thread until the fixture is torn down.
struct LoopbackFixture {
  explicit LoopbackFixture(serving::ServiceOptions service_options = {},
                           ServerOptions server_options = {})
      : service(std::move(service_options)) {
    (void)service.register_workload(
        workloads::make_workload(workloads::WorkloadKind::kCrcLike));
    server.emplace(service, std::move(server_options));
    io = std::thread([this] { server->run(); });
  }

  ~LoopbackFixture() {
    server->request_stop();
    io.join();
  }

  serving::Service service;
  std::optional<Server> server;
  std::thread io;
};

/// Write all of `text` to a socket or pipe.
void send_all(const Fd& fd, std::string_view text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::write(fd.get(), text.data() + sent, text.size() - sent);
    ASSERT_GT(n, 0) << "write failed";
    sent += static_cast<std::size_t>(n);
  }
}

/// Read until the server closes the connection (or every write end of
/// a pipe is closed).
std::string read_to_eof(const Fd& fd) {
  std::string out;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buffer, sizeof(buffer));
    if (n <= 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  return out;
}

/// Read until `records` complete result records have arrived (without
/// requiring the server to close -- for tests that keep the write side
/// open).
std::string read_records(const Fd& fd, std::size_t records) {
  std::string out;
  char buffer[4096];
  const auto count_ends = [](const std::string& text) {
    std::size_t count = 0;
    for (std::size_t pos = text.find("\nend\n"); pos != std::string::npos;
         pos = text.find("\nend\n", pos + 5)) {
      ++count;
    }
    return count;
  };
  while (count_ends(out) < records) {
    const ssize_t n = ::read(fd.get(), buffer, sizeof(buffer));
    if (n <= 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  return out;
}

std::vector<ResultRecord> parse_results(const std::string& text) {
  std::vector<ResultRecord> results;
  for (const auto& record : testref::split_records(text)) {
    results.push_back(
        serving::wire::parse_result(record.text, record.first_line));
  }
  return results;
}

std::string run_job(const std::string& extra = {}) {
  return serving::wire::kJobHeader + "\nkind run\n" + extra +
         "workload crc-like\nend\n";
}

/// Send `text`, half-close the write side (the polite client EOF), and
/// return everything the server says before closing.
std::string round_trip(std::uint16_t port, const std::string& text) {
  const Fd client = connect_tcp("127.0.0.1", port);
  send_all(client, text);
  ::shutdown(client.get(), SHUT_WR);
  return read_to_eof(client);
}

TEST(NetServer, RoundTripsOneJobWithTheSessionTag) {
  LoopbackFixture fx;
  const auto results =
      parse_results(round_trip(fx.server->port(), run_job()));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].job, 1u);
  EXPECT_EQ(results[0].client, "conn-1");  // inherited, echoed back
  ASSERT_EQ(results[0].status, JobStatus::kOk);
  ASSERT_EQ(results[0].result.kind, serving::JobKind::kRun);
  // Byte-identity with the direct path survives the socket round trip.
  const auto direct = core::CodeCompressionSystem::from_workload(
                          workloads::make_workload(
                              workloads::WorkloadKind::kCrcLike))
                          .run();
  EXPECT_EQ(results[0].result.run.total_cycles, direct.total_cycles);
  EXPECT_EQ(results[0].result.run.compressed_area_bytes,
            direct.compressed_area_bytes);
}

TEST(NetServer, ResultsComeBackInSubmissionOrder) {
  serving::ServiceOptions options;
  options.workers = 4;
  LoopbackFixture fx(options);
  const auto results = parse_results(
      round_trip(fx.server->port(), run_job() + run_job() + run_job()));
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].job, i + 1);  // per-session order, not retire order
    EXPECT_EQ(results[i].status, JobStatus::kOk);
    EXPECT_EQ(results[i].client, "conn-1");
  }
}

TEST(NetServer, ExplicitClientTagOverridesTheSessionTag) {
  LoopbackFixture fx;
  const auto results = parse_results(round_trip(
      fx.server->port(), run_job("client tenant-a\n") + run_job()));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].client, "tenant-a");  // the record's own tag
  EXPECT_EQ(results[1].client, "conn-1");    // inheritance is per record
}

TEST(NetServer, RecordLevelErrorsKeepTheSessionAlive) {
  LoopbackFixture fx;
  const std::string bad = serving::wire::kJobHeader +
                          "\nkind run\nworkload no-such-workload\nend\n";
  const auto results =
      parse_results(round_trip(fx.server->port(), bad + run_job()));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].job, 1u);
  EXPECT_EQ(results[0].status, JobStatus::kError);
  EXPECT_NE(results[0].error.find("no-such-workload"), std::string::npos)
      << results[0].error;
  EXPECT_EQ(results[1].job, 2u);  // the session kept going
  EXPECT_EQ(results[1].status, JobStatus::kOk);
}

TEST(NetServer, FramingErrorIsFatalToTheSessionNotTheServer) {
  LoopbackFixture fx;
  // A valid job, then garbage where a header must be. No client-side
  // half-close: the server itself must give up on the session after
  // delivering job 1's result and the final framing-error record.
  const Fd client = connect_tcp("127.0.0.1", fx.server->port());
  send_all(client, run_job() + "this is not a record header\n");
  const auto results = parse_results(read_to_eof(client));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].job, 1u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[1].job, 2u);
  EXPECT_EQ(results[1].status, JobStatus::kError);
  EXPECT_NE(results[1].error.find("record header"), std::string::npos)
      << results[1].error;

  // The server survives for fresh connections (with fresh tags).
  const auto after =
      parse_results(round_trip(fx.server->port(), run_job()));
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].status, JobStatus::kOk);
  EXPECT_EQ(after[0].client, "conn-2");
}

TEST(NetServer, PerClientAdmissionLimitRejectsAsAStructuredRecord) {
  // One worker, one live job allowed per client: a long sweep occupies
  // the session's slot, so the run job right behind it must resolve
  // `status rejected` -- a record in its submission slot, not a throw,
  // not a dropped connection.
  //
  // The sweep's first task parks until the IO thread is past the run
  // job's submit: its first wakeup after the second prepare (the
  // rejected handle's own nudge guarantees one). Otherwise a worker
  // that preempts the IO thread can finish the sweep first.
  std::promise<void> open;
  const std::shared_future<void> gate = open.get_future().share();
  std::size_t prepared = 0;  // IO thread only
  bool opened = false;
  ServerOptions server_options;
  server_options.prepare = [&prepared](serving::JobSpec&) { ++prepared; };
  server_options.interrupted = [&] {
    if (prepared == 2 && !opened) {
      opened = true;
      open.set_value();
    }
    return false;
  };
  auto plan = std::make_shared<serving::FaultPlan>();
  plan->on_boundary = [gate](std::size_t n) {
    if (n == 1) (void)gate.wait_for(std::chrono::seconds(30));
  };
  serving::ServiceOptions options;
  options.workers = 1;
  options.limits.max_queued_per_client = 1;
  options.faults = plan;
  LoopbackFixture fx(std::move(options), std::move(server_options));
  const std::string sweep = serving::wire::kJobHeader +
                            "\nkind sweep\nworkload crc-like\n"
                            "grid strategy-k\nend\n";
  const auto results =
      parse_results(round_trip(fx.server->port(), sweep + run_job()));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].job, 1u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[1].job, 2u);
  EXPECT_EQ(results[1].status, JobStatus::kRejected);
  EXPECT_NE(results[1].error.find("limit"), std::string::npos)
      << results[1].error;
}

TEST(NetServer, SessionsInterleaveWithIndependentSequences) {
  serving::ServiceOptions options;
  options.workers = 2;
  LoopbackFixture fx(options);
  // Both connections live at once, each with its own tag and its own
  // job numbering starting at 1.
  const Fd a = connect_tcp("127.0.0.1", fx.server->port());
  const Fd b = connect_tcp("127.0.0.1", fx.server->port());
  send_all(a, run_job() + run_job());
  send_all(b, run_job());
  ::shutdown(a.get(), SHUT_WR);
  ::shutdown(b.get(), SHUT_WR);
  const auto results_a = parse_results(read_to_eof(a));
  const auto results_b = parse_results(read_to_eof(b));
  ASSERT_EQ(results_a.size(), 2u);
  ASSERT_EQ(results_b.size(), 1u);
  EXPECT_EQ(results_a[0].job, 1u);
  EXPECT_EQ(results_a[1].job, 2u);
  EXPECT_EQ(results_b[0].job, 1u);
  // Accept order follows connect order on loopback: stable tags.
  EXPECT_EQ(results_a[0].client, "conn-1");
  EXPECT_EQ(results_b[0].client, "conn-2");
  for (const auto* results : {&results_a, &results_b}) {
    for (const auto& record : *results) {
      EXPECT_EQ(record.status, JobStatus::kOk);
    }
  }
}

TEST(NetServer, RequestStopDrainsLiveSocketsThenCloses) {
  LoopbackFixture fx;
  // The client never closes its write side: the *server's* drain is
  // what ends the session. The accepted job still gets its one record
  // before the socket closes.
  const Fd client = connect_tcp("127.0.0.1", fx.server->port());
  send_all(client, run_job());
  const std::string first = read_records(client, 1);  // result delivered
  fx.server->request_stop();
  const std::string rest = read_to_eof(client);  // drain closes the fd
  const auto results = parse_results(first + rest);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].job, 1u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  // The fixture's destructor joins the IO thread: it would hang (and
  // time the test out) if run() had not returned from this drain.
}

TEST(NetServer, EphemeralPortIsReportedAndAddressFormatted) {
  LoopbackFixture fx;
  EXPECT_NE(fx.server->port(), 0u);
  EXPECT_EQ(fx.server->address(),
            "127.0.0.1:" + std::to_string(fx.server->port()));
}

TEST(NetSocket, AcceptedConnectionsDisableNagle) {
  // A result record must leave as soon as it is written, not wait for
  // the client's delayed ACK: accept_client sets TCP_NODELAY.
  std::uint16_t port = 0;
  const Fd listener = listen_tcp("127.0.0.1", 0, &port);
  const Fd client = connect_tcp("127.0.0.1", port);
  Fd accepted;
  for (int attempt = 0; attempt < 1000 && !accepted.valid(); ++attempt) {
    accepted = accept_client(listener.get());
    if (!accepted.valid()) std::this_thread::yield();
  }
  ASSERT_TRUE(accepted.valid()) << "loopback connection never accepted";
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_EQ(nodelay, 1);
}

/// Lowers RLIMIT_NOFILE's soft limit for one scope. The TSan job runs
/// the whole binary in one process, so the old limit must come back.
class SoftFdLimit {
 public:
  explicit SoftFdLimit(rlim_t soft) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~SoftFdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  SoftFdLimit(const SoftFdLimit&) = delete;
  SoftFdLimit& operator=(const SoftFdLimit&) = delete;

 private:
  rlimit saved_{};
};

/// CPU time the thread has used so far.
std::chrono::nanoseconds thread_cpu(std::thread& thread) {
  clockid_t clock = 0;
  EXPECT_EQ(::pthread_getcpuclockid(thread.native_handle(), &clock), 0);
  timespec ts{};
  EXPECT_EQ(::clock_gettime(clock, &ts), 0);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

TEST(NetServer, AcceptSurvivesFdExhaustion) {
  LoopbackFixture fx;
  // A session opened before the fd table fills keeps being served.
  const Fd live = connect_tcp("127.0.0.1", fx.server->port());
  send_all(live, run_job());
  ASSERT_EQ(parse_results(read_records(live, 1)).size(), 1u);

  // Sockets for the clients that connect past the limit, made while
  // fds remain (connect() needs none).
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  std::vector<Fd> late;
  for (int i = 0; i < 4; ++i) {
    late.emplace_back(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_TRUE(late.back().valid());
  }

  std::vector<Fd> filler;
  {
    const int lowest_free = ::dup(live.get());
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    const SoftFdLimit limit(static_cast<rlim_t>(lowest_free) + 8);
    for (int fd; (fd = ::dup(live.get())) >= 0;) filler.emplace_back(fd);
    ASSERT_EQ(errno, EMFILE);
    // The handshakes complete in the listen backlog; the server's
    // accept() now fails with EMFILE.
    for (const Fd& client : late) {
      ASSERT_EQ(::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)),
                0);
    }
    // The IO thread must not spin on the readable listener...
    const auto cpu_before = thread_cpu(fx.io);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_LT(thread_cpu(fx.io) - cpu_before, std::chrono::milliseconds(100));
    // ...and an existing session still gets its records.
    send_all(live, run_job());
    const auto results = parse_results(read_records(live, 1));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].job, 2u);
    EXPECT_EQ(results[0].status, JobStatus::kOk);
  }
  filler.clear();

  // With fds free again, the backlog is accepted: a late client
  // round-trips a job.
  send_all(late[0], run_job());
  ::shutdown(late[0].get(), SHUT_WR);
  const auto late_results = parse_results(read_to_eof(late[0]));
  ASSERT_EQ(late_results.size(), 1u);
  EXPECT_EQ(late_results[0].status, JobStatus::kOk);
  // After connections close, a new one round-trips a job too.
  late.clear();
  const auto fresh = parse_results(round_trip(fx.server->port(), run_job()));
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].status, JobStatus::kOk);
}

/// The stdin/stdout session over two pipes: the test writes job records
/// into `to_server` and reads results from `from_server`, while run()
/// borrows the other two ends -- as `apcc_cli serve` borrows fds 0/1.
struct PipeFixture {
  explicit PipeFixture(serving::ServiceOptions service_options = {})
      : service(std::move(service_options)) {
    (void)service.register_workload(
        workloads::make_workload(workloads::WorkloadKind::kCrcLike));
    int in[2] = {-1, -1};
    int out[2] = {-1, -1};
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    server_in = Fd(in[0]);
    to_server = Fd(in[1]);
    from_server = Fd(out[0]);
    server_out = Fd(out[1]);
    in_flags = ::fcntl(server_in.get(), F_GETFL);
    out_flags = ::fcntl(server_out.get(), F_GETFL);
    server.emplace(service, ServerOptions{}, server_in.get(),
                   server_out.get());
    io = std::thread([this] {
      try {
        server->run();
      } catch (const serving::wire::WireError& e) {
        error = std::to_string(e.line()) + ": " + e.what();
      }
      returned = true;
    });
  }

  ~PipeFixture() {
    to_server.reset();
    if (io.joinable()) io.join();
  }

  /// Close the input (EOF), wait for run() to return, and read all it
  /// wrote (the results must fit the pipe buffer).
  std::string finish() {
    to_server.reset();
    io.join();
    flags_restored = ::fcntl(server_in.get(), F_GETFL) == in_flags &&
                     ::fcntl(server_out.get(), F_GETFL) == out_flags;
    server_out.reset();
    return read_to_eof(from_server);
  }

  Fd server_in, to_server, from_server, server_out;
  int in_flags = -1;
  int out_flags = -1;
  /// Whether run() left the borrowed fds' file-status flags as found.
  bool flags_restored = false;
  serving::Service service;
  std::optional<Server> server;
  std::string error;  // run()'s rethrown WireError: "<line>: <what>"
  std::atomic<bool> returned{false};
  std::thread io;
};

TEST(NetServer, FdPairSessionKeepsTheStdinContract) {
  serving::ServiceOptions options;
  options.workers = 4;
  PipeFixture fx(options);
  ASSERT_EQ(fx.in_flags & O_NONBLOCK, 0);
  send_all(fx.to_server, run_job());
  const std::string first = read_records(fx.from_server, 1);
  // run() made the borrowed fds nonblocking while it serves.
  EXPECT_NE(::fcntl(fx.server_in.get(), F_GETFL) & O_NONBLOCK, 0);
  EXPECT_NE(::fcntl(fx.server_out.get(), F_GETFL) & O_NONBLOCK, 0);
  // Lines 5-6 are a record that parses to an error: its slot says
  // where, and the session keeps going.
  const std::string bad = testref::kJobLine + "kind warp-speed\nend\n";
  send_all(fx.to_server,
           bad + run_job("client tenant-a\n") + run_job() + run_job());
  const std::string out = first + fx.finish();
  EXPECT_TRUE(fx.error.empty()) << fx.error;
  EXPECT_TRUE(fx.flags_restored);

  const auto results = parse_results(out);
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].job, i + 1);  // submission order
  }
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[1].status, JobStatus::kError);
  EXPECT_EQ(results[1].error.rfind("stdin:6: ", 0), 0u) << results[1].error;
  EXPECT_EQ(results[2].client, "tenant-a");
  for (const std::size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_EQ(results[i].client, "");  // no session tag to inherit
  }
  for (const std::size_t i : {2u, 3u, 4u}) {
    EXPECT_EQ(results[i].status, JobStatus::kOk);
  }
  EXPECT_NE(out.find("job 1\nclient -\n"), std::string::npos) << out;
}

TEST(NetServer, FdPairFramingErrorWritesItsRecordThenRunRethrows) {
  PipeFixture fx;
  // Line 5 is garbage where a header must be.
  send_all(fx.to_server, run_job() + "this is not a record header\n");
  const std::string out = fx.finish();
  EXPECT_EQ(fx.error,
            "5: expected an 'apcc.job' or 'apcc.result' record header");
  EXPECT_TRUE(fx.flags_restored);
  // run() threw only after the final record was written.
  const auto results = parse_results(out);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[1].job, 2u);
  EXPECT_EQ(results[1].status, JobStatus::kError);
  EXPECT_EQ(results[1].client, "");
  EXPECT_EQ(results[1].error,
            "stdin:5: expected an 'apcc.job' or 'apcc.result' record header");
}

TEST(NetServer, FdPairUnterminatedLastLineIsAPositionedError) {
  PipeFixture fx;
  // Line 6 never gets its '\n'.
  send_all(fx.to_server, run_job() + testref::kJobLine + "kind run");
  const std::string out = fx.finish();
  EXPECT_EQ(fx.error, "6: stream ends mid-line (no trailing newline)");
  const auto results = parse_results(out);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[1].status, JobStatus::kError);
  EXPECT_EQ(results[1].error,
            "stdin:6: stream ends mid-line (no trailing newline)");
}

TEST(NetServer, FdPairEofWhileJobsRunStillDeliversEveryRecord) {
  // The first task parks until the test opens the gate, so EOF arrives
  // while the job is still running.
  std::promise<void> open;
  const std::shared_future<void> gate = open.get_future().share();
  auto parked = std::make_shared<std::atomic<bool>>(false);
  auto plan = std::make_shared<serving::FaultPlan>();
  plan->on_boundary = [gate, parked](std::size_t n) {
    if (n != 1) return;
    *parked = true;
    gate.wait();
  };
  serving::ServiceOptions options;
  options.workers = 2;
  options.faults = plan;
  PipeFixture fx(options);
  send_all(fx.to_server, run_job() + run_job());
  while (!*parked) std::this_thread::yield();
  fx.to_server.reset();  // EOF with job 1 still running
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fx.returned) << "run() returned with a job still running";
  open.set_value();
  const auto results = parse_results(fx.finish());
  EXPECT_TRUE(fx.error.empty()) << fx.error;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].job, 1u);
  EXPECT_EQ(results[1].job, 2u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[1].status, JobStatus::kOk);
}

}  // namespace
}  // namespace apcc::net
