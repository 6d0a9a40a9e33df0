// net::Server loopback tests: real sockets, in-process Service. Each
// test spins the server's IO loop on a helper thread, connects with
// plain blocking client sockets, and speaks the stdin wire protocol
// over TCP -- pinning the per-session contracts (submission-order
// results, tag inheritance, record-level errors as records,
// session-fatal framing errors, admission rejections as structured
// statuses) and the graceful drain over live sockets. (The TSan CI job
// runs this binary: one IO thread + pool workers + test threads.)
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

void send_all(const Fd& fd, std::string_view text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd.get(), text.data() + sent, text.size() - sent, 0);
    ASSERT_GT(n, 0) << "send failed";
    sent += static_cast<std::size_t>(n);
  }
}

/// Read until the server closes the connection.
std::string read_to_eof(const Fd& fd) {
  std::string out;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd.get(), buffer, sizeof(buffer), 0);
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
    const ssize_t n = ::recv(fd.get(), buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  return out;
}

std::vector<ResultRecord> parse_results(const std::string& text) {
  std::istringstream in(text);
  serving::wire::RecordReader reader(in);
  std::vector<ResultRecord> results;
  while (auto record = reader.next()) {
    results.push_back(
        serving::wire::parse_result(record->text, record->first_line));
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
  serving::ServiceOptions options;
  options.workers = 1;
  options.limits.max_queued_per_client = 1;
  LoopbackFixture fx(std::move(options));
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

}  // namespace
}  // namespace apcc::net
