// The served stack under test and the client that drives it.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "net/server.hpp"
#include "serving/service.hpp"

namespace perfbench {

/// Server-side timestamps from the ServerOptions::prepare hook, which
/// runs on the IO thread once a record is framed and parsed: per client
/// tag, in arrival order (a session's records arrive in send order).
class PrepareLog {
 public:
  void mark(const std::string& client);
  [[nodiscard]] std::map<std::string, std::vector<Clock::time_point>> take();

 private:
  std::mutex mutex_;
  std::map<std::string, std::vector<Clock::time_point>> marks_;
};

/// serving::Service + net::Server on loopback, configured the way
/// `apcc_cli serve --listen` configures them, with one connected
/// client socket per tenant. Constructing a Host is the benchmark's
/// set-up: build and register the programs, start the server, connect,
/// and run the plan's warm-up jobs.
class Host {
 public:
  Host(const Plan& plan, PrepareLog* log);
  ~Host();
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] apcc::serving::Service& service() { return *service_; }
  [[nodiscard]] std::vector<apcc::net::Fd>& connections() { return conns_; }
  /// Wall time the constructor took.
  [[nodiscard]] double setup_s() const { return setup_s_; }
  /// Process CPU time the constructor took.
  [[nodiscard]] double setup_cpu_s() const { return setup_cpu_s_; }

 private:
  std::unique_ptr<apcc::serving::Service> service_;
  std::unique_ptr<apcc::net::Server> server_;
  std::thread io_;
  std::vector<apcc::net::Fd> conns_;
  double setup_s_ = 0;
  double setup_cpu_s_ = 0;
};

/// Submit `job` in-process and wait for it.
void run_inprocess(apcc::serving::Service& service, const Job& job);

/// One timed job as the client saw it.
struct Outcome {
  Clock::time_point due{};         // scheduled send (closed loop: when
                                   // the client became free to send)
  Clock::time_point send_start{};
  Clock::time_point send_end{};
  Clock::time_point arrival{};     // its result record was framed
  double cpu_send_ms = 0;          // process_cpu_ms() at send_start
  double cpu_arrival_ms = 0;       // process_cpu_ms() at arrival
  bool answered = false;
  bool ok = false;                 // status ok and bytes == reference
  std::uint64_t digest = 0;        // of the result record's bytes
  /// Latency from the scheduled send (open loop) or the actual send
  /// (closed loop) to the result's arrival.
  [[nodiscard]] double latency_ms(Loop loop) const {
    return ms_between(loop == Loop::kOpen ? due : send_start, arrival);
  }
  /// Process CPU time from send to arrival: with one job outstanding
  /// (closed loop, window 1) nothing else runs, so this is the job's
  /// own cost over every thread -- client, socket, wire, queue,
  /// artifact builds and the engine.
  [[nodiscard]] double cpu_ms() const { return cpu_arrival_ms - cpu_send_ms; }
};

struct PassResult {
  std::vector<Outcome> jobs;  // index-aligned with Plan::jobs
  struct Window {
    Clock::time_point start{};
    Clock::time_point end{};
    std::size_t inflight_at_last_send = 0;
  };
  std::vector<Window> phases;  // index-aligned with Plan::phases
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t digest = 0;    // over every answered record, in job order
  std::string first_failure;   // empty when every job was answered ok
};

/// Drive the plan's timed job list over the host's connections from
/// the calling thread, phase by phase.
[[nodiscard]] PassResult drive(const Plan& plan,
                               std::vector<apcc::net::Fd>& conns);

}  // namespace perfbench
