// Host set-up and the single-threaded socket client.
#include "serve.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <deque>
#include <stdexcept>

#include "net/framer.hpp"
#include "net/socket.hpp"
#include "serving/wire.hpp"

namespace perfbench {

namespace wire = apcc::serving::wire;

void PrepareLog::mark(const std::string& client) {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  marks_[client].push_back(now);
}

std::map<std::string, std::vector<Clock::time_point>> PrepareLog::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(marks_);
}

void run_inprocess(apcc::serving::Service& service, const Job& job) {
  auto handle = service.submit(job.spec);
  const apcc::serving::JobResult& result = handle.wait();
  if (!result.ok()) {
    throw std::runtime_error(std::string("in-process job failed: ") +
                             apcc::serving::status_name(result.status) +
                             ": " + result.error);
  }
}

Host::Host(const Plan& plan, PrepareLog* log) {
  const auto start = Clock::now();
  const double cpu_start = process_cpu_ms();
  apcc::serving::ServiceOptions options;
  options.workers = kPoolWidth;
  options.cache_budget = plan.budget;
  for (const Tenant& t : plan.tenants) options.client_weights[t.tag] = t.weight;
  service_ = std::make_unique<apcc::serving::Service>(options);
  for (const ProgramSpec& spec : plan.programs) {
    (void)service_->register_workload(build_program(spec));
  }

  apcc::net::ServerOptions server_options;
  server_options.prepare = [this, log](apcc::serving::JobSpec& spec) {
    for (const std::string& ref : spec.workloads) {
      (void)service_->resolve(ref);
    }
    if (log) log->mark(spec.client);
  };
  server_ = std::make_unique<apcc::net::Server>(*service_,
                                                std::move(server_options));
  io_ = std::thread([this] { server_->run(); });
  try {
    for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
      apcc::net::Fd fd = apcc::net::connect_tcp("127.0.0.1", server_->port());
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      apcc::net::set_nonblocking(fd.get());
      conns_.push_back(std::move(fd));
    }
    for (const Job& job : plan.warmup) run_inprocess(*service_, job);
  } catch (...) {
    // No destructor runs for a half-built Host: stop the IO thread here.
    conns_.clear();
    server_->request_stop();
    io_.join();
    throw;
  }
  setup_s_ = std::chrono::duration<double>(Clock::now() - start).count();
  setup_cpu_s_ = (process_cpu_ms() - cpu_start) / 1e3;
}

Host::~Host() {
  conns_.clear();
  server_->request_stop();
  io_.join();
}

namespace {

/// One tenant's connection as the client sees it.
struct Conn {
  int fd = -1;
  apcc::net::RecordFramer framer{apcc::net::FramerOptions{64u << 20}};
  std::deque<std::size_t> inflight;  // jobs sent, result not yet framed
  std::string out;                   // bytes not yet accepted by send()
  /// (job, end offset in `out`): stamps send_end once flushed past it.
  std::deque<std::pair<std::size_t, std::size_t>> sending;
  std::size_t flushed = 0;
  std::deque<std::size_t> queue;  // closed loop: jobs not yet sent
};

class Client {
 public:
  Client(const Plan& plan, std::vector<apcc::net::Fd>& fds, PassResult& out)
      : plan_(plan), out_(out) {
    for (auto& fd : fds) {
      conns_.emplace_back();
      conns_.back().fd = fd.get();
    }
  }

  void run_phase(std::size_t p) {
    const Phase& phase = plan_.phases[p];
    PassResult::Window& window = out_.phases[p];
    std::size_t pending = phase.end - phase.begin;
    window.start = Clock::now();
    if (phase.loop == Loop::kClosed) {
      for (std::size_t j = phase.begin; j < phase.end; ++j) {
        conns_[plan_.jobs[j].tenant].queue.push_back(j);
      }
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        for (unsigned w = 0; w < phase.window; ++w) send_next(c, Clock::now());
      }
    }
    const Clock::time_point origin =
        window.start + std::chrono::milliseconds(1);
    std::size_t next = phase.begin;  // open loop: next job to send
    auto last_progress = Clock::now();
    while (pending > 0) {
      auto now = Clock::now();
      if (phase.loop == Loop::kOpen) {
        while (next < phase.end &&
               origin + to_duration(plan_.jobs[next].due_s) <= now) {
          const Job& job = plan_.jobs[next];
          send(job.tenant, next, origin + to_duration(job.due_s));
          ++next;
          if (next == phase.end) window.inflight_at_last_send = inflight();
          now = Clock::now();
        }
      }
      timespec timeout{0, 50'000'000};
      if (phase.loop == Loop::kOpen && next < phase.end) {
        const auto wait = origin + to_duration(plan_.jobs[next].due_s) - now;
        const auto ns = std::max<long long>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                   .count());
        timeout = {static_cast<time_t>(ns / 1'000'000'000),
                   static_cast<long>(ns % 1'000'000'000)};
      }
      std::vector<pollfd> fds;
      for (const Conn& c : conns_) {
        fds.push_back({c.fd,
                       static_cast<short>(POLLIN | (c.out.size() > c.flushed
                                                        ? POLLOUT
                                                        : 0)),
                       0});
      }
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready < 0 && errno != EINTR) {
        throw std::runtime_error("client: ppoll failed");
      }
      for (std::size_t c = 0; c < conns_.size() && ready > 0; ++c) {
        if (fds[c].revents & POLLOUT) flush(c);
        if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
          const std::size_t got = receive(c, phase);
          if (got > 0) last_progress = Clock::now();
          pending -= got;
        }
      }
      if (Clock::now() - last_progress > std::chrono::seconds(60)) {
        if (out_.first_failure.empty()) {
          out_.first_failure = "no result for 60 s in phase " + phase.name;
        }
        break;
      }
    }
    window.end = Clock::now();
    if (phase.loop == Loop::kClosed) window.inflight_at_last_send = 0;
  }

 private:
  static Clock::duration to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  [[nodiscard]] std::size_t inflight() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.inflight.size();
    return n;
  }

  void send_next(std::size_t c, Clock::time_point due) {
    Conn& conn = conns_[c];
    if (conn.queue.empty()) return;
    const std::size_t j = conn.queue.front();
    conn.queue.pop_front();
    send(c, j, due);
  }

  void send(std::size_t c, std::size_t j, Clock::time_point due) {
    Conn& conn = conns_[c];
    Outcome& o = out_.jobs[j];
    o.due = due;
    o.cpu_send_ms = process_cpu_ms();
    o.send_start = Clock::now();
    conn.out += plan_.jobs[j].record;
    conn.sending.emplace_back(j, conn.out.size());
    conn.inflight.push_back(j);
    out_.bytes_sent += plan_.jobs[j].record.size();
    flush(c);
  }

  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    while (conn.flushed < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.flushed,
                 conn.out.size() - conn.flushed, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error("client: send failed");
      }
      conn.flushed += static_cast<std::size_t>(n);
    }
    const auto now = Clock::now();
    while (!conn.sending.empty() &&
           conn.sending.front().second <= conn.flushed) {
      out_.jobs[conn.sending.front().first].send_end = now;
      conn.sending.pop_front();
    }
    if (conn.flushed == conn.out.size()) {
      conn.out.clear();
      conn.flushed = 0;
    }
  }

  /// Read what is there, frame it, and settle every completed record.
  /// Returns the number of jobs answered.
  std::size_t receive(std::size_t c, const Phase& phase) {
    Conn& conn = conns_[c];
    std::size_t answered = 0;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n == 0) throw std::runtime_error("client: server closed a session");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error("client: recv failed");
      }
      const auto now = Clock::now();
      out_.bytes_received += static_cast<std::uint64_t>(n);
      conn.framer.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (auto raw = conn.framer.next()) {
        if (conn.inflight.empty()) {
          throw std::runtime_error("client: result record for no job");
        }
        const std::size_t j = conn.inflight.front();
        conn.inflight.pop_front();
        settle(j, raw->text, now);
        ++answered;
        // Closed loop: the client is free again the moment the record
        // arrived; the time it takes to send the next one is its lag.
        if (phase.loop == Loop::kClosed) send_next(c, now);
      }
    }
    return answered;
  }

  void settle(std::size_t j, const std::string& text, Clock::time_point now) {
    Outcome& o = out_.jobs[j];
    o.arrival = now;
    o.cpu_arrival_ms = process_cpu_ms();
    o.answered = true;
    o.digest = fnv1a(text);
    o.ok = o.digest == plan_.jobs[j].expected;
    if (o.ok || !out_.first_failure.empty()) return;
    // Only a bad record is parsed: name the job and what came back.
    std::string what;
    try {
      const wire::ResultRecord record = wire::parse_result(text);
      what = std::string("status ") +
             apcc::serving::status_name(record.status) +
             (record.error.empty() ? "" : " (" + record.error + ")") +
             (record.ok() ? ", result bytes differ from the reference" : "");
    } catch (const std::exception& e) {
      what = std::string("unparsable result: ") + e.what();
    }
    out_.first_failure = "job " + std::to_string(j) + " (" +
                         plan_.tenants[plan_.jobs[j].tenant].tag + ", seq " +
                         std::to_string(plan_.jobs[j].seq) + "): " + what;
  }

  const Plan& plan_;
  PassResult& out_;
  std::vector<Conn> conns_;
};

}  // namespace

PassResult drive(const Plan& plan, std::vector<apcc::net::Fd>& conns) {
  PassResult result;
  result.jobs.resize(plan.jobs.size());
  result.phases.resize(plan.phases.size());
  Client client(plan, conns, result);
  for (std::size_t p = 0; p < plan.phases.size(); ++p) {
    client.run_phase(p);
    if (!result.first_failure.empty() &&
        result.first_failure.rfind("no result", 0) == 0) {
      break;
    }
  }
  result.digest = fnv1a("");
  for (const Outcome& o : result.jobs) {
    const std::uint64_t d = o.digest;
    result.digest = fnv1a(
        std::string_view(reinterpret_cast<const char*>(&d), sizeof(d)),
        result.digest);
  }
  return result;
}

}  // namespace perfbench
