#include "net/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "serving/wire.hpp"
#include "support/assert.hpp"

namespace apcc::net {

namespace {

/// How long the listener stays out of poll() after accept() ran out of
/// fds or memory, unless a session closes first.
constexpr std::chrono::milliseconds kAcceptBackoff{100};

/// Record-level and framing diagnostics carry the stream-absolute line,
/// in the same shape apcc_cli's file diagnostics use.
std::string wire_message(bool socket, const serving::wire::WireError& error) {
  return (socket ? "tcp:" : "stdin:") + std::to_string(error.line()) + ": " +
         error.what();
}

/// The self-pipe pool threads nudge. Both ends nonblocking: the IO
/// thread drains without stalling, and a pool thread's nudge into a
/// full pipe just returns EAGAIN (the pipe being full already
/// guarantees a wakeup).
void open_wake_pipe(Fd& read_end, Fd& write_end) {
  int pipe_fds[2] = {-1, -1};
  APCC_CHECK(::pipe(pipe_fds) == 0,
             std::string("pipe: ") + std::strerror(errno));
  read_end = Fd(pipe_fds[0]);
  write_end = Fd(pipe_fds[1]);
  set_nonblocking(read_end.get());
  set_nonblocking(write_end.get());
}

/// Restores each fd's file-status flags, as they were when the guard
/// was made, when the scope ends -- return or throw. All are read
/// before any is changed, so fds sharing one open file description
/// restore the same value.
class FileFlagsGuard {
 public:
  explicit FileFlagsGuard(const std::vector<int>& fds) {
    for (const int fd : fds) {
      const int flags = ::fcntl(fd, F_GETFL, 0);
      APCC_CHECK(flags >= 0,
                 std::string("fcntl(F_GETFL): ") + std::strerror(errno));
      saved_.emplace_back(fd, flags);
    }
  }
  ~FileFlagsGuard() {
    for (const auto& [fd, flags] : saved_) (void)::fcntl(fd, F_SETFL, flags);
  }
  FileFlagsGuard(const FileFlagsGuard&) = delete;
  FileFlagsGuard& operator=(const FileFlagsGuard&) = delete;

 private:
  std::vector<std::pair<int, int>> saved_;  // (fd, flags)
};

}  // namespace

Server::Server(serving::Service& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  listen_ = listen_tcp(options_.host, options_.port, &port_);
  open_wake_pipe(wake_read_, wake_write_);
}

Server::Server(serving::Service& service, ServerOptions options, int in_fd,
               int out_fd)
    : service_(service),
      options_(std::move(options)),
      borrowed_fds_{in_fd, out_fd} {
  open_wake_pipe(wake_read_, wake_write_);
  add_session(Fd(), in_fd, out_fd);
}

Server::~Server() {
  // Any armed on_ready callback captures `this`; draining the service
  // fires the last of them before the members go away. A no-op when
  // run() completed its drain (the common path).
  service_.drain();
}

std::string Server::address() const {
  return options_.host + ":" + std::to_string(port_);
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  const char byte = 1;
  // The byte is only a wakeup; EAGAIN means the pipe already has one.
  (void)!::write(wake_write_.get(), &byte, 1);
}

void Server::notify_ready(std::uint64_t session_id) {
  {
    const std::lock_guard<std::mutex> lock(ready_mutex_);
    ready_.push_back(session_id);
  }
  const char byte = 1;
  (void)!::write(wake_write_.get(), &byte, 1);
}

void Server::begin_drain() {
  draining_ = true;
  listen_.reset();  // no new connections
  // The stdin SIGTERM semantics over live sockets: stop admitting,
  // in-flight jobs finish, still-queued jobs resolve `status
  // cancelled`. Blocks this (the IO) thread -- nothing is read while
  // draining anyway, and completion callbacks only queue nudges, so
  // once shutdown returns every accepted job's record is ready to
  // serialize and flush below.
  service_.shutdown();
}

void Server::add_session(Fd socket, int in_fd, int out_fd) {
  const std::uint64_t id = ++next_session_;
  Session session;
  // The fd pair's untagged records keep an empty tag: `client -`.
  if (socket.valid()) session.tag = "conn-" + std::to_string(id);
  session.socket = std::move(socket);
  session.in_fd = in_fd;
  session.out_fd = out_fd;
  session.id = id;
  session.framer = RecordFramer(FramerOptions{options_.max_record_bytes});
  sessions_.emplace(id, std::move(session));
}

void Server::accept_ready() {
  for (;;) {
    bool exhausted = false;
    Fd client = accept_client(listen_.get(), &exhausted);
    if (exhausted) {
      // The pending connection stays readable on the listener; polling
      // it now would spin. Sessions closing (or the backoff) resume.
      accept_paused_until_ = std::chrono::steady_clock::now() + kAcceptBackoff;
    }
    if (!client.valid()) return;
    const int fd = client.get();
    add_session(std::move(client), fd, fd);
  }
}

void Server::submit_record(Session& session,
                           const serving::wire::RawRecord& raw) {
  Slot slot;
  slot.seq = ++session.seq;
  slot.client = session.tag;
  if (raw.is_result) {
    // Not fatal: the slot becomes a status-error record and the
    // session keeps going.
    slot.error = "expected a job record, got a result record";
  } else {
    try {
      serving::JobSpec spec =
          serving::wire::parse_job(raw.text, raw.first_line);
      // The per-client submission context: untagged records inherit
      // the connection's tag, so admission limits and fair share see
      // one tenant per connection by default. The echo below reports
      // the tag actually used.
      if (spec.client.empty()) spec.client = session.tag;
      slot.client = spec.client;
      if (options_.prepare) options_.prepare(spec);
      serving::JobHandle<serving::JobResult> handle =
          service_.submit(std::move(spec));
      const std::uint64_t sid = session.id;
      handle.on_ready([this, sid] { notify_ready(sid); });
      slot.handle = std::move(handle);
    } catch (const serving::wire::WireError& e) {
      slot.error = wire_message(session.socket.valid(), e);
    } catch (const std::exception& e) {
      slot.error = e.what();
    }
  }
  session.inflight.push_back(std::move(slot));
}

void Server::pump_records(Session& session) {
  try {
    while (const auto record = session.framer.next()) {
      submit_record(session, *record);
    }
  } catch (const serving::wire::WireError& e) {
    // Framing errors are session-fatal (the stream position is lost):
    // one final error record explains it, accepted jobs still deliver,
    // then flush-and-close.
    Slot slot;
    slot.seq = ++session.seq;
    slot.client = session.tag;
    slot.error = wire_message(session.socket.valid(), e);
    session.inflight.push_back(std::move(slot));
    session.read_done = true;
    // The fd pair is the whole server: run() rethrows once it closed.
    if (!session.socket.valid()) framing_error_ = std::current_exception();
  }
}

bool Server::read_ready(Session& session) {
  // One read per wakeup, framed and submitted before the next: a
  // regular-file stdin (always readable) streams in bounded memory.
  char buf[16384];
  const ssize_t n = ::read(session.in_fd, buf, sizeof(buf));
  if (n > 0) {
    session.framer.feed(std::string_view(buf, static_cast<size_t>(n)));
  } else if (n == 0) {
    // EOF (a TCP peer's shutdown(SHUT_WR) or close): no more jobs from
    // this session; results for accepted ones still flow.
    session.read_done = true;
    session.framer.finish();
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    return false;  // connection reset: nobody left to answer
  }
  pump_records(session);
  collect_finished(session);
  return write_ready(session);
}

void Server::collect_finished(Session& session) {
  while (!session.inflight.empty()) {
    Slot& slot = session.inflight.front();
    if (slot.handle.valid() && !slot.handle.ready()) break;
    serving::wire::ResultRecord record;
    record.job = slot.seq;
    record.client = slot.client;
    if (slot.handle.valid()) {
      try {
        // ready() above: wait() returns immediately. Rejected /
        // cancelled / deadline-exceeded come back as structured
        // results (wait() only throws for kError).
        const serving::JobResult& result = slot.handle.wait();
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
    } else {
      record.status = serving::JobStatus::kError;
      record.error = slot.error;
    }
    session.out += serving::wire::serialize_result(record);
    session.inflight.pop_front();
  }
}

bool Server::write_ready(Session& session) {
  while (!session.out.empty()) {
    // Sockets never raise SIGPIPE; the borrowed stdout does, like any
    // filter's.
    const ssize_t n =
        session.socket.valid()
            ? ::send(session.out_fd, session.out.data(), session.out.size(),
                     MSG_NOSIGNAL)
            : ::write(session.out_fd, session.out.data(), session.out.size());
    if (n > 0) {
      session.out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // EPIPE and friends: the reader is gone
  }
  return true;
}

bool Server::done_sending(const Session& session) const {
  return (session.read_done || draining_) && session.inflight.empty() &&
         session.out.empty();
}

void Server::drop_session(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  // Cancel what is still unfinished: nobody is left to read the
  // results, and a disconnected tenant should not keep eating pool
  // time. Completed slots just vanish with the session.
  for (Slot& slot : it->second.inflight) {
    if (slot.handle.valid() && !slot.handle.ready()) slot.handle.cancel();
  }
  sessions_.erase(it);
  accept_paused_until_.reset();  // a closed socket frees an fd
}

void Server::run() {
  // fds 0/1 share their open file description with the parent shell:
  // O_NONBLOCK lasts only as long as run().
  const FileFlagsGuard restore_flags(borrowed_fds_);
  for (const int fd : borrowed_fds_) set_nonblocking(fd);
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> owners;  // 0 = wake pipe / listener
  const auto watch = [&](int fd, short events, std::uint64_t owner) {
    fds.push_back(pollfd{fd, events, 0});
    owners.push_back(owner);
  };
  for (;;) {
    if (!draining_ &&
        (stop_requested_.load(std::memory_order_relaxed) ||
         (options_.interrupted && options_.interrupted()))) {
      begin_drain();
    }
    if (draining_) {
      // Every handle resolved in begin_drain: serialize and flush what
      // remains, shed finished sessions, and poll only for writability.
      std::vector<std::uint64_t> finished;
      for (auto& [id, session] : sessions_) {
        collect_finished(session);
        if (!write_ready(session) || done_sending(session)) {
          finished.push_back(id);
        }
      }
      for (const std::uint64_t id : finished) drop_session(id);
    }
    // A TCP server runs until its drain closes the listener; the fd
    // pair, until its one session closed.
    if (!listen_.valid() && sessions_.empty()) break;
    if (accept_paused_until_ &&
        std::chrono::steady_clock::now() >= *accept_paused_until_) {
      accept_paused_until_.reset();
    }

    fds.clear();
    owners.clear();
    watch(wake_read_.get(), POLLIN, 0);
    if (!draining_ && listen_.valid() && !accept_paused_until_) {
      watch(listen_.get(), POLLIN, 0);
    }
    // One entry per side, even when both are one socket. A session
    // waiting only on job completions has none: the self-pipe wakes us
    // for it.
    for (auto& [id, session] : sessions_) {
      if (!draining_ && !session.read_done) watch(session.in_fd, POLLIN, id);
      if (!session.out.empty()) watch(session.out_fd, POLLOUT, id);
    }

    const int timeout_ms =
        accept_paused_until_ ? static_cast<int>(kAcceptBackoff.count()) : -1;
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: re-check interrupted()
      APCC_CHECK(false, std::string("poll: ") + std::strerror(errno));
    }

    if (fds[0].revents != 0) {
      char drain[256];
      while (::read(wake_read_.get(), drain, sizeof(drain)) > 0) {
      }
      std::vector<std::uint64_t> ready;
      {
        const std::lock_guard<std::mutex> lock(ready_mutex_);
        ready.swap(ready_);
      }
      for (const std::uint64_t id : ready) {
        const auto it = sessions_.find(id);
        if (it == sessions_.end()) continue;  // dropped meanwhile
        collect_finished(it->second);
        if (!write_ready(it->second) || done_sending(it->second)) {
          drop_session(id);
        }
      }
    }

    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (owners[i] == 0) {
        accept_ready();
        continue;
      }
      const auto it = sessions_.find(owners[i]);
      if (it == sessions_.end()) continue;  // dropped by an earlier pass
      // Readable, writable, or POLLERR/POLLHUP on that side: the read
      // or write call reports which.
      Session& session = it->second;
      const bool alive = fds[i].events == POLLIN ? read_ready(session)
                                                 : write_ready(session);
      if (!alive || done_sending(session)) drop_session(owners[i]);
    }
  }
  if (framing_error_) std::rethrow_exception(framing_error_);
}

}  // namespace apcc::net
