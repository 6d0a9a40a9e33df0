// net::Server -- the one serve session loop over serving::Service, on
// two transports.
//
// `apcc_cli serve` runs one session over stdin/stdout (the fd-pair
// constructor); `apcc_cli serve --listen <port>` runs one session per
// TCP connection. A session speaks the same protocol either way --
// wire job records in, wire result records out -- with the same
// statuses (ok / error / rejected / cancelled / deadline-exceeded),
// ordering, error records and drain. Structure:
//
//  * **One IO thread.** run() owns a poll() loop over the listener,
//    every session fd, and a self-pipe. All session state is touched
//    only from that thread; the only cross-thread structure is the
//    completion queue the self-pipe drains. (TSan runs the whole
//    loopback and pipe suite; keeping the server single-threaded is
//    what makes that cheap.) Session fds are nonblocking throughout --
//    a slow client never stalls the loop, let alone another client.
//    Every read() is framed and submitted before the next, so a
//    regular-file stdin streams in bounded memory.
//  * **Per-session ordering.** Each session numbers its jobs 1,2,...
//    in arrival order and emits exactly one result record per job *in
//    that order*, each the moment its job retires (and every earlier
//    record is out). Jobs from different sessions interleave freely:
//    ordering is a session property, never a server-wide barrier.
//  * **Per-client submission contexts.** A record that carries no
//    client tag inherits the session's tag ("conn-<n>" on TCP, empty
//    on the fd pair, which echoes as `client -`), so admission
//    (ServiceLimits::max_queued_per_client) and the pool's weighted
//    fair share see one tenant per connection by default; an explicit
//    `client` line overrides (several connections may share a tenant).
//    Result records echo the tag that was actually used.
//  * **Event-driven write-back.** JobHandle::on_ready callbacks (fired
//    on pool threads) enqueue the session id and nudge the self-pipe;
//    the IO thread then drains each nudged session's in-order prefix
//    of finished jobs. No thread ever blocks in wait().
//  * **Errors.** A record that parses but cannot run (unknown
//    workload, invalid spec) occupies its slot with a `status error`
//    record and the session keeps going. A *framing* error (garbage
//    between records, oversized or truncated record, a last line
//    without '\n') ends that session's reads: one final `status error`
//    record explains it (`tcp:<line>:` / `stdin:<line>:`), accepted
//    jobs still deliver their results, then the session closes. A TCP
//    server keeps serving other connections; the fd-pair run() then
//    rethrows the WireError. Disconnects cancel the session's
//    unfinished jobs (nobody is left to read the results).
//  * **Fd exhaustion.** When accept() runs out of fds or memory, the
//    listener is left out of poll() until a session closes or a short
//    backoff passes; pending connections wait in the backlog.
//  * **Drain.** request_stop() -- or the interrupted() hook, polled
//    after every wakeup so a SIGTERM'd poll() reacts immediately --
//    stops accept and reads, drains the service (in-flight jobs
//    finish, still-queued ones resolve cancelled), flushes every
//    session's remaining records, then run() returns. Every accepted
//    job gets exactly one record.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/framer.hpp"
#include "net/socket.hpp"
#include "serving/service.hpp"

namespace apcc::net {

struct ServerOptions {
  /// IPv4 dotted quad to bind; loopback by default (exposing the front
  /// door beyond the host is an explicit decision). TCP only.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Per-session framing bound (see FramerOptions).
  std::size_t max_record_bytes = 1 << 20;
  /// Called on the IO thread for every parsed job record before
  /// submit(): resolve workload references (register them with the
  /// Service), apply server-side policy. A throw resolves the record
  /// as a `status error` result. Null = submit specs as-is.
  std::function<void(serving::JobSpec&)> prepare;
  /// Polled after every poll() wakeup: true begins the graceful drain.
  /// The hook is how a signal handler's flag reaches the loop (the
  /// handler itself can only set the flag; EINTR does the waking).
  std::function<bool()> interrupted;
};

class Server {
 public:
  /// The TCP front door. Binds and listens immediately (throws
  /// CheckError on failure); serving starts when run() is called.
  Server(serving::Service& service, ServerOptions options);

  /// One session over an open fd pair -- `apcc_cli serve`'s stdin and
  /// stdout. No listener; options.host/port are unused. The fds are
  /// borrowed, never closed. run() makes them nonblocking and restores
  /// their original file-status flags before it returns or throws
  /// (fds 0/1 share their open file description with the parent
  /// shell). Output goes through write(), so a closed stdout raises
  /// SIGPIPE like any filter's; signal dispositions are the caller's.
  Server(serving::Service& service, ServerOptions options, int in_fd,
         int out_fd);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the kernel's pick when options.port was 0; 0 for
  /// the fd pair).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// "host:port", as printed by `serve --listen`.
  [[nodiscard]] std::string address() const;

  /// Serve until a graceful drain completes -- or, on the fd pair,
  /// until its session has nothing more to send. Blocking: the calling
  /// thread becomes the IO thread. Call once. On the fd pair, a
  /// framing error is rethrown as its serving::wire::WireError after
  /// the session's final error record is written.
  void run();

  /// Begin the graceful drain from any thread (idempotent,
  /// non-blocking; run() returns once the drain finishes). Not
  /// async-signal-safe -- from a signal handler, set a flag and let
  /// options.interrupted report it.
  void request_stop();

 private:
  /// One job slot of a session, in submission order. An invalid handle
  /// means the job never reached the pool (parse / prepare / submit
  /// error); `error` holds the record's message instead.
  struct Slot {
    std::uint64_t seq = 0;
    std::string client;
    serving::JobHandle<serving::JobResult> handle;
    std::string error;
  };

  /// One session's state. Only the IO thread touches it.
  struct Session {
    Fd socket;  // the TCP connection; empty for the borrowed fd pair
    int in_fd = -1;
    int out_fd = -1;  // == in_fd on a socket
    std::uint64_t id = 0;
    std::string tag;  // default client tag
    RecordFramer framer;
    std::uint64_t seq = 0;  // per-session submission sequence numbers
    std::deque<Slot> inflight;
    std::string out;  // serialized records not yet written
    /// Read side is done: EOF (a TCP peer's shutdown(SHUT_WR)) or a
    /// fatal framing error. Remaining slots still resolve and flush;
    /// the session closes once nothing is left to send.
    bool read_done = false;
  };

  /// Open the session that `socket` (or, when empty, the borrowed
  /// in_fd/out_fd pair) carries.
  void add_session(Fd socket, int in_fd, int out_fd);
  void accept_ready();
  /// One read() into the session's framer, then submit every complete
  /// record and flush what is ready. Returns false when the session
  /// died (read error, peer reset) and must be dropped.
  [[nodiscard]] bool read_ready(Session& session);
  /// Cut and submit records the framer has complete. A framing error
  /// appends one final `status error` slot and marks the read side
  /// done (the session switches to flush-then-close).
  void pump_records(Session& session);
  /// Submit one raw record into a slot (never throws: every failure
  /// becomes the slot's error record).
  void submit_record(Session& session, const serving::wire::RawRecord& raw);
  /// Serialize the in-order prefix of finished slots into `out`.
  void collect_finished(Session& session);
  /// Nonblocking flush of `out`. Returns false when the session died.
  [[nodiscard]] bool write_ready(Session& session);
  /// Cancel unfinished jobs and erase the session.
  void drop_session(std::uint64_t id);
  /// True when the session has nothing more to send and never will.
  [[nodiscard]] bool done_sending(const Session& session) const;
  void begin_drain();
  /// Completion-queue push (any thread) + self-pipe nudge.
  void notify_ready(std::uint64_t session_id);

  serving::Service& service_;
  const ServerOptions options_;
  Fd listen_;
  std::uint16_t port_ = 0;
  /// The fd pair's in/out fds, whose flags run() saves and restores.
  std::vector<int> borrowed_fds_;
  /// The fd pair's framing error, rethrown once its session closed.
  std::exception_ptr framing_error_;
  /// Set while accept() is out of fds or memory: the listener stays out
  /// of poll() until a session closes or this time passes.
  std::optional<std::chrono::steady_clock::time_point> accept_paused_until_;
  Fd wake_read_;
  Fd wake_write_;
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  std::uint64_t next_session_ = 0;
  std::map<std::uint64_t, Session> sessions_;

  /// Sessions whose jobs resolved since the last drain of the pipe.
  /// The one structure shared with pool threads.
  std::mutex ready_mutex_;
  std::vector<std::uint64_t> ready_;
};

}  // namespace apcc::net
