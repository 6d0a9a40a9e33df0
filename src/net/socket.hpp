// POSIX socket plumbing for the TCP front door: an RAII fd and the
// three operations net::Server needs (listen, accept, nonblocking
// mode). Deliberately tiny -- IPv4 only, no name resolution (hosts are
// dotted quads: the front door binds loopback by default and tests
// never want a DNS dependency) -- so the interesting state machine
// lives in server.cpp, not here.
#pragma once

#include <cstdint>
#include <string>

namespace apcc::net {

/// Owning file descriptor: closes on destruction, move-only. -1 means
/// empty (moved-from / not yet opened / failed accept).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Close now (idempotent).
  void reset();

 private:
  int fd_ = -1;
};

/// Bind and listen a nonblocking TCP socket on `host:port` (IPv4
/// dotted quad; port 0 asks the kernel for an ephemeral port).
/// `bound_port` receives the actual port -- how callers learn an
/// ephemeral choice. SO_REUSEADDR is set so restarts do not trip over
/// TIME_WAIT. Throws CheckError with errno text on failure.
[[nodiscard]] Fd listen_tcp(const std::string& host, std::uint16_t port,
                            std::uint16_t* bound_port);

/// One nonblocking accept on `listen_fd`: the connection (already
/// nonblocking, with TCP_NODELAY set) or an empty Fd when none can be
/// taken now. That covers no pending connection (EAGAIN/EWOULDBLOCK)
/// and, setting `*exhausted` when given, the process or system running
/// out of fds or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM): the
/// connection stays in the backlog until the caller retries. Throws
/// CheckError on other accept failures.
[[nodiscard]] Fd accept_client(int listen_fd, bool* exhausted = nullptr);

/// O_NONBLOCK on an existing fd. Throws CheckError on failure.
void set_nonblocking(int fd);

/// Connect a blocking TCP client socket to `host:port` (IPv4 dotted
/// quad). Test plumbing for loopback round-trips; the server side
/// never calls it. Throws CheckError on failure.
[[nodiscard]] Fd connect_tcp(const std::string& host, std::uint16_t port);

}  // namespace apcc::net
