#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/assert.hpp"

namespace apcc::net {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  APCC_CHECK(false, what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  APCC_CHECK(inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
             "not an IPv4 address: '" + host + "'");
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    // EINTR on close is not retried: POSIX leaves the fd state
    // unspecified and Linux has already released it.
    ::close(fd_);
    fd_ = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail_errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
}

Fd listen_tcp(const std::string& host, std::uint16_t port,
              std::uint16_t* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    fail_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    fail_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), SOMAXCONN) < 0) fail_errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual),
                      &len) < 0) {
      fail_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  set_nonblocking(fd.get());
  return fd;
}

Fd accept_client(int listen_fd, bool* exhausted) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      // Nothing usable right now -- an aborted handshake is a
      // non-event, not a server error.
      return Fd();
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Out of fds or memory: a condition of the moment (sessions
      // closing free both), not a reason to stop serving the others.
      if (exhausted != nullptr) *exhausted = true;
      return Fd();
    }
    fail_errno("accept");
  }
  Fd client(fd);
  // Result records go out as soon as they are ready; Nagle would hold a
  // short write back until the client's delayed ACK.
  const int one = 1;
  if (::setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof(one)) < 0) {
    fail_errno("setsockopt(TCP_NODELAY)");
  }
  set_nonblocking(client.get());
  return client;
}

Fd connect_tcp(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket");
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    fail_errno("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

}  // namespace apcc::net
