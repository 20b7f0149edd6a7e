#pragma once

#include <atomic>
#include <cstddef>
#include <iostream>
#include <memory>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "net/proto.hpp"

namespace flexrt::net {

/// POSIX socket transport under the wire protocol (net::proto): a
/// connected-fd iostream, a client-side dial(), and the accept-loop server
/// the flexrtd daemon wraps. Everything protocol-shaped stays in proto --
/// this layer only moves bytes and owns fd/thread lifecycles.

/// std::streambuf over a connected socket fd. Reads recv(), writes send()
/// with MSG_NOSIGNAL -- a client that disconnects mid-report surfaces as a
/// failed stream (which JsonlWriter turns into an exception and Session
/// into the end of the session), never as a process-killing SIGPIPE.
/// An EINTR restarts the call; the fd is borrowed, never closed here.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd);

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool flush_out();

  int fd_;
  char in_[8192];
  char out_[8192];
};

/// Bidirectional iostream over a connected socket fd (fd stays owned by
/// the caller). The daemon hands one of these per connection to
/// proto::Session; the remote client drives its dialed fd through one.
class FdStream : public std::iostream {
 public:
  explicit FdStream(int fd);

  int fd() const noexcept { return fd_; }

 private:
  FdStreamBuf buf_;
  int fd_;
};

/// Connects to a flexrtd address and returns the connected fd (caller
/// closes). Address forms:
///   contains '/'      -> unix-domain socket path
///   "host:port"       -> TCP (empty host or "localhost" = 127.0.0.1)
///   ":port" / "port"  -> TCP to 127.0.0.1
/// Throws ModelError when the address is malformed or nothing listens.
int dial(const std::string& address);

struct ServerOptions {
  /// Unix-domain listening socket path; non-empty selects unix transport.
  std::string socket_path;
  /// TCP listening port; >= 0 selects TCP on the loopback: 127.0.0.1, and
  /// ::1 on the same port where the host has an IPv6 loopback (0 =
  /// kernel-assigned ephemeral port, read back via tcp_port()). Exactly one
  /// transport must be set.
  int port = -1;
  /// Per-line byte cap handed to each session (hostile-input bound).
  std::size_t max_line = proto::kMaxLineBytes;
};

/// The flexrtd accept loop: one proto::Session per connection, each on its
/// own thread; a fleet command adds helpers for its own loop only
/// (par::parallel_for), so sessions never wait for each other. stop() drains
/// gracefully -- the listener closes first, then every live session's fd is
/// shutdown(SHUT_RD): a blocked read returns EOF, an in-flight command
/// finishes and writes its rows/status, and the session thread exits. No
/// command is ever cut off mid-reply.
class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and launches the accept thread. Throws ModelError on
  /// bind/listen failure (address in use, bad path).
  void start();

  /// Graceful drain (idempotent): stop accepting, EOF every live session,
  /// join all threads, unlink the unix socket path.
  void stop();

  /// The bound TCP port (after start(); meaningful for TCP transport --
  /// how a port-0 caller learns the kernel's pick).
  int tcp_port() const noexcept { return tcp_port_; }

  /// Why a TCP server listens on 127.0.0.1 alone: empty when it also
  /// listens on ::1 (and for a unix socket).
  const std::string& ipv6_error() const noexcept { return ipv6_error_; }

  const std::string& socket_path() const noexcept {
    return opts_.socket_path;
  }

  /// Connections accepted so far (drained or live).
  std::size_t sessions_served() const noexcept {
    return sessions_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve(Conn& conn);
  /// Joins and closes every finished connection; with `all`, first EOFs
  /// the live ones (stop's drain). Caller must not hold mu_.
  void reap(bool all);
  void wake();

  ServerOptions opts_;
  int listen_fd_ = -1;
  int listen6_fd_ = -1;  ///< [::1]:tcp_port_, when the host has it
  std::string ipv6_error_;
  int wake_read_ = -1;
  int wake_write_ = -1;
  int tcp_port_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::size_t> sessions_served_{0};
  /// Guards the connection registry. The Conn objects themselves are
  /// shared with their session thread through pre-start writes (fd) and
  /// atomics (done); only the vector of registrations -- who exists, who
  /// has been reaped -- needs the lock.
  mutable sys::Mutex mu_;
  std::vector<std::unique_ptr<Conn>> conns_ GUARDED_BY(mu_);
};

}  // namespace flexrt::net
