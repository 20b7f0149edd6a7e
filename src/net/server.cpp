#include "net/server.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace flexrt::net {

namespace {

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

std::string errno_text() { return std::strerror(errno); }

int unix_socket(const std::string& path, bool listen_side) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) {
    throw ModelError("socket path too long: " + path);
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw ModelError("socket: " + errno_text());
  if (listen_side) {
    // A previous daemon instance's stale socket file would fail the bind;
    // the path is daemon-owned by convention, so replace it.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string err = errno_text();
      close_quiet(fd);
      throw ModelError("bind " + path + ": " + err);
    }
  } else {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string err = errno_text();
      close_quiet(fd);
      throw ModelError("connect " + path + ": " + err);
    }
  }
  return fd;
}

/// A listening TCP socket on [::1]:port that takes IPv6 only (127.0.0.1
/// has its own socket), or -1 with `err` set when the host gives none.
int loopback6_listener(int port, std::string& err) {
  const int fd = ::socket(AF_INET6, SOCK_STREAM, 0);
  if (fd < 0) {
    err = errno_text();
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::setsockopt(fd, IPPROTO_IPV6, IPV6_V6ONLY, &one, sizeof(one));
  sockaddr_in6 sa{};
  sa.sin6_family = AF_INET6;
  sa.sin6_addr = in6addr_loopback;
  sa.sin6_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, 64) != 0) {
    err = errno_text();
    close_quiet(fd);
    return -1;
  }
  return fd;
}

}  // namespace

// --- FdStreamBuf / FdStream ------------------------------------------------

FdStreamBuf::FdStreamBuf(int fd) : fd_(fd) {
  setg(in_, in_, in_);
  setp(out_, out_ + sizeof(out_));
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  // A session reads only after writing its previous reply, but flush
  // anyway: a protocol that ever pipelines must not deadlock on a full
  // write buffer while waiting for the next command.
  if (!flush_out()) return traits_type::eof();
  ssize_t n;
  do {
    n = ::recv(fd_, in_, sizeof(in_), 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return traits_type::eof();
  setg(in_, in_, in_ + n);
  return traits_type::to_int_type(*gptr());
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (!flush_out()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreamBuf::sync() { return flush_out() ? 0 : -1; }

bool FdStreamBuf::flush_out() {
  const char* p = pbase();
  std::size_t left = static_cast<std::size_t>(pptr() - pbase());
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  setp(out_, out_ + sizeof(out_));
  return true;
}

FdStream::FdStream(int fd) : std::iostream(nullptr), buf_(fd), fd_(fd) {
  rdbuf(&buf_);
}

// --- dial ------------------------------------------------------------------

int dial(const std::string& address) {
  if (address.empty()) throw ModelError("empty server address");
  if (address.find('/') != std::string::npos) {
    return unix_socket(address, /*listen_side=*/false);
  }
  std::string host = "127.0.0.1";
  std::string port = address;
  const std::size_t colon = address.rfind(':');
  if (colon != std::string::npos) {
    host = address.substr(0, colon);
    port = address.substr(colon + 1);
    if (host.empty() || host == "localhost") host = "127.0.0.1";
  }
  if (port.empty() ||
      port.find_first_not_of("0123456789") != std::string::npos) {
    throw ModelError("bad server address '" + address +
                     "' (expected a socket path, host:port, or port)");
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (gai != 0) {
    throw ModelError("resolve " + host + ": " + ::gai_strerror(gai));
  }
  int fd = -1;
  std::string err = "no address";
  for (const addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      err = errno_text();
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err = errno_text();
    close_quiet(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) throw ModelError("connect " + address + ": " + err);
  return fd;
}

// --- Server ----------------------------------------------------------------

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {}

Server::~Server() { stop(); }

void Server::start() {
  FLEXRT_REQUIRE(!started_.load(), "server already started");
  FLEXRT_REQUIRE(opts_.socket_path.empty() != (opts_.port < 0),
                 "exactly one of socket_path / port must be set");
  if (!opts_.socket_path.empty()) {
    listen_fd_ = unix_socket(opts_.socket_path, /*listen_side=*/true);
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw ModelError("socket: " + errno_text());
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(static_cast<uint16_t>(opts_.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      const std::string err = errno_text();
      close_quiet(listen_fd_);
      listen_fd_ = -1;
      throw ModelError("bind port " + std::to_string(opts_.port) + ": " + err);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    tcp_port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string err = errno_text();
    close_quiet(listen_fd_);
    listen_fd_ = -1;
    throw ModelError("listen: " + err);
  }
  if (opts_.socket_path.empty()) {
    // net::dial resolves either family, so ::1 gets the port 127.0.0.1
    // got; a host without an IPv6 loopback is served over IPv4 alone.
    ipv6_error_.clear();
    listen6_fd_ = loopback6_listener(tcp_port_, ipv6_error_);
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    close_quiet(listen_fd_);
    close_quiet(listen6_fd_);
    listen_fd_ = listen6_fd_ = -1;
    throw ModelError("pipe: " + errno_text());
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  stopping_.store(false);
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wake() {
  if (wake_write_ >= 0) {
    const char byte = 'w';
    ssize_t n;
    do {
      n = ::write(wake_write_, &byte, 1);
    } while (n < 0 && errno == EINTR);
  }
}

void Server::accept_loop() {
  // The wake pipe, then each listener (a negative fd is skipped by poll).
  for (;;) {
    pollfd fds[3] = {{wake_read_, POLLIN, 0},
                     {listen_fd_, POLLIN, 0},
                     {listen6_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 3, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) {
      char buf[64];
      ssize_t n;
      do {
        n = ::read(wake_read_, buf, sizeof(buf));
      } while (n < 0 && errno == EINTR);
    }
    if (stopping_.load(std::memory_order_relaxed)) break;
    reap(/*all=*/false);
    bool listener_gone = false;
    for (const pollfd& listener : {fds[1], fds[2]}) {
      if (listener.fd < 0 || listener.revents == 0) continue;
      const int fd = ::accept(listener.fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        listener_gone = true;  // stop() raced us
        break;
      }
      sessions_served_.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_unique<Conn>();
      Conn* raw = conn.get();
      raw->fd = fd;
      sys::MutexLock lock(mu_);
      conns_.push_back(std::move(conn));
      raw->thread = std::thread([this, raw] { serve(*raw); });
    }
    if (listener_gone) break;
  }
}

void Server::serve(Conn& conn) {
  {
    FdStream stream(conn.fd);
    proto::Session session(stream, opts_.max_line);
    session.run(stream);
  }
  conn.done.store(true, std::memory_order_release);
  wake();  // let the accept loop reap us promptly
}

void Server::reap(bool all) {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    sys::MutexLock lock(mu_);
    if (all) {
      // Graceful drain: EOF every live session's read side. The session
      // thread finishes the command in flight (rows + status line go out
      // whole), then its next read returns EOF and it exits. The fd itself
      // is closed only after the join below -- no fd reuse races.
      for (const auto& conn : conns_) {
        if (!conn->done.load(std::memory_order_acquire)) {
          ::shutdown(conn->fd, SHUT_RD);
        }
      }
      finished.swap(conns_);
    } else {
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          finished.push_back(std::move(*it));
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
    close_quiet(conn->fd);
  }
}

void Server::stop() {
  if (!started_.exchange(false)) return;
  stopping_.store(true, std::memory_order_relaxed);
  wake();
  if (accept_thread_.joinable()) accept_thread_.join();
  close_quiet(listen_fd_);
  close_quiet(listen6_fd_);
  listen_fd_ = listen6_fd_ = -1;
  if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
  reap(/*all=*/true);
  close_quiet(wake_read_);
  close_quiet(wake_write_);
  wake_read_ = wake_write_ = -1;
}

}  // namespace flexrt::net
