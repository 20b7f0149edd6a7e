// The flexrtd socket server: unix-domain and TCP transports serve the same
// protocol Session the stringstream tests pin down, concurrent clients get
// byte-identical streams to a serial in-process run (per-client fleets),
// a client that stops reading stalls no other session, graceful stop
// drains connected clients without hanging, and the socket file is
// unlinked on shutdown.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/proto.hpp"
#include "net/server.hpp"

namespace flexrt::net {
namespace {

using namespace std::chrono_literals;

/// A short per-client task file: one NF task whose period varies by client
/// id, so every client's report is distinct and cross-talk would show.
std::string client_tasks(int id) {
  std::ostringstream os;
  os << "a 1 " << (6 + id) << " NF 0\n"
     << "b 1 12 FS 0\n"
     << "c 1 15 FT 0\n";
  return os.str();
}

std::string client_script(int id) {
  return "add client" + std::to_string(id) + "\n" + client_tasks(id) +
         ".\nsolve\nstatus\nquit\n";
}

/// The reference bytes: the same script run serially over stringstreams.
std::string serial_reference(int id) {
  std::istringstream in(client_script(id));
  std::ostringstream out;
  proto::Session session(out);
  session.run(in);
  return out.str();
}

/// Sends `script` over the connection and reads to EOF.
std::string roundtrip(int fd, const std::string& script) {
  FdStream io(fd);
  io << script << std::flush;
  std::ostringstream got;
  got << io.rdbuf();
  return got.str();
}

std::string temp_socket_path(const char* tag) {
  return testing::TempDir() + "flexrt_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(NetServer, UnixSocketServesTheProtocol) {
  const std::string path = temp_socket_path("unix");
  ServerOptions opts;
  opts.socket_path = path;
  Server server(opts);
  server.start();

  const int fd = dial(path);
  const std::string got = roundtrip(fd, client_script(0));
  ::close(fd);
  EXPECT_EQ(got, serial_reference(0));

  server.stop();
  EXPECT_EQ(server.sessions_served(), 1u);
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "stop() must unlink the unix socket";
}

TEST(NetServer, TcpEphemeralPortServesTheProtocol) {
  ServerOptions opts;
  opts.port = 0;  // kernel-assigned
  Server server(opts);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  const int fd = dial("127.0.0.1:" + std::to_string(server.tcp_port()));
  const std::string got = roundtrip(fd, client_script(1));
  ::close(fd);
  EXPECT_EQ(got, serial_reference(1));
  server.stop();
}

/// Whether this host can listen on [::1].
bool has_ipv6_loopback() {
  const int fd = ::socket(AF_INET6, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in6 sa{};
  sa.sin6_family = AF_INET6;
  sa.sin6_addr = in6addr_loopback;
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0;
  ::close(fd);
  return ok;
}

// A TCP daemon answers on ::1 at the port 127.0.0.1 got, so an address
// that resolves to either family reaches it.
TEST(NetServer, TcpServesTheIpv6LoopbackToo) {
  if (!has_ipv6_loopback()) GTEST_SKIP() << "no IPv6 loopback on this host";
  ServerOptions opts;
  opts.port = 0;
  Server server(opts);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  EXPECT_EQ(server.ipv6_error(), "");
  const std::string port = std::to_string(server.tcp_port());
  for (const std::string& host : {"::1", "127.0.0.1"}) {
    const int fd = dial(host + ":" + port);
    const std::string got = roundtrip(fd, client_script(2));
    ::close(fd);
    EXPECT_EQ(got, serial_reference(2)) << host;
  }
  server.stop();
  EXPECT_EQ(server.sessions_served(), 2u);
}

TEST(NetServer, DialRejectsMalformedAddresses) {
  EXPECT_THROW(dial(""), Error);
  EXPECT_THROW(dial("not a port"), Error);
  EXPECT_THROW(dial("host:"), Error);
}

TEST(NetServer, ConcurrentClientsGetSerialIdenticalStreams) {
  ServerOptions opts;
  opts.port = 0;
  Server server(opts);
  server.start();
  const std::string addr = std::to_string(server.tcp_port());

  constexpr int kClients = 8;
  std::vector<std::string> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = dial(addr);
      got[c] = roundtrip(fd, client_script(c));
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], serial_reference(c))
        << "client " << c << "'s stream must not see its neighbours";
  }
  server.stop();
  EXPECT_EQ(server.sessions_served(), static_cast<std::size_t>(kClients));
}

/// Reads `fd` until `want` status lines have arrived or `limit` has passed,
/// never blocking past the limit; returns the bytes that arrived.
std::string read_statuses(int fd, int want, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  std::string got;
  std::size_t scanned = 0;
  int seen = 0;
  while (seen < want) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    got.append(buf, static_cast<std::size_t>(r));
    for (std::size_t nl; (nl = got.find('\n', scanned)) != std::string::npos;
         scanned = nl + 1) {
      if (proto::parse_status_line(got.substr(scanned, nl - scanned))) ++seen;
    }
  }
  return got;
}

TEST(NetServer, ClientThatStopsReadingDoesNotStallOtherSessions) {
  const std::string path = temp_socket_path("stall");
  ServerOptions opts;
  opts.socket_path = path;
  Server server(opts);
  server.start();

  // A asks for a fleet whose rows far outgrow the socket buffers and never
  // reads them: its session's writes block with its fleet loop mid-way.
  const int a = dial(path);
  const std::string a_cmds = "gen-fleet --trials 5000\nsolve --study\n";
  ASSERT_EQ(::send(a, a_cmds.data(), a_cmds.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(a_cmds.size()));
  // Rows past the gen-fleet status line mean A's fleet loop is running.
  const auto a_deadline = std::chrono::steady_clock::now() + 10s;
  int pending = 0;
  while (::ioctl(a, FIONREAD, &pending) == 0 && pending < 4096 &&
         std::chrono::steady_clock::now() < a_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(pending, 4096);

  // B's small fleet must answer while A stays stalled.
  const int b = dial(path);
  const std::string b_cmds = "gen-fleet --trials 4\nsolve --study\n";
  ASSERT_EQ(::send(b, b_cmds.data(), b_cmds.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(b_cmds.size()));
  const std::string got = read_statuses(b, 2, 10s);
  EXPECT_NE(got.find("\nok rc=0\n"), std::string::npos)
      << "B got no answer while A stopped reading:\n" << got;

  // Closing A fails its blocked write; only then can stop() join A.
  ::close(a);
  ::close(b);
  server.stop();
}

TEST(NetServer, StopDrainsConnectedIdleClientsWithoutHanging) {
  const std::string path = temp_socket_path("drain");
  ServerOptions opts;
  opts.socket_path = path;
  Server server(opts);
  server.start();

  // An idle client sitting in the middle of a session: one command done,
  // no quit. stop() must EOF it (SHUT_RD), not wait forever.
  const int fd = dial(path);
  {
    FdStream io(fd);
    io << "status\n" << std::flush;
    std::string line;
    bool saw_ok = false;
    while (std::getline(io, line)) {
      if (const auto st = proto::parse_status_line(line)) {
        EXPECT_FALSE(st->failed);
        saw_ok = true;
        break;
      }
    }
    EXPECT_TRUE(saw_ok);

    std::atomic<bool> stopped{false};
    std::thread stopper([&] {
      server.stop();
      stopped.store(true);
    });
    // The client's next read sees a clean end-of-stream.
    while (std::getline(io, line)) {
    }
    stopper.join();
    EXPECT_TRUE(stopped.load());
  }
  ::close(fd);
}

TEST(NetServer, StopIsIdempotentAndRestartable) {
  ServerOptions opts;
  opts.port = 0;
  {
    Server server(opts);
    server.start();
    server.stop();
    server.stop();  // second stop is a no-op
    // A fresh start on the same object serves again.
    server.start();
    const int fd = dial(std::to_string(server.tcp_port()));
    const std::string got = roundtrip(fd, "status\nquit\n");
    ::close(fd);
    EXPECT_NE(got.find("\"kind\":\"status\""), std::string::npos);
  }  // destructor stops the restarted server
}

}  // namespace
}  // namespace flexrt::net
