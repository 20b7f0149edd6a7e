// flexrtd -- the resident analysis daemon.
//
// Serves the net::proto wire protocol (spec in tools/README.md) over a
// unix-domain or TCP socket: each connection gets its own fleet (a
// proto::Session) on its own thread, results stream back in entry order
// with bounded per-client memory, and the reports are byte-identical to the
// offline `flexrt_design` subcommands -- the warm counterpart of forking one
// process per request (the daemon_roundtrip bench row quantifies the
// difference). No worker pool is kept warm: each fleet command starts its
// own helper threads, only when its entries pay for them, and replies once
// every entry it started has finished, so a client that stops reading
// stalls only its own session.
//
// Usage:
//   flexrtd --socket PATH | --port N [--threads N] [--no-memo]
//
//   --socket PATH   listen on a unix-domain socket at PATH
//   --port N        listen on TCP 127.0.0.1:N, and on [::1]:N where the
//                   host has an IPv6 loopback (else stderr says so); 0 =
//                   kernel-assigned, the chosen port is printed on the
//                   listening line
//   --threads N     workers per fleet command, the session's thread
//                   included (sets FLEXRT_THREADS before the first command;
//                   all sessions together run at most N - 1 helpers)
//   --no-memo       accepted and ignored: there is no answer memo, so
//                   every request computes its answer and a session holds
//                   only its fleet and its held engines (ROADMAP 5B
//                   deletes the flag)
//
// On start the daemon prints exactly one line to stdout --
//   flexrtd: listening on unix:PATH   or   flexrtd: listening on tcp:PORT
// -- so wrappers can wait for readiness by reading it.
//
// Shutdown: SIGINT/SIGTERM drain gracefully -- stop accepting, finish every
// in-flight command (its rows and status line go out whole), EOF the
// sessions, unlink the socket, exit 0. No command is ever cut off
// mid-reply; clients see a clean end-of-stream.
//
// Exit status: 0 after a signal-driven drain, 2 on usage or socket errors.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/signals.hpp"
#include "net/proto.hpp"
#include "net/server.hpp"

using namespace flexrt;

namespace {

void usage_text(std::ostream& os) {
  os << "usage: flexrtd --socket PATH | --port N [--threads N] [--no-memo]\n"
        "  --socket PATH  listen on a unix-domain socket\n"
        "  --port N       listen on TCP 127.0.0.1:N (0 = ephemeral)\n"
        "  --threads N    workers per fleet command (FLEXRT_THREADS)\n"
        "  --no-memo      accepted and ignored (there is no answer memo)\n"
        "serves the flexrt_design wire protocol (see tools/README.md);\n"
        "SIGINT/SIGTERM drain in-flight commands and exit 0\n";
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGINT:
      return "SIGINT";
    case SIGTERM:
      return "SIGTERM";
    default:
      return "signal";
  }
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions opts;
  long threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--help" || a == "-h") {
      usage_text(std::cout);
      return 0;
    }
    if (a == "--socket") {
      const char* v = next();
      if (!v || !*v) {
        usage_text(std::cerr);
        return 2;
      }
      opts.socket_path = v;
    } else if (a == "--port") {
      const char* v = next();
      char* end = nullptr;
      const long port = v ? std::strtol(v, &end, 10) : -1;
      if (!v || !*v || *end || port < 0 || port > 65535) {
        usage_text(std::cerr);
        return 2;
      }
      opts.port = static_cast<int>(port);
    } else if (a == "--threads") {
      const char* v = next();
      char* end = nullptr;
      threads = v ? std::strtol(v, &end, 10) : 0;
      if (!v || !*v || *end || threads <= 0) {
        usage_text(std::cerr);
        return 2;
      }
    } else if (a != "--no-memo") {
      std::cerr << "flexrtd: unknown flag '" << a << "'\n";
      usage_text(std::cerr);
      return 2;
    }
  }
  if (opts.socket_path.empty() == (opts.port < 0)) {
    usage_text(std::cerr);
    return 2;
  }
  if (threads > 0) {
    // Must land before the first analysis runs: par::thread_count() reads
    // the variable once per process.
    ::setenv("FLEXRT_THREADS", std::to_string(threads).c_str(), 1);
  }

  sys::install_stop_signals();
  try {
    net::Server server(opts);
    server.start();
    if (!opts.socket_path.empty()) {
      std::cout << "flexrtd: listening on unix:" << opts.socket_path << "\n"
                << std::flush;
    } else {
      std::cout << "flexrtd: listening on tcp:" << server.tcp_port() << "\n"
                << std::flush;
      if (!server.ipv6_error().empty()) {
        std::cerr << "flexrtd: [::1]:" << server.tcp_port() << ": "
                  << server.ipv6_error() << " -- serving 127.0.0.1 only\n";
      }
    }
    while (!sys::stop_requested().load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "flexrtd: " << signal_name(sys::stop_signal())
              << " -- draining\n";
    server.stop();
    std::cerr << "flexrtd: served " << server.sessions_served()
              << " session(s), exiting\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "flexrtd: error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "flexrtd: error: " << e.what() << "\n";
    return 2;
  }
}
