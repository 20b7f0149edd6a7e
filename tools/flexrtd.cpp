// flexrtd -- the resident analysis daemon.
//
// Keeps one process-wide analysis pool warm and serves the net::proto wire
// protocol (spec in tools/README.md) over a unix-domain or TCP socket: each
// connection gets its own fleet (a proto::Session), results stream back in
// entry order with bounded per-client memory, and the reports are
// byte-identical to the offline `flexrt_design` subcommands -- the warm
// counterpart of forking one process per request (the daemon_roundtrip
// bench row quantifies the difference).
//
// Usage:
//   flexrtd --socket PATH | --port N [--threads N] [--no-memo]
//           [--memo-bytes N]
//
//   --socket PATH   listen on a unix-domain socket at PATH
//   --port N        listen on TCP 127.0.0.1:N (0 = kernel-assigned; the
//                   chosen port is printed on the listening line)
//   --threads N     analysis pool width (sets FLEXRT_THREADS before the
//                   pool spins up)
//   --no-memo       disable the process-wide answer memo (svc::MemoCache);
//                   every request recomputes
//   --memo-bytes N  cap the answer memo at N bytes (default
//                   svc::MemoCache::kDefaultCapacityBytes); sessions share
//                   the cache, so a fleet solved by one client is a lookup
//                   for every later client
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
#include "svc/memo_cache.hpp"

using namespace flexrt;

namespace {

void usage_text(std::ostream& os) {
  os << "usage: flexrtd --socket PATH | --port N [--threads N]\n"
        "               [--no-memo] [--memo-bytes N]\n"
        "  --socket PATH  listen on a unix-domain socket\n"
        "  --port N       listen on TCP 127.0.0.1:N (0 = ephemeral)\n"
        "  --threads N    analysis pool width (FLEXRT_THREADS)\n"
        "  --no-memo      disable the process-wide answer memo\n"
        "  --memo-bytes N cap the answer memo at N bytes (default "
     << (svc::MemoCache::kDefaultCapacityBytes >> 20)
     << " MiB)\n"
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
    } else if (a == "--no-memo") {
      svc::global_memo().set_enabled(false);
    } else if (a == "--memo-bytes") {
      const char* v = next();
      if (!v || !*v) {
        usage_text(std::cerr);
        return 2;
      }
      try {
        svc::global_memo().set_capacity_bytes(
            net::proto::parse_size("--memo-bytes", v));
      } catch (const Error&) {
        usage_text(std::cerr);
        return 2;
      }
    } else {
      usage_text(std::cerr);
      return 2;
    }
  }
  if (opts.socket_path.empty() == (opts.port < 0)) {
    usage_text(std::cerr);
    return 2;
  }
  if (threads > 0) {
    // Must land before the first analysis runs: the pool reads the
    // variable once, at spin-up.
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
