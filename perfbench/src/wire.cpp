// Closed-loop wire clients against a running flexrtd, then the
// byte-identity gate: every recorded reply is compared with the same
// command run through an in-process proto::Session (memo off; run.py
// starts this process at FLEXRT_THREADS=1), outside the timed window.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/proto.hpp"
#include "perfbench.hpp"
#include "svc/jsonl.hpp"
#include "svc/memo_cache.hpp"

namespace perfbench {

namespace {

constexpr int kTimeoutS = 60;

/// The paper's Table 2 row (b) (min-overhead EDF design at O_tot = 0.05)
/// and the 1e-3 tolerance its reproduction test uses.
constexpr double kPaperP = 2.966, kPaperQft = 0.820, kPaperQfs = 1.281,
                 kPaperQnf = 0.815, kPaperTol = 1e-3;

/// One request as sent and answered.
struct Record {
  std::size_t conn = 0;   ///< connection id (replay groups by it)
  std::string kind;       ///< add, solve, minq, verify, sweep, status, drop
  std::string line;       ///< the command line
  std::string body;       ///< add payload lines (incl. the "." terminator)
  std::string reply;      ///< every reply line, '\n'-terminated
  double lat_ms = 0.0;
  bool ok = false;        ///< ok status line with the expected rc
  std::string why;        ///< failure reason when !ok
  std::size_t bytes_out = 0, bytes_in = 0;
  bool paper = false;     ///< the paper example's solve
};

/// One TCP connection speaking the line protocol (the benchmark's own
/// framing code, independent of the program's net layer).
class Conn {
 public:
  ~Conn() { close(); }

  bool open(int port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{kTimeoutS, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close();
      return false;
    }
    buf_.clear();
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool alive() const { return fd_ >= 0; }

  /// Sends `payload` and reads reply lines up to the status line. Fills
  /// rec.reply/bytes/lat_ms; returns the parsed rc (2 for `error`), or -1
  /// when the connection dropped or timed out (rec.why says which).
  int exchange(const std::string& payload, Record& rec) {
    const Clock::time_point t0 = Clock::now();
    rec.bytes_out = payload.size();
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + sent, payload.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        rec.why = "send failed";
        return -1;
      }
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        rec.bytes_in += nl + 1;
        rec.reply += line;
        rec.reply += '\n';
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.rfind("ok rc=", 0) == 0) {
          rec.lat_ms = ms_between(t0, Clock::now());
          return std::atoi(line.c_str() + 6);
        }
        if (line == "error" || line.rfind("error ", 0) == 0) {
          rec.lat_ms = ms_between(t0, Clock::now());
          rec.why = line;
          return 2;
        }
        continue;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      rec.why = (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                    ? "timeout"
                    : "connection dropped";
      return -1;
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct ClientLog {
  std::vector<Record> records;
  std::size_t cycles_done = 0;
};

/// Runs one request; on a drop/timeout the connection is re-opened (a new
/// session, so a new conn id) before the next request.
bool request(Conn& conn, int port, std::size_t& conn_id,
             std::size_t& next_conn_id, ClientLog& log, std::string kind,
             const std::string& line, const std::string& body = {},
             int expect_rc = 0) {
  if (!conn.alive()) {
    if (!conn.open(port)) {
      Record r;
      r.kind = std::move(kind);
      r.why = "connect failed";
      r.lat_ms = INFINITY;
      log.records.push_back(std::move(r));
      return false;
    }
    conn_id = next_conn_id++;
  }
  Record r;
  r.conn = conn_id;
  r.kind = std::move(kind);
  r.line = line;
  r.body = body;
  const int rc = conn.exchange(line + "\n" + body, r);
  if (rc < 0) conn.close();
  r.ok = rc == expect_rc;
  if (!r.ok) {
    if (r.why.empty()) r.why = "unexpected rc=" + std::to_string(rc);
    r.lat_ms = INFINITY;  // a failed request misses every latency limit
  }
  log.records.push_back(std::move(r));
  return log.records.back().ok;
}

/// The first data row of a reply (the solve row).
std::string first_row(const std::string& reply) {
  const std::size_t nl = reply.find('\n');
  const std::string row = reply.substr(0, nl);
  return !row.empty() && row[0] == '{' ? row : std::string();
}

/// A client's cycles, drawn before the window opens (drawing runs the
/// generator and a feasibility probe, which must not load the host while
/// the daemon is measured); the stream continues on the fly should a
/// client outrun the buffer.
struct Prepared {
  explicit Prepared(LightStream s, std::size_t n) : stream(std::move(s)) {
    for (std::size_t i = 0; i < n; ++i) cycles.push_back(stream.next());
  }
  Cycle next() {
    if (at < cycles.size()) return cycles[at++];
    return stream.next();
  }
  LightStream stream;
  std::vector<Cycle> cycles;
  std::size_t at = 0;
};

void light_client(int port, Prepared& stream, Clock::time_point deadline,
                  std::size_t conn_base, ClientLog& log) {
  Conn conn;
  std::size_t conn_id = 0, next_conn_id = conn_base;
  const std::string ov = overhead_flag();
  while (Clock::now() < deadline) {
    const Cycle c = stream.next();
    auto req = [&](const char* kind, const std::string& line,
                   const std::string& body = {}) {
      if (Clock::now() >= deadline) return false;
      return request(conn, port, conn_id, next_conn_id, log, kind, line, body);
    };
    bool ok = req("add", "add " + c.name, c.text + ".\n");
    if (ok) ok = req("solve", "solve --overhead " + ov);
    std::string period, qft, qfs, qnf;
    if (ok) {
      Record& solve = log.records.back();
      solve.paper = c.system == 0;
      const std::string row = first_row(solve.reply);
      period = number_text(row, "period");
      qft = number_text(row, "q_ft");
      qfs = number_text(row, "q_fs");
      qnf = number_text(row, "q_nf");
      if (period.empty() || qft.empty() || qfs.empty() || qnf.empty()) {
        solve.ok = false;
        solve.why = "solve reply without a design";
        solve.lat_ms = INFINITY;
        ok = false;
      }
    }
    if (ok) ok = req("minq", "minq --period " + period);
    if (ok) {
      ok = req("verify", "verify --period " + period + " --quanta " + qft +
                             "," + qfs + "," + qnf + " --overhead " + ov);
    }
    if (ok) ok = req("sweep", "sweep");
    if (ok) ok = req("status", "status");
    // Always reset the session's fleet, even after a failed step (unless
    // the window closed or the connection is gone).
    if (Clock::now() < deadline && conn.alive()) {
      const bool dropped = req("drop", "drop");
      if (ok && dropped) ++log.cycles_done;
    }
  }
}

std::map<std::string, double> memo_status(int port) {
  std::map<std::string, double> out;
  Conn conn;
  if (!conn.open(port)) return out;
  Record r;
  if (conn.exchange("status --memo\n", r) != 0) return out;
  const std::string row = first_row(r.reply);
  for (const char* k : {"memo_hits", "memo_misses"}) {
    if (const auto v = flexrt::svc::json_number_field(row, k)) out[k] = *v;
  }
  return out;
}

/// Reference replay of one connection's records; marks mismatches failed.
std::size_t replay(std::vector<Record*>& recs) {
  std::ostringstream out;
  flexrt::net::proto::Session session(out);
  std::size_t mismatches = 0;
  for (Record* r : recs) {
    out.str("");
    std::istringstream body(r->body);
    bool quit = false;
    session.handle_line(r->line, body, quit);
    if (!r->ok) continue;  // already failed on the wire
    const std::string want = mask_threads(out.str());
    const std::string got = mask_threads(r->reply);
    if (want != got) {
      std::size_t at = 0;
      while (at < want.size() && at < got.size() && want[at] == got[at]) ++at;
      const std::size_t from = at < 80 ? 0 : at - 80;
      r->ok = false;
      r->why = "reply differs from the in-process reference at byte " +
               std::to_string(at) + " (`" + r->line + "`): wire ..." +
               got.substr(from, 160) + " | reference ..." +
               want.substr(from, 160);
      r->lat_ms = INFINITY;
      ++mismatches;
    }
  }
  return mismatches;
}

bool paper_matches(const std::string& reply) {
  const std::string row = first_row(reply);
  const auto near = [&](const char* key, double want) {
    const std::optional<double> v = flexrt::svc::json_number_field(row, key);
    return v && std::fabs(*v - want) <= kPaperTol;
  };
  return near("period", kPaperP) && near("q_ft", kPaperQft) &&
         near("q_fs", kPaperQfs) && near("q_nf", kPaperQnf);
}

}  // namespace

int run_wire(const std::map<std::string, std::string>& opts) {
  const int port = std::atoi(opts.at("port").c_str());
  const std::string workload = opts.at("workload");
  const std::uint64_t seed = std::strtoull(opts.at("seed").c_str(), nullptr, 10);
  const double seconds = std::atof(opts.at("seconds").c_str());
  if (workload == "status_probe") {
    // `status` round trips on an otherwise idle daemon: the transport cost
    // a workload without wire traffic would pay per request.
    Conn conn;
    if (!conn.open(port)) return 1;
    std::vector<double> lat;
    for (int i = 0; i < 200; ++i) {
      Record r;
      if (conn.exchange("status\n", r) != 0) return 1;
      lat.push_back(r.lat_ms);
    }
    const std::span<const double> all(lat);
    std::ofstream(opts.at("out"))
        << flexrt::svc::JsonRow().field("lat_status", all).str() << "\n";
    return 0;
  }
  if (workload != "wire_interactive") {
    std::cerr << "perfbench wire: unknown workload " << workload << "\n";
    return 2;
  }
  constexpr std::size_t kClients = 3;

  std::vector<ClientLog> logs(kClients);
  std::vector<Prepared> streams;
  for (std::size_t k = 0; k < kClients; ++k) {
    streams.emplace_back(LightStream(seed, k, kClients),
                         static_cast<std::size_t>(8 + 6 * seconds));
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kClients; ++k) {
      threads.emplace_back(light_client, port, std::ref(streams[k]), deadline,
                           1000 * (k + 1), std::ref(logs[k]));
    }
    for (std::thread& t : threads) t.join();
  }
  const double window_s = ms_between(start, Clock::now()) / 1000.0;
  const std::map<std::string, double> memo = memo_status(port);

  // --- byte-identity gate (outside the timed window) ---
  flexrt::svc::global_memo().set_enabled(false);
  const Clock::time_point ref0 = Clock::now();
  std::map<std::size_t, std::vector<Record*>> by_conn;
  for (ClientLog& log : logs) {
    for (Record& r : log.records) {
      if (!r.line.empty()) by_conn[r.conn].push_back(&r);
    }
  }
  std::size_t mismatches = 0;
  for (auto& [id, recs] : by_conn) mismatches += replay(recs);
  std::size_t paper_checked = 0, paper_bad = 0;
  for (ClientLog& log : logs) {
    for (Record& r : log.records) {
      if (!r.paper || !r.ok) continue;
      ++paper_checked;
      if (!paper_matches(r.reply)) {
        ++paper_bad;
        r.ok = false;
        r.why = "paper example solve differs from the published design";
        r.lat_ms = INFINITY;
      }
    }
  }
  const double ref_s = ms_between(ref0, Clock::now()) / 1000.0;

  std::map<std::string, std::vector<double>> lat;
  std::size_t attempted = 0, ok = 0, cycles = 0, bytes = 0;
  std::string failures;  // '\n'-separated, at most 8
  std::size_t listed = 0;
  for (const ClientLog& log : logs) {
    cycles += log.cycles_done;
    for (const Record& r : log.records) {
      ++attempted;
      ok += r.ok ? 1 : 0;
      bytes += r.bytes_in + r.bytes_out;
      lat["lat_" + r.kind].push_back(r.lat_ms);
      if (!r.ok && listed++ < 8) {
        failures += r.kind + " on conn " + std::to_string(r.conn) + ": " +
                    r.why + "\n";
      }
    }
  }
  // One flat row: latency arrays carry a failed request as null (+inf).
  flexrt::svc::JsonRow row;
  row.field("window_s", window_s);
  for (const auto& [kind, v] : lat) row.field(kind, std::span<const double>(v));
  row.field("attempted", attempted)
      .field("ok", ok)
      .field("bytes", bytes)
      .field("cycles_done", cycles);
  for (const auto& [k, v] : memo) row.field(k, v);
  row.field("ref_mismatches", mismatches)
      .field("paper_checked", paper_checked)
      .field("paper_bad", paper_bad)
      .field("ref_seconds", ref_s)
      .field("failures", failures);
  std::ofstream(opts.at("out")) << row.str() << "\n";
  return 0;
}

}  // namespace perfbench
