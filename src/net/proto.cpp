#include "net/proto.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "gen/taskset_gen.hpp"
#include "io/task_io.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"
#include "svc/study_report.hpp"

namespace flexrt::net::proto {

double parse_num(const char* flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos == v.size()) return out;
  } catch (const std::exception&) {
  }
  throw ModelError(std::string(flag) + ": bad number '" + v + "'");
}

std::size_t parse_size(const char* flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const unsigned long long out = std::stoull(v, &pos, 10);
    if (pos == v.size()) return static_cast<std::size_t>(out);
  } catch (const std::exception&) {
  }
  throw ModelError(std::string(flag) + ": bad count '" + v + "'");
}

std::vector<double> parse_num_list(const char* flag, const std::string& spec) {
  std::vector<double> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = spec.find(',', start);
    out.push_back(parse_num(flag, spec.substr(start, comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::array<double, 3> parse_triple(const char* flag, const std::string& spec) {
  const std::vector<double> v = parse_num_list(flag, spec);
  if (v.size() != 3) {
    throw ModelError(std::string(flag) + ": expected three numbers a,b,c, " +
                     "got '" + spec + "'");
  }
  return {v[0], v[1], v[2]};
}

int parse_common_flag(CommonOpts& o, int argc, char** argv, int& i) {
  const std::string a = argv[i];
  const auto next = [&]() -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  if (a == "--alg") {
    const char* v = next();
    if (!v) return 2;
    if (std::strcmp(v, "edf") == 0) {
      o.alg = hier::Scheduler::EDF;
    } else if (std::strcmp(v, "rm") == 0) {
      o.alg = hier::Scheduler::FP;
    } else {
      return 2;
    }
    return 0;
  }
  if (a == "--goal") {
    const char* v = next();
    if (!v) return 2;
    if (std::strcmp(v, "min-overhead") == 0) {
      o.goal = core::DesignGoal::MinOverheadBandwidth;
    } else if (std::strcmp(v, "max-slack") == 0) {
      o.goal = core::DesignGoal::MaxSlackBandwidth;
    } else {
      return 2;
    }
    return 0;
  }
  if (a == "--overhead") {
    const char* v = next();
    if (!v) return 2;
    const auto [ft, fs, nf] = parse_triple("--overhead", v);
    o.overheads = {ft, fs, nf};
    return 0;
  }
  if (a == "--adaptive") {
    const char* v = next();
    if (!v) return 2;
    o.adaptive_tol = parse_num("--adaptive", v);
    return 0;
  }
  if (a == "--budget") {
    const char* v = next();
    if (!v) return 2;
    o.budget = parse_size("--budget", v);
    return 0;
  }
  if (a == "--budget-cap") {
    const char* v = next();
    if (!v) return 2;
    o.budget_cap = parse_size("--budget-cap", v);
    return 0;
  }
  if (a == "--deadline") {
    const char* v = next();
    if (!v) return 2;
    o.deadline_ms = parse_num("--deadline", v);
    return 0;
  }
  if (a == "--jsonl") {
    o.jsonl = true;
    return 0;
  }
  if (a == "--csv") {
    o.csv = true;
    return 0;
  }
  if (a == "--stream") {
    o.stream = true;
    return 0;
  }
  if (a == "--no-wall") {
    o.no_wall = true;
    return 0;
  }
  if (a == "--output") {
    const char* v = next();
    if (!v || !*v) return 2;
    o.output = v;
    return 0;
  }
  if (a == "--resume") {
    o.resume = true;
    return 0;
  }
  if (a == "--retries") {
    const char* v = next();
    if (!v) return 2;
    o.retries = parse_size("--retries", v);
    return 0;
  }
  if (a == "--fsync") {
    o.fsync = true;
    return 0;
  }
  return -1;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::optional<std::string> read_line(std::istream& in, std::size_t max_bytes,
                                     bool* truncated) {
  if (truncated) *truncated = false;
  std::streambuf* sb = in.rdbuf();
  if (!sb || !in.good()) return std::nullopt;
  std::string line;
  bool got = false;
  for (;;) {
    const int c = sb->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      break;
    }
    got = true;
    if (c == '\n') break;
    if (line.size() < max_bytes) {
      line.push_back(static_cast<char>(c));
    } else if (truncated) {
      // Keep consuming to the newline so framing survives the oversized
      // line, but stop storing: bounded memory against hostile input.
      *truncated = true;
    }
  }
  if (!got) return std::nullopt;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

std::optional<WireStatus> parse_status_line(const std::string& line) {
  WireStatus st;
  if (line.rfind("error", 0) == 0 &&
      (line.size() == 5 || line[5] == ' ')) {
    st.failed = true;
    st.rc = 2;
    st.message = line.size() > 6 ? line.substr(6) : "";
    return st;
  }
  if (line.rfind("ok rc=", 0) == 0) {
    const std::string rest = line.substr(6);
    const std::size_t end = rest.find(' ');
    try {
      std::size_t pos = 0;
      const std::string num = rest.substr(0, end);
      st.rc = std::stoi(num, &pos);
      if (pos == num.size() && !num.empty()) return st;
    } catch (const std::exception&) {
    }
  }
  return std::nullopt;
}

namespace {

void reject_offline_flags(const CommonOpts& o) {
  if (o.csv) {
    throw ModelError("--csv is not supported over the wire (rows are JSONL)");
  }
  if (o.journaled() || o.resume || o.retries != 0 || o.fsync) {
    throw ModelError(
        "journal flags (--output/--resume/--retries/--fsync) are offline-only");
  }
}

/// Shared flag loop of every request command: common flags via
/// parse_common_flag, command-specific ones via `extra(raw, argc, i)`,
/// anything else is an error. Bare tokens are rejected too -- wire fleets
/// are built with `add`/`gen-fleet`, never from positional file paths.
template <typename Extra>
void parse_wire_flags(CommonOpts& o, const std::vector<std::string>& args,
                      const Extra& extra) {
  ArgVec av(args);
  const int argc = av.argc();
  char** raw = av.argv();
  for (int i = 0; i < argc; ++i) {
    const std::string a = raw[i];
    const int c = parse_common_flag(o, argc, raw, i);
    if (c == 0) continue;
    if (c == 2) throw ModelError("bad or incomplete flag '" + a + "'");
    if (extra(raw, argc, i)) continue;
    if (!a.empty() && a[0] == '-') throw ModelError("unknown flag '" + a + "'");
    throw ModelError("unexpected argument '" + a +
                     "' (systems are added with `add`, not file paths)");
  }
  reject_offline_flags(o);
}

const auto kNoExtraFlags = [](char**, int, int&) { return false; };

/// One-line sanitizer for `error` status lines: the message must not break
/// the line-oriented framing.
std::string one_line(std::string msg) {
  std::replace(msg.begin(), msg.end(), '\n', ' ');
  std::replace(msg.begin(), msg.end(), '\r', ' ');
  return msg;
}

}  // namespace

Session::Session(std::ostream& out, std::size_t max_line)
    : out_(out),
      max_line_(max_line),
      service_(std::make_unique<svc::AnalysisService>()) {}

Session::~Session() = default;

std::size_t Session::fleet_size() const noexcept { return service_->size(); }

void Session::ok_line(int rc, const std::string& extras) {
  out_ << "ok rc=" << rc;
  if (!extras.empty()) out_ << ' ' << extras;
  out_ << '\n' << std::flush;
}

void Session::error_line(const std::string& message) {
  out_ << "error " << one_line(message) << '\n' << std::flush;
}

void Session::require_fleet() const {
  if (service_->size() == 0) {
    throw ModelError("the fleet is empty -- `add` or `gen-fleet` first");
  }
}

int Session::run(std::istream& in) {
  int rc = 0;
  for (;;) {
    bool truncated = false;
    const std::optional<std::string> line = read_line(in, max_line_, &truncated);
    if (!line) break;
    if (truncated) {
      error_line("line exceeds " + std::to_string(max_line_) +
                 " bytes -- command rejected");
      rc = std::max(rc, 2);
      if (!out_) break;
      continue;
    }
    bool quit = false;
    rc = std::max(rc, handle_line(*line, in, quit));
    if (quit || !out_) break;
  }
  return rc;
}

int Session::handle_line(const std::string& line, std::istream& in,
                         bool& quit) {
  quit = false;
  const std::vector<std::string> tokens = split_tokens(line);
  if (tokens.empty()) return 0;  // blank lines are keep-alive no-ops
  try {
    return dispatch(tokens, in, quit);
  } catch (const Error& e) {
    error_line(e.what());
    return 2;
  } catch (const std::exception& e) {
    error_line(e.what());
    return 2;
  }
}

int Session::dispatch(const std::vector<std::string>& tokens, std::istream& in,
                      bool& quit) {
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "quit") {
    quit = true;
    ok_line(0, "bye");
    return 0;
  }
  if (cmd == "add") return cmd_add(args, in);
  if (cmd == "gen-fleet") return cmd_gen_fleet(args);
  if (cmd == "solve") return cmd_solve(args);
  if (cmd == "minq") return cmd_minq(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "fault-sweep") return cmd_fault_sweep(args);
  if (cmd == "status") return cmd_status(args);
  if (cmd == "drop") {
    service_ = std::make_unique<svc::AnalysisService>();
    generated_ = false;
    study_ = core::StudyOptions{};
    ok_line(0, "fleet=0");
    return 0;
  }
  throw ModelError("unknown command '" + cmd + "'");
}

int Session::cmd_add(const std::vector<std::string>& args, std::istream& in) {
  if (args.size() != 1) {
    throw ModelError("usage: add <name>, then task lines, then a lone '.'");
  }
  const std::string& name = args[0];
  std::string text;
  std::size_t lines = 0;
  for (;;) {
    bool truncated = false;
    const std::optional<std::string> line = read_line(in, max_line_, &truncated);
    if (!line) {
      throw ModelError("add " + name +
                       ": stream ended before the terminating '.'");
    }
    if (truncated) {
      throw ModelError("add " + name + ": task line exceeds " +
                       std::to_string(max_line_) + " bytes");
    }
    if (*line == ".") break;
    if (++lines > kMaxAddLines) {
      throw ModelError("add " + name + ": more than " +
                       std::to_string(kMaxAddLines) + " task lines");
    }
    text += *line;
    text += '\n';
  }
  io::ParsedSystem parsed = io::parse_mode_task_system_string(text);
  service_->add_system(std::move(parsed.system), name);
  generated_ = false;  // the fleet is no longer a pure generated study
  ok_line(0, "fleet=" + std::to_string(service_->size()));
  return 0;
}

int Session::cmd_gen_fleet(const std::vector<std::string>& args) {
  if (service_->size() != 0) {
    throw ModelError(
        "gen-fleet needs an empty fleet (`drop` first): generated studies "
        "must not mix with added systems");
  }
  core::StudyOptions study;  // trials=100, seed=0x5EED -- the study defaults
  ArgVec av(args);
  const int argc = av.argc();
  char** raw = av.argv();
  for (int i = 0; i < argc; ++i) {
    if (core::parse_study_flag(study, argc, raw, i)) continue;
    throw ModelError(std::string("gen-fleet: unknown flag '") + raw[i] + "'");
  }
  service_->add_fleet(
      study, [](std::size_t, Rng& rng) { return gen::study_system(rng); });
  generated_ = true;
  study_ = study;
  ok_line(0, "fleet=" + std::to_string(service_->size()) +
                 " trials=" + std::to_string(study.trials));
  return 0;
}

int Session::cmd_solve(const std::vector<std::string>& args) {
  // --study is discovered before flag parsing so the study defaults
  // (paper's O_tot = 0.05 split evenly) seed CommonOpts exactly like the
  // offline `study` subcommand does.
  const bool study_mode =
      std::find(args.begin(), args.end(), "--study") != args.end();
  CommonOpts o;
  if (study_mode) o.overheads = {0.05 / 3, 0.05 / 3, 0.05 / 3};
  parse_wire_flags(o, args, [](char** raw, int, int& i) {
    return std::strcmp(raw[i], "--study") == 0;
  });
  require_fleet();

  svc::JsonlWriter rows(out_);
  if (study_mode) {
    if (!generated_) {
      throw ModelError("solve --study needs a gen-fleet fleet");
    }
    core::SearchOptions search;
    search.grid_step = 5e-3;  // the offline study subcommand's search grid
    search.p_max = 10.0;
    const svc::SolveRequest req{o.alg, o.overheads, o.goal, search,
                                o.accuracy()};
    svc::StudyAggregate agg;
    service_->solve(req, [&](const svc::SolveResult& r) {
      const std::string row = svc::study_trial_row(r, o.alg, o.goal);
      rows.write(row);
      agg.add(row);
    });
    // Shards emit rows only; the merged/unsharded report owns the summary.
    if (study_.shard.count == 1) rows.write(agg.summary_row());
    ok_line(0);
    return 0;
  }

  const svc::SolveRequest req{o.alg, o.overheads, o.goal, {}, o.accuracy()};
  int rc = 0;
  service_->solve(req, [&](const svc::SolveResult& r) {
    if (!r.ok()) throw ModelError(r.error);
    rows.write(svc::solve_row(r, o.alg, o.goal, /*with_wall=*/false));
    if (!r.feasible) rc = std::max(rc, 1);
  });
  ok_line(rc);
  return rc;
}

int Session::cmd_minq(const std::vector<std::string>& args) {
  CommonOpts o;
  double period = 0.0;
  bool exact_supply = false;
  parse_wire_flags(o, args, [&](char** raw, int argc, int& i) {
    if (std::strcmp(raw[i], "--period") == 0) {
      if (i + 1 >= argc) throw ModelError("--period: missing value");
      period = parse_num("--period", raw[++i]);
      return true;
    }
    if (std::strcmp(raw[i], "--exact-supply") == 0) {
      exact_supply = true;
      return true;
    }
    return false;
  });
  if (period <= 0.0) throw ModelError("minq needs --period P > 0");
  require_fleet();

  const svc::MinQuantumRequest req{o.alg, period, exact_supply, o.accuracy()};
  svc::JsonlWriter rows(out_);
  service_->min_quantum(req, [&](const svc::MinQuantumResult& r) {
    if (!r.ok()) throw ModelError(r.error);
    rows.write(svc::min_quantum_row(r, o.alg, period, /*with_wall=*/false));
  });
  ok_line(0);
  return 0;
}

int Session::cmd_sweep(const std::vector<std::string>& args) {
  CommonOpts o;
  core::SearchOptions search;
  search.p_min = 0.05;  // the offline sweep subcommand's grid
  search.p_max = 3.5;
  search.grid_step = 0.05;
  parse_wire_flags(o, args, [&](char** raw, int argc, int& i) {
    const auto take = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        throw ModelError(std::string(flag) + ": missing value");
      }
      return raw[++i];
    };
    if (std::strcmp(raw[i], "--p-min") == 0) {
      search.p_min = parse_num("--p-min", take("--p-min"));
      return true;
    }
    if (std::strcmp(raw[i], "--p-max") == 0) {
      search.p_max = parse_num("--p-max", take("--p-max"));
      return true;
    }
    if (std::strcmp(raw[i], "--step") == 0) {
      search.grid_step = parse_num("--step", take("--step"));
      return true;
    }
    return false;
  });
  require_fleet();

  const svc::RegionSweepRequest req{o.alg, search, o.accuracy()};
  svc::JsonlWriter rows(out_);
  service_->region_sweep(req, [&](const svc::RegionSweepResult& r) {
    if (!r.ok()) throw ModelError(r.error);
    for (const core::RegionSample& s : r.samples) {
      rows.write(svc::sweep_sample_row(r, o.alg, s));
    }
    rows.write(svc::sweep_summary_row(r, o.alg, /*with_wall=*/false));
  });
  ok_line(0);
  return 0;
}

int Session::cmd_verify(const std::vector<std::string>& args) {
  CommonOpts o;
  double period = 0.0;
  std::array<double, 3> quanta{};
  bool have_quanta = false;
  bool exact_supply = false;
  parse_wire_flags(o, args, [&](char** raw, int argc, int& i) {
    if (std::strcmp(raw[i], "--period") == 0) {
      if (i + 1 >= argc) throw ModelError("--period: missing value");
      period = parse_num("--period", raw[++i]);
      return true;
    }
    if (std::strcmp(raw[i], "--quanta") == 0) {
      if (i + 1 >= argc) throw ModelError("--quanta: expected Q_FT,Q_FS,Q_NF");
      quanta = parse_triple("--quanta", raw[++i]);
      have_quanta = true;
      return true;
    }
    if (std::strcmp(raw[i], "--exact-supply") == 0) {
      exact_supply = true;
      return true;
    }
    return false;
  });
  if (period <= 0.0 || !have_quanta) {
    throw ModelError("verify needs --period P > 0 and --quanta Q_FT,Q_FS,Q_NF");
  }
  require_fleet();

  core::ModeSchedule schedule;
  schedule.period = period;
  schedule.ft = {quanta[0], o.overheads.ft};
  schedule.fs = {quanta[1], o.overheads.fs};
  schedule.nf = {quanta[2], o.overheads.nf};

  svc::JsonlWriter rows(out_);
  int rc = 0;
  service_->verify(
      svc::VerifyRequest{o.alg, schedule, exact_supply, o.accuracy()},
      [&](const svc::VerifyResult& r) {
        if (!r.ok()) throw ModelError(r.error);
        rows.write(svc::verify_row(r, o.alg, period, /*with_wall=*/false));
        if (!r.schedulable) rc = 1;
      });
  ok_line(rc);
  return rc;
}

int Session::cmd_fault_sweep(const std::vector<std::string>& args) {
  CommonOpts o;
  o.overheads = {0.05 / 3, 0.05 / 3, 0.05 / 3};  // paper's O_tot = 0.05
  svc::FaultSweepRequest req;
  req.rates = {0.0, 1e-3, 1e-2, 0.1, 1.0};
  parse_wire_flags(o, args, [&](char** raw, int argc, int& i) {
    if (std::strcmp(raw[i], "--rates") == 0) {
      if (i + 1 >= argc) throw ModelError("--rates: missing value");
      req.rates = parse_num_list("--rates", raw[++i]);
      return true;
    }
    if (std::strcmp(raw[i], "--min-sep") == 0) {
      if (i + 1 >= argc) throw ModelError("--min-sep: missing value");
      req.min_separation = parse_num("--min-sep", raw[++i]);
      return true;
    }
    if (std::strcmp(raw[i], "--no-baselines") == 0) {
      req.with_baselines = false;
      return true;
    }
    if (std::strcmp(raw[i], "--exact-supply") == 0) {
      req.use_exact_supply = true;
      return true;
    }
    return false;
  });
  require_fleet();

  if (generated_) {
    req.search.grid_step = 5e-3;  // the generated-fleet search grid
    req.search.p_max = 10.0;
  }
  req.alg = o.alg;
  req.overheads = o.overheads;
  req.goal = o.goal;
  req.accuracy = o.accuracy();

  svc::JsonlWriter rows(out_);
  int rc = 0;
  service_->fault_sweep(req, [&](const svc::FaultSweepResult& r) {
    if (!r.ok()) {
      // Error entries emit their one summary row only: partially computed
      // points must not masquerade as sweep output.
      rows.write(svc::fault_sweep_summary_row(r, o.alg));
      rc = std::max(rc, 1);
      return;
    }
    for (const svc::FaultRatePoint& p : r.points) {
      rows.write(svc::fault_point_row(r, p, o.alg, req.with_baselines));
    }
    if (!r.feasible) rc = std::max(rc, 1);
    rows.write(svc::fault_sweep_summary_row(r, o.alg));
  });
  ok_line(rc);
  return rc;
}

int Session::cmd_status(const std::vector<std::string>& args) {
  bool with_memo = false;
  for (const std::string& a : args) {
    if (a == "--memo") {
      with_memo = true;
    } else {
      throw ModelError("usage: status [--memo]");
    }
  }
  svc::JsonRow row;
  row.field("kind", "status")
      .field("fleet", service_->size())
      .field("generated", generated_);
  if (generated_) {
    row.field("trials", study_.trials)
        .field("shard_index", study_.shard.index)
        .field("shard_count", study_.shard.count);
  }
  row.field("threads", par::thread_count())
      .field("max_line", max_line_);
  if (with_memo) {
    // Process-wide memo effectiveness (spec in tools/README.md): sessions
    // own private fleets but share the content-addressed answer cache, so
    // these counters tell an operator how much daemon traffic
    // deduplicates. Opt-in: the counters are cumulative across every
    // session of the process, so a plain `status` stays byte-stable for
    // the deterministic-transcript contracts (and pre-cache clients).
    const svc::MemoStats memo = svc::global_memo().stats();
    row.field("memo_enabled", memo.enabled)
        .field("memo_hits", memo.hits)
        .field("memo_misses", memo.misses)
        .field("memo_evictions", memo.evictions)
        .field("memo_entries", memo.entries)
        .field("memo_bytes", memo.bytes);
  }
  svc::JsonlWriter rows(out_);
  rows.write(row);
  ok_line(0, "fleet=" + std::to_string(service_->size()));
  return 0;
}

}  // namespace flexrt::net::proto
