#include "net/proto.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/text.hpp"
#include "gen/taskset_gen.hpp"
#include "io/task_io.hpp"
#include "svc/rows.hpp"
#include "svc/study_report.hpp"

namespace flexrt::net::proto {

double parse_num(const char* flag, const std::string& v) {
  if (const std::optional<double> out = text::parse_double(v)) return *out;
  throw ModelError(std::string(flag) + ": bad number '" + v + "'");
}

std::size_t parse_size(const char* flag, const std::string& v, int base) {
  if (const std::optional<std::uint64_t> n = text::parse_count(v, base)) {
    return static_cast<std::size_t>(*n);
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

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  for (std::string_view rest = line;;) {
    const std::string_view tok = text::next_token(rest);
    if (tok.empty()) return tokens;
    tokens.emplace_back(tok);
  }
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

/// Study and fault-sweep charge the paper's O_tot = 0.05, split evenly.
constexpr core::Overheads kStudyOverheads{0.05 / 3, 0.05 / 3, 0.05 / 3};

/// The search grid of generated fleets (study, fault-sweep --trials).
constexpr core::SearchOptions kGeneratedGrid{.p_max = 10.0, .grid_step = 5e-3};

template <typename>
struct MemberOf;
template <typename T, typename C>
struct MemberOf<T C::*> {
  using Class = C;
};

/// What a flag writes: the invocation, its common options, or one of its
/// typed requests.
template <auto Field>
auto& target(Invocation& c) {
  using C = typename MemberOf<decltype(Field)>::Class;
  if constexpr (std::is_same_v<C, Invocation>) {
    return c.*Field;
  } else if constexpr (std::is_same_v<C, CommonOpts>) {
    return c.common.*Field;
  } else {
    return std::get<C>(c.request).*Field;
  }
}

template <auto Field, bool Value = true>
void set(Invocation& c, const char*, const std::string&) {
  target<Field>(c) = Value;
}
template <auto Field>
void num(Invocation& c, const char* flag, const std::string& v) {
  target<Field>(c) = parse_num(flag, v);
}
template <auto Field>
void count(Invocation& c, const char* flag, const std::string& v) {
  target<Field>(c) = parse_size(flag, v);
}

/// fault::FaultModel's domain: rates and separations are finite and >= 0.
double fault_param(const char* flag, double v, const std::string& text) {
  if (!(std::isfinite(v) && v >= 0.0)) {
    throw ModelError(std::string(flag) + ": expected finite values >= 0, got '" +
                     text + "'");
  }
  return v;
}

using Str = const std::string&;

const std::vector<Flag> kCommonFlags = {
    {"--alg", Flag::Forward, true,
     [](Invocation& c, const char*, Str v) {
       if (v != "edf" && v != "rm") {
         throw ModelError("--alg: expected edf or rm, got '" + v + "'");
       }
       c.common.alg = v == "rm" ? hier::Scheduler::FP : hier::Scheduler::EDF;
     }},
    {"--goal", Flag::Forward, true,
     [](Invocation& c, const char*, Str v) {
       if (v != "min-overhead" && v != "max-slack") {
         throw ModelError("--goal: expected min-overhead or max-slack, got '" +
                          v + "'");
       }
       c.common.goal = v == "max-slack" ? core::DesignGoal::MaxSlackBandwidth
                                        : core::DesignGoal::MinOverheadBandwidth;
     }},
    {"--overhead", Flag::Forward, true,
     [](Invocation& c, const char* flag, Str v) {
       const auto [ft, fs, nf] = parse_triple(flag, v);
       c.common.overheads = {ft, fs, nf};
     }},
    {"--adaptive", Flag::Forward, true, num<&CommonOpts::adaptive_tol>},
    {"--budget", Flag::Forward, true, count<&CommonOpts::budget>},
    {"--budget-cap", Flag::Forward, true, count<&CommonOpts::budget_cap>},
    {"--deadline", Flag::Forward, true, num<&CommonOpts::deadline_ms>},
    {"--jsonl", Flag::Forward, false, set<&CommonOpts::jsonl>},
    {"--stream", Flag::Forward, false, set<&CommonOpts::stream>},
    {"--no-wall", Flag::Forward, false, set<&CommonOpts::no_wall>},
    {"--csv", Flag::Offline, false, set<&CommonOpts::csv>},
    {"--output", Flag::Offline, true,
     [](Invocation& c, const char*, Str v) {
       if (v.empty()) throw ModelError("--output: expected a file name");
       c.common.output = v;
     }},
    {"--resume", Flag::Offline, false, set<&CommonOpts::resume>},
    {"--fsync", Flag::Offline, false, set<&CommonOpts::fsync>},
    {"--trials", Flag::Fleet, true,
     [](Invocation& c, const char* flag, Str v) {
       c.study.trials = parse_size(flag, v);
     }},
    {"--seed", Flag::Fleet, true,
     [](Invocation& c, const char* flag, Str v) {
       c.study.base_seed = parse_size(flag, v, /*base=*/0);  // 0x5EED too
     }},
    {"--shard", Flag::Fleet, true,
     [](Invocation& c, const char*, Str v) {
       try {
         c.study.shard = core::parse_shard(v);
       } catch (const ModelError&) {
         throw ModelError("--shard: expected k/N with 1 <= k <= N, got '" + v +
                          "'");
       }
     }},
};

/// The command table: every analysis command, defined once.
const Command kCommands[] = {
    {CommandId::Solve, "solve", "solve", "solve", false, "feasible", true,
     {{"--sensitivity", Flag::Report, false, set<&Invocation::sensitivity>},
      {"--response-times", Flag::Report, false,
       set<&Invocation::response_times>},
      {"--simulate", Flag::Report, true, num<&Invocation::simulate_horizon>},
      {"--fault-rate", Flag::Report, true, num<&Invocation::fault_rate>},
      {"--trace", Flag::Report, true, count<&Invocation::trace>}},
     svc::SolveRequest{}, {}, nullptr},
    {CommandId::Minq, "minq", "minq", "min_quantum", false, nullptr, true,
     {{"--period", Flag::Forward, true, num<&svc::MinQuantumRequest::period>},
      {"--exact-supply", Flag::Forward, false,
       set<&svc::MinQuantumRequest::use_exact_supply>}},
     svc::MinQuantumRequest{.period = 0.0}, {},
     [](const Invocation& c) {
       if (!(std::get<svc::MinQuantumRequest>(c.request).period > 0.0)) {
         throw ModelError("minq needs --period P > 0");
       }
     }},
    {CommandId::Sweep, "sweep", "sweep", "sweep", true, nullptr, true,
     {{"--p-min", Flag::Forward, true,
       [](Invocation& c, const char* flag, Str v) {
         target<&svc::RegionSweepRequest::search>(c).p_min = parse_num(flag, v);
       }},
      {"--p-max", Flag::Forward, true,
       [](Invocation& c, const char* flag, Str v) {
         target<&svc::RegionSweepRequest::search>(c).p_max = parse_num(flag, v);
       }},
      {"--step", Flag::Forward, true,
       [](Invocation& c, const char* flag, Str v) {
         target<&svc::RegionSweepRequest::search>(c).grid_step =
             parse_num(flag, v);
       }}},
     svc::RegionSweepRequest{
         .search = {.p_min = 0.05, .p_max = 3.5, .grid_step = 0.05}},
     {}, nullptr},
    {CommandId::Verify, "verify", "verify", "verify", false, "schedulable",
     true,
     {{"--period", Flag::Forward, true,
       [](Invocation& c, const char* flag, Str v) {
         target<&svc::VerifyRequest::schedule>(c).period = parse_num(flag, v);
       }},
      {"--quanta", Flag::Forward, true,
       [](Invocation& c, const char* flag, Str v) {
         const auto [ft, fs, nf] = parse_triple(flag, v);
         core::ModeSchedule& s = target<&svc::VerifyRequest::schedule>(c);
         s.ft.usable = ft;
         s.fs.usable = fs;
         s.nf.usable = nf;
       }},
      {"--exact-supply", Flag::Forward, false,
       set<&svc::VerifyRequest::use_exact_supply>}},
     svc::VerifyRequest{}, {},
     [](const Invocation& c) {
       if (!(std::get<svc::VerifyRequest>(c.request).schedule.period > 0.0) ||
           !c.has("--quanta")) {
         throw ModelError(
             "verify needs --period P > 0 and --quanta Q_FT,Q_FS,Q_NF");
       }
     }},
    {CommandId::FaultSweep, "fault-sweep", "fault-sweep", "fault_sweep", true,
     "feasible", true,
     {{"--rates", Flag::Forward, true,
       [](Invocation& c, const char* flag, Str v) {
         std::vector<double> rates = parse_num_list(flag, v);
         for (const double r : rates) fault_param(flag, r, v);
         target<&svc::FaultSweepRequest::rates>(c) = std::move(rates);
       }},
      {"--min-sep", Flag::Forward, true,
       [](Invocation& c, const char* flag, Str v) {
         target<&svc::FaultSweepRequest::min_separation>(c) =
             fault_param(flag, parse_num(flag, v), v);
       }},
      {"--no-baselines", Flag::Forward, false,
       set<&svc::FaultSweepRequest::with_baselines, false>},
      {"--exact-supply", Flag::Forward, false,
       set<&svc::FaultSweepRequest::use_exact_supply>}},
     svc::FaultSweepRequest{.rates = {0.0, 1e-3, 1e-2, 0.1, 1.0}},
     kStudyOverheads, nullptr},
    // Always a generated fleet: StudyOptions' 100 trials, seed 0x5EED.
    {CommandId::Study, "study", "solve --study", "study_trial", true, nullptr,
     false, {}, svc::SolveRequest{.search = kGeneratedGrid}, kStudyOverheads,
     nullptr},
};

/// Fills the request's common fields from the parsed CommonOpts.
void build_request(Invocation& inv) {
  const CommonOpts& o = inv.common;
  std::visit(
      [&](auto& q) {
        q.alg = o.alg;
        q.accuracy = o.accuracy();
        if constexpr (requires { q.goal; }) {
          q.overheads = o.overheads;
          q.goal = o.goal;
        }
        if constexpr (requires { q.schedule; }) {  // verify charges --overhead
          q.schedule.ft.overhead = o.overheads.ft;
          q.schedule.fs.overhead = o.overheads.fs;
          q.schedule.nf.overhead = o.overheads.nf;
        }
      },
      inv.request);
}

const Flag* find_flag(const std::vector<Flag>& flags, const std::string& a) {
  for (const Flag& f : flags) {
    if (a == f.name) return &f;
  }
  return nullptr;
}

}  // namespace

bool Invocation::has(std::string_view flag) const {
  return std::find(given.begin(), given.end(), flag) != given.end();
}

void Invocation::use_generated(const core::StudyOptions& s) {
  generated = true;
  study = s;
  if (auto* q = std::get_if<svc::FaultSweepRequest>(&request)) {
    q->search = kGeneratedGrid;
  }
}

const Command* find_command(std::string_view name) {
  for (const Command& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

Invocation parse_command(const std::string& name,
                         const std::vector<std::string>& args, Front front) {
  Invocation inv;
  inv.command = find_command(name);
  if (!inv.command) throw ModelError("unknown command '" + name + "'");
  const Command& cmd = *inv.command;
  inv.request = cmd.request;
  inv.common.overheads = cmd.overheads;
  inv.generated = cmd.id == CommandId::Study;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const Flag* flag = find_flag(kCommonFlags, a);
    if (!flag) flag = find_flag(cmd.flags, a);
    if (!flag) {
      if (a.empty() || a[0] == '-') {
        throw ModelError(name + ": unknown flag '" + a + "'");
      }
      if (front == Front::Wire) {
        throw ModelError("unexpected argument '" + a +
                         "' (systems are added with `add`, not file paths)");
      }
      inv.common.files.push_back(a);
      continue;
    }
    if (flag->kind == Flag::Fleet && front == Front::Wire) {
      throw ModelError(a + " belongs to gen-fleet on the wire");
    }
    if ((flag->kind == Flag::Offline || flag->kind == Flag::Report) &&
        front != Front::Offline) {
      throw ModelError(a + " is offline-only (wire reports are plain JSONL)");
    }
    std::string value;
    if (flag->valued) {
      if (i + 1 >= args.size()) throw ModelError(a + ": missing value");
      value = args[++i];
    }
    flag->apply(inv, flag->name, value);
    inv.given.push_back(a);
    if (flag->kind == Flag::Forward) {
      inv.wire_args.push_back(a);
      if (flag->valued) inv.wire_args.push_back(value);
    }
  }

  CommonOpts& o = inv.common;
  if (o.journaled()) {
    if (!cmd.journal) {
      throw ModelError(name + ": --output is for study, sweep and fault-sweep");
    }
    o.jsonl = true;  // journaled reports are JSONL by construction
  } else if (o.resume || o.fsync) {
    throw ModelError("--resume and --fsync need --output FILE");
  }
  for (const Flag& f : cmd.flags) {
    if (f.kind == Flag::Report && o.jsonl && inv.has(f.name)) {
      throw ModelError(std::string(f.name) +
                       " prints into the human report; drop --jsonl");
    }
  }
  // Offline and remote fleets come from task files or from --trials (0
  // allowed); a wire session binds its own fleet after parsing.
  if (front != Front::Wire) {
    if (inv.has("--trials")) inv.generated = true;
    if (inv.generated && !o.files.empty()) {
      throw ModelError(name + ": task files and --trials are mutually exclusive");
    }
    if (!inv.generated && o.files.empty()) {
      throw ModelError(name + ": no task files given");
    }
    if (inv.generated) inv.use_generated(inv.study);
  }
  if (cmd.check) cmd.check(inv);
  build_request(inv);
  return inv;
}

namespace {

/// Appends a finished row and its newline to an entry's block.
void add_row(std::string& block, svc::JsonRow row) {
  block += std::move(row).str();
  block += '\n';
}

/// A one-row block.
std::string one_row(svc::JsonRow row) {
  std::string block = std::move(row).str();
  block += '\n';
  return block;
}

}  // namespace

std::string Rows::close(std::string block) {
  std::string_view rows = block;
  rows.remove_suffix(1);  // the last row's newline; rows hold no raw '\n'
  fold(rows.substr(rows.rfind('\n') + 1));
  return block;
}

std::string Rows::entry(const svc::SolveResult& r) {
  const auto& q = std::get<svc::SolveRequest>(inv_.request);
  if (inv_.command->id == CommandId::Study) {
    return close(svc::study_trial_row(r, q.alg, q.goal) + '\n');
  }
  return close(one_row(svc::solve_row(r, q.alg, q.goal, with_wall_)));
}

std::string Rows::entry(const svc::MinQuantumResult& r) {
  const auto& q = std::get<svc::MinQuantumRequest>(inv_.request);
  return close(one_row(svc::min_quantum_row(r, q.alg, q.period, with_wall_)));
}

std::string Rows::entry(const svc::RegionSweepResult& r) {
  const auto& q = std::get<svc::RegionSweepRequest>(inv_.request);
  std::string block;
  if (r.ok()) {
    for (const core::RegionSample& s : r.samples) {
      add_row(block, svc::sweep_sample_row(r, q.alg, s));
    }
  }
  add_row(block, svc::sweep_summary_row(r, q.alg, with_wall_));
  return close(std::move(block));
}

std::string Rows::entry(const svc::VerifyResult& r) {
  const auto& q = std::get<svc::VerifyRequest>(inv_.request);
  return close(
      one_row(svc::verify_row(r, q.alg, q.schedule.period, with_wall_)));
}

std::string Rows::entry(const svc::FaultSweepResult& r) {
  const auto& q = std::get<svc::FaultSweepRequest>(inv_.request);
  std::string block;
  // Error entries emit their one summary row only: partially computed
  // points must not masquerade as sweep output.
  if (r.ok()) {
    for (const svc::FaultRatePoint& p : r.points) {
      add_row(block, svc::fault_point_row(r, p, q.alg, q.with_baselines));
    }
  }
  add_row(block, svc::fault_sweep_summary_row(r, q.alg));
  return close(std::move(block));
}

bool Rows::terminal(std::string_view row) const {
  return svc::json_string_field(row, "kind").value_or("") ==
         inv_.command->terminal;
}

void Rows::fold(std::string_view row) {
  const Command& c = *inv_.command;
  if (c.id == CommandId::Study) agg_.add(row);
  if ((c.verdict && !svc::json_bool_field(row, c.verdict).value_or(true)) ||
      (c.error_rows && svc::json_string_field(row, "error"))) {
    rc_ = 1;
  }
}

std::optional<std::string> Rows::summary() const {
  // Shards emit rows only; the merged/unsharded report owns the summary.
  if (inv_.command->id != CommandId::Study || inv_.study.shard.count != 1) {
    return std::nullopt;
  }
  return agg_.summary_row();
}

int write_rows(const Invocation& inv, const svc::AnalysisService& service,
               std::ostream& out, bool with_wall, bool flush_per_row) {
  Rows rows(inv, with_wall);
  svc::JsonlWriter writer(out, flush_per_row);
  for_each_entry(inv, service,
                 [&](const auto& r) { writer.write_rows(rows.entry(r)); });
  if (const std::optional<std::string> s = rows.summary()) writer.write(*s);
  return rows.rc();
}

Session::Session(std::ostream& out, std::size_t max_line)
    : out_(out),
      max_line_(max_line),
      service_(std::make_unique<svc::AnalysisService>(kSessionHeldEngines)) {}

Session::~Session() = default;

void Session::ok_line(int rc, const std::string& extras) {
  out_ << "ok rc=" << rc;
  if (!extras.empty()) out_ << ' ' << extras;
  out_ << '\n' << std::flush;
}

void Session::error_line(std::string message) {
  // One line: the message must not break the line-oriented framing.
  std::replace(message.begin(), message.end(), '\n', ' ');
  std::replace(message.begin(), message.end(), '\r', ' ');
  out_ << "error " << message << '\n' << std::flush;
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
  } catch (const std::exception& e) {
    error_line(e.what());
    return 2;
  }
}

int Session::dispatch(const std::vector<std::string>& tokens, std::istream& in,
                      bool& quit) {
  const std::string& cmd = tokens[0];
  std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "quit") {
    quit = true;
    ok_line(0, "bye");
    return 0;
  }
  if (cmd == "add") return cmd_add(args, in);
  if (cmd == "gen-fleet") return cmd_gen_fleet(args);
  if (cmd == "status") return cmd_status(args);
  if (cmd == "drop") {
    service_ = std::make_unique<svc::AnalysisService>(kSessionHeldEngines);
    generated_ = false;
    study_ = core::StudyOptions{};
    ok_line(0, "fleet=0");
    return 0;
  }
  return cmd_analysis(cmd, std::move(args));
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
  // The command table's fleet flags; trials=100, seed=0x5EED by default.
  Invocation fleet;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Flag* flag = find_flag(kCommonFlags, args[i]);
    if (!flag || flag->kind != Flag::Fleet) {
      throw ModelError("gen-fleet: unknown flag '" + args[i] + "'");
    }
    if (i + 1 >= args.size()) throw ModelError(args[i] + ": missing value");
    flag->apply(fleet, flag->name, args[i + 1]);
    ++i;
  }
  const core::StudyOptions& study = fleet.study;
  service_->add_fleet(
      study, [](std::size_t, Rng& rng) { return gen::study_system(rng); });
  generated_ = true;
  study_ = study;
  ok_line(0, "fleet=" + std::to_string(service_->size()) +
                 " trials=" + std::to_string(study.trials));
  return 0;
}

int Session::cmd_analysis(const std::string& name,
                          std::vector<std::string> args) {
  // The wire spells the study command `solve --study`.
  if (name == "study") throw ModelError("unknown command 'study'");
  const bool study = name == "solve" && std::erase(args, "--study") > 0;
  Invocation inv = parse_command(study ? "study" : name, args, Front::Wire);
  // A built fleet may be empty (gen-fleet --trials 0, or a shard owning no
  // trials); only a session that added and generated nothing has none.
  if (service_->size() == 0 && !generated_) {
    throw ModelError("the fleet is empty -- `add` or `gen-fleet` first");
  }
  if (generated_) {
    inv.use_generated(study_);
  } else if (study) {
    throw ModelError("solve --study needs a gen-fleet fleet");
  }
  const int rc = write_rows(inv, *service_, out_, /*with_wall=*/false,
                            /*flush_per_row=*/false);
  ok_line(rc);
  return rc;
}

int Session::cmd_status(const std::vector<std::string>& args) {
  if (!args.empty()) throw ModelError("usage: status");
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
  svc::JsonlWriter rows(out_);
  rows.write(row);
  ok_line(0, "fleet=" + std::to_string(service_->size()));
  return 0;
}

}  // namespace flexrt::net::proto
