#pragma once

// Frozen pre-refactor analysis kernels, kept in-tree as the "before" side
// of tools/bench_report's before/after rows, so the speedup trajectory of
// the batched analysis engine stays measurable, and as the exact oracle the
// tests compare the bounded analysis against. These are verbatim ports of
// the seed implementations:
//  - supply inversion by exponential search + bisection from lo = 0, and
//    its later hardened form (bracketed from the delay), the oracle of the
//    closed-form SupplyFunction::inverse overrides,
//  - Theorems 1-2 over the full scheduling-point and hyperperiod deadline
//    sets (unbounded: a hyperperiod-hostile set exhausts memory), and
//    verify_schedule / verify_frame on them,
//  - min_quantum re-deriving scheduling points / deadline sets and calling
//    the O(n)-per-point demand kernels on every invocation,
//  - feasibility_margin re-sorting and re-deriving per call,
//  - sensitivity margins deep-copying the ModeTaskSystem per probe.
// Do not "optimize" these; their slowness is the point.
//
// The text kernels at the end are the same kind of frozen copy: the JSONL
// row writer that allocated a string per key, number and growth step, and
// the task-line parser and command tokenizer that split each line through
// an std::istringstream and read numbers with std::stod. The differential
// tests hold the in-place renderer and the from_chars parser byte- and
// bit-identical to them.

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/general_frame.hpp"
#include "core/integration.hpp"
#include "core/mode_system.hpp"
#include "core/schedule.hpp"
#include "hier/min_quantum.hpp"
#include "hier/sched_test.hpp"
#include "hier/supply.hpp"
#include "io/task_io.hpp"
#include "rt/demand.hpp"
#include "rt/priority.hpp"
#include "rt/sched_points.hpp"
#include "rt/task.hpp"

namespace flexrt::legacy {

inline double supply_inverse(const hier::SupplyFunction& supply,
                             double demand, double tolerance = 1e-9) {
  if (demand <= 0.0) return 0.0;
  double hi = supply.delay() + demand / supply.rate();
  int guard = 0;
  while (supply.value(hi) < demand) {
    hi *= 2.0;
    FLEXRT_REQUIRE(++guard < 128, "supply cannot cover the demand");
  }
  double lo = 0.0;  // seed bug kept: never re-bracketed above the delay
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (supply.value(mid) >= demand) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// Generic pseudo-inverse by exponential bracketing + bisection, as the
/// library's SupplyFunction::inverse_by_bisection had it: the bracket
/// starts at [delay(), delay() + demand/rate()] -- Z is 0 up to the delay
/// -- and the low edge follows the doubling, so the bisection never
/// re-scans a range the search already excluded. Throws ModelError when
/// the supply can never cover the demand. Its loop ends only when
/// hi - lo <= tolerance: a tolerance below the spacing of doubles at the
/// answer never ends.
inline double inverse_by_bisection(const hier::SupplyFunction& supply,
                                   double demand,
                                   double tolerance = hier::kInverseTolerance) {
  FLEXRT_REQUIRE(tolerance > 0.0, "tolerance must be > 0");
  if (demand <= 0.0) return 0.0;
  double lo = supply.delay();
  double gap = demand / supply.rate();
  double hi = lo + gap;
  int guard = 0;
  while (supply.value(hi) < demand) {
    lo = hi;
    gap *= 2.0;
    hi = lo + gap;
    FLEXRT_REQUIRE(++guard < 128, "supply cannot cover the demand");
  }
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (supply.value(mid) >= demand) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// Theorem 1 (FP, set in priority order) or Theorem 2 (EDF) under
/// `supply`, over the full point and deadline sets.
inline bool schedulable(const rt::TaskSet& ts, hier::Scheduler alg,
                        const hier::SupplyFunction& supply) {
  if (alg == hier::Scheduler::FP) {
    for (std::size_t i = 0; i < ts.size(); ++i) {
      bool ok = false;
      for (const double t : rt::scheduling_points(ts, i)) {
        if (leq_tol(rt::fp_workload(ts, i, t), supply.value(t))) {
          ok = true;
          break;
        }
      }
      if (!ok) return false;
    }
    return true;
  }
  if (ts.empty()) return true;
  if (ts.utilization() > supply.rate() + 1e-12) return false;
  for (const double t : rt::deadline_set(ts)) {
    if (!leq_tol(rt::edf_demand(ts, t), supply.value(t))) return false;
  }
  return true;
}

inline bool verify_schedule(const core::ModeTaskSystem& sys,
                            const core::ModeSchedule& schedule,
                            hier::Scheduler alg,
                            bool use_exact_supply = false) {
  schedule.validate();
  for (const rt::Mode mode : core::kAllModes) {
    if (sys.mode_tasks(mode).empty()) {
      continue;  // unused mode needs no quantum
    }
    if (schedule.slot(mode).usable <= 0.0) {
      return false;  // tasks but no supply at all
    }
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      if (ts.empty()) continue;
      const rt::TaskSet ordered = alg == hier::Scheduler::FP
                                      ? rt::sort_deadline_monotonic(ts)
                                      : ts;
      const bool ok =
          use_exact_supply
              ? legacy::schedulable(ordered, alg, schedule.exact_supply(mode))
              : legacy::schedulable(ordered, alg, schedule.supply(mode));
      if (!ok) return false;
    }
  }
  return true;
}

inline bool verify_frame(const core::ModeTaskSystem& sys,
                         const core::GeneralFrame& frame,
                         hier::Scheduler alg) {
  for (const rt::Mode mode : core::kAllModes) {
    if (sys.mode_tasks(mode).empty()) continue;
    if (frame.total_usable(mode) <= 0.0) return false;
    const hier::MultiSlotSupply supply = frame.supply(mode);
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      if (ts.empty()) continue;
      const rt::TaskSet ordered = alg == hier::Scheduler::FP
                                      ? rt::sort_deadline_monotonic(ts)
                                      : ts;
      if (!legacy::schedulable(ordered, alg, supply)) return false;
    }
  }
  return true;
}

inline double min_quantum(const rt::TaskSet& ts, hier::Scheduler alg,
                          double period) {
  if (ts.empty()) return 0.0;
  if (alg == hier::Scheduler::FP) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const double t : rt::scheduling_points(ts, i)) {
        best = std::min(best, hier::quantum_for_point(
                                  t, rt::fp_workload(ts, i, t), period));
      }
      worst = std::max(worst, best);
    }
    return worst;
  }
  double worst = 0.0;
  for (const double t : rt::deadline_set(ts)) {
    worst = std::max(worst,
                     hier::quantum_for_point(t, rt::edf_demand(ts, t), period));
  }
  return worst;
}

inline double feasibility_margin(const core::ModeTaskSystem& sys,
                                 hier::Scheduler alg, double period) {
  double sum = 0.0;
  for (const rt::Mode mode : core::kAllModes) {
    double worst = 0.0;
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      if (ts.empty()) continue;
      const rt::TaskSet ordered = alg == hier::Scheduler::FP
                                      ? rt::sort_deadline_monotonic(ts)
                                      : ts;
      worst = std::max(worst, legacy::min_quantum(ordered, alg, period));
    }
    sum += worst;
  }
  return period - sum;
}

inline core::ModeTaskSystem scaled(const core::ModeTaskSystem& sys,
                                   const std::string& name, double lambda) {
  core::ModeTaskSystem out = sys;
  for (const rt::Mode mode : core::kAllModes) {
    std::vector<rt::TaskSet> parts;
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      rt::TaskSet scaled_ts;
      for (rt::Task t : ts) {
        if (name.empty() || t.name == name) t.wcet *= lambda;
        scaled_ts.add(std::move(t));
      }
      parts.push_back(std::move(scaled_ts));
    }
    out.set_partitions(mode, std::move(parts));
  }
  return out;
}

inline bool feasible_at(const core::ModeTaskSystem& sys,
                        const core::ModeSchedule& schedule,
                        hier::Scheduler alg, const std::string& name,
                        double lambda) {
  for (const rt::Mode mode : core::kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        if ((name.empty() || t.name == name) &&
            t.wcet * lambda > t.deadline * (1.0 + 1e-12)) {
          return false;
        }
      }
    }
  }
  return legacy::verify_schedule(scaled(sys, name, lambda), schedule, alg);
}

inline double bisect_margin(const core::ModeTaskSystem& sys,
                            const core::ModeSchedule& schedule,
                            hier::Scheduler alg, const std::string& name,
                            double lambda_max, double tolerance) {
  if (!feasible_at(sys, schedule, alg, name, 1.0)) return 1.0;
  if (feasible_at(sys, schedule, alg, name, lambda_max)) return lambda_max;
  double lo = 1.0, hi = lambda_max;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (feasible_at(sys, schedule, alg, name, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Seed sensitivity_report: one deep-copy bisection per task, each probe
/// re-verifying the whole system (including the lambda = 1 check the new
/// engine hoists).
inline std::vector<core::TaskMargin> sensitivity_report(
    const core::ModeTaskSystem& sys, const core::ModeSchedule& schedule,
    hier::Scheduler alg, double lambda_max = 16.0) {
  std::vector<core::TaskMargin> out;
  for (const rt::Mode mode : core::kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        out.push_back({t.name, mode, t.wcet,
                       bisect_margin(sys, schedule, alg, t.name, lambda_max,
                                     1e-4)});
      }
    }
  }
  return out;
}

// --- text: JSONL rows, task lines, command tokens --------------------------

namespace text_detail {

inline std::string format_double(double v) {
  // JSON has no inf/nan; the analysis layer uses +inf for "no feasible
  // quantum", so map non-finite values to null at the row level.
  std::array<char, 32> buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  std::string out(buf.data(), end);
  // Bare integers like "2" are valid JSON numbers; keep them as emitted so
  // the round-trip stays byte-stable.
  return out;
}

}  // namespace text_detail

inline std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// svc::JsonRow as it was: a body string, a fresh string per key and per
/// number, and str() copying the body between braces.
class JsonRow {
 public:
  JsonRow& field(std::string_view k, double v) {
    if (!std::isfinite(v)) return null_field(k);
    key(k);
    body_ += text_detail::format_double(v);
    return *this;
  }
  JsonRow& field(std::string_view k, std::int64_t v) {
    key(k);
    body_ += std::to_string(v);
    return *this;
  }
  JsonRow& field(std::string_view k, std::size_t v) {
    key(k);
    body_ += std::to_string(v);
    return *this;
  }
  JsonRow& field(std::string_view k, bool v) {
    key(k);
    body_ += v ? "true" : "false";
    return *this;
  }
  JsonRow& field(std::string_view k, std::string_view v) {
    key(k);
    body_ += '"';
    body_ += json_escape(v);
    body_ += '"';
    return *this;
  }
  JsonRow& field(std::string_view k, const char* v) {
    return field(k, std::string_view(v));
  }
  JsonRow& field(std::string_view k, std::span<const double> v) {
    key(k);
    body_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) body_ += ',';
      body_ += std::isfinite(v[i]) ? text_detail::format_double(v[i])
                                   : std::string("null");
    }
    body_ += ']';
    return *this;
  }
  JsonRow& null_field(std::string_view k) {
    key(k);
    body_ += "null";
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += json_escape(k);
    body_ += "\":";
  }
  std::string body_;
};

/// svc::JsonlWriter::write as it was: two formatted insertions per row.
inline void jsonl_write(std::ostream& out, std::string_view row,
                        bool flush_per_row, std::size_t rows_written) {
  out << row << '\n';
  if (flush_per_row) out.flush();
  FLEXRT_REQUIRE(static_cast<bool>(out),
                 "write failed after " + std::to_string(rows_written) +
                     " rows (output stream): disk full or stream closed?");
}

namespace text_detail {

inline std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

inline std::optional<rt::Mode> parse_mode(const std::string& token) {
  const std::string u = upper(token);
  if (u == "FT") return rt::Mode::FT;
  if (u == "FS") return rt::Mode::FS;
  if (u == "NF") return rt::Mode::NF;
  return std::nullopt;
}

[[noreturn]] inline void fail(int line, const std::string& what) {
  throw ModelError("task file line " + std::to_string(line) + ": " + what);
}

/// Parses `token` as a double; reports the offending token on failure.
inline double parse_number(const std::string& token, const char* what,
                           int line_no) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(token, &consumed);
    if (consumed == token.size()) return v;
  } catch (const std::exception&) {  // invalid_argument / out_of_range
  }
  fail(line_no, std::string("bad ") + what + " '" + token + "'");
}

}  // namespace text_detail

/// One parsed task line: the task and its channel pin, if any.
struct ParsedLine {
  rt::Task task;
  std::optional<std::size_t> channel;
};

/// io's task-line parser as it was. An out-of-range or subnormal deadline
/// escapes as std::out_of_range ("stod"), not as a ModelError.
inline std::optional<ParsedLine> parse_line(const std::string& raw,
                                            int line_no) {
  using text_detail::fail;
  using text_detail::parse_mode;
  using text_detail::parse_number;
  // Tolerate CRLF files and stray trailing whitespace: everything after a
  // '#' is comment, and '\r' (like '\t') is classic-locale whitespace, so
  // the extraction below treats it as just another token separator.
  const std::string line = raw.substr(0, raw.find('#'));
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string tok; in >> tok;) tokens.push_back(std::move(tok));
  if (tokens.empty()) return std::nullopt;  // blank / comment-only
  if (tokens.size() < 4) {
    std::string got = tokens[0];
    for (std::size_t k = 1; k < tokens.size(); ++k) got += ' ' + tokens[k];
    fail(line_no,
         "expected 'name C T [D] mode [channel]', got '" + got + "'");
  }

  const std::string& name = tokens[0];
  const double c = parse_number(tokens[1], "WCET", line_no);
  const double t = parse_number(tokens[2], "period", line_no);

  // tokens[3] is either D (a number) or the mode.
  std::size_t next = 3;
  double d = t;
  std::optional<rt::Mode> mode = parse_mode(tokens[next]);
  if (!mode) {
    try {
      std::size_t consumed = 0;
      d = std::stod(tokens[next], &consumed);
      if (consumed != tokens[next].size()) {
        fail(line_no, "bad deadline '" + tokens[next] + "'");
      }
    } catch (const std::invalid_argument&) {
      fail(line_no,
           "expected deadline or mode (FT/FS/NF), got '" + tokens[next] + "'");
    }
    ++next;
    if (next >= tokens.size()) fail(line_no, "missing mode (FT/FS/NF)");
    mode = parse_mode(tokens[next]);
    if (!mode) fail(line_no, "unknown mode '" + tokens[next] + "'");
  }
  ++next;

  ParsedLine out;
  try {
    out.task = rt::make_task(name, c, t, d, *mode);
  } catch (const ModelError& e) {
    fail(line_no, e.what());
  }
  if (next < tokens.size()) {
    long long channel = -1;
    try {
      std::size_t consumed = 0;
      channel = std::stoll(tokens[next], &consumed, 10);
      if (consumed != tokens[next].size()) throw std::invalid_argument("");
    } catch (const std::exception&) {
      fail(line_no, "bad channel '" + tokens[next] + "'");
    }
    if (channel < 0 ||
        static_cast<std::size_t>(channel) >= core::num_channels(*mode)) {
      fail(line_no, "channel " + std::to_string(channel) +
                        " out of range for mode " + rt::to_string(*mode));
    }
    out.channel = static_cast<std::size_t>(channel);
    ++next;
  }
  if (next < tokens.size()) {
    fail(line_no, "trailing token '" + tokens[next] + "'");
  }
  return out;
}

inline std::vector<ParsedLine> parse_lines(std::istream& in) {
  std::vector<ParsedLine> out;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (auto parsed = parse_line(raw, line_no)) out.push_back(std::move(*parsed));
  }
  return out;
}

/// io::parse_mode_task_system_string as it was: an istringstream over the
/// text, getline, parse_line, then the channel partition.
inline io::ParsedSystem parse_mode_task_system_string(
    const std::string& text, const part::PackOptions& pack = {}) {
  std::istringstream in(text);
  const std::vector<ParsedLine> lines = parse_lines(in);
  io::ParsedSystem out;

  // Pinned tasks go straight to their channel; the rest are packed around
  // them (channel loads seeded with the pinned utilizations would be
  // better, but packing the leftovers into the least-loaded bins including
  // the pinned load is what worst-fit below achieves via bin_capacity).
  std::array<std::vector<rt::TaskSet>, 3> parts;
  for (const rt::Mode mode : core::kAllModes) {
    parts[static_cast<std::size_t>(mode)].resize(core::num_channels(mode));
  }
  rt::TaskSet unpinned;
  for (const ParsedLine& p : lines) {
    if (p.channel) {
      out.had_explicit_channels = true;
      parts[static_cast<std::size_t>(p.task.mode)][*p.channel].add(p.task);
    } else {
      unpinned.add(p.task);
    }
  }
  for (const rt::Mode mode : core::kAllModes) {
    auto& mode_parts = parts[static_cast<std::size_t>(mode)];
    const rt::TaskSet todo = unpinned.by_mode(mode);
    if (todo.empty()) continue;
    // Pack unpinned tasks into bins pre-loaded with the pinned tasks.
    std::vector<double> preload(mode_parts.size());
    for (std::size_t b = 0; b < mode_parts.size(); ++b) {
      preload[b] = mode_parts[b].utilization();
    }
    // Simple worst-fit respecting the preload.
    std::vector<rt::Task> tasks(todo.begin(), todo.end());
    if (pack.sort_decreasing) {
      std::stable_sort(tasks.begin(), tasks.end(),
                       [](const rt::Task& a, const rt::Task& b) {
                         return a.utilization() > b.utilization();
                       });
    }
    for (rt::Task& task : tasks) {
      std::size_t best = mode_parts.size();
      double best_load = 2.0;
      for (std::size_t b = 0; b < mode_parts.size(); ++b) {
        const double load = preload[b];
        if (load + task.utilization() <= pack.bin_capacity + 1e-12 &&
            load < best_load) {
          best = b;
          best_load = load;
        }
      }
      FLEXRT_REQUIRE(best < mode_parts.size(),
                     "task " + task.name + " does not fit any channel of " +
                         rt::to_string(mode));
      preload[best] += task.utilization();
      mode_parts[best].add(std::move(task));
    }
  }
  out.system = core::ModeTaskSystem(
      std::move(parts[0]), std::move(parts[1]), std::move(parts[2]));
  return out;
}

/// net::proto::split_tokens as it was.
inline std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

}  // namespace flexrt::legacy
