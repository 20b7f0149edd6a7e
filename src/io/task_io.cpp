#include "io/task_io.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/text.hpp"

namespace flexrt::io {
namespace {

/// FT, FS or NF in any letter case (the classic locale's: a-z only).
std::optional<rt::Mode> parse_mode(std::string_view token) {
  if (token.size() != 2) return std::nullopt;
  const auto up = [](char c) {
    return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
  };
  const char a = up(token[0]);
  const char b = up(token[1]);
  if (a == 'F' && b == 'T') return rt::Mode::FT;
  if (a == 'F' && b == 'S') return rt::Mode::FS;
  if (a == 'N' && b == 'F') return rt::Mode::NF;
  return std::nullopt;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw ModelError("task file line " + std::to_string(line) + ": " + what);
}

struct ParsedLine {
  rt::Task task;
  std::optional<std::size_t> channel;
};

/// Parses `token` as a double; reports the offending token on failure.
double parse_number(std::string_view token, const char* what, int line_no) {
  if (const std::optional<double> v = text::parse_double(token)) return *v;
  fail(line_no, std::string("bad ") + what + " '" + std::string(token) + "'");
}

/// True when std::stod converts a prefix of `token`: it throws
/// invalid_argument only when strtod converts nothing.
bool starts_a_number(std::string_view token) {
  const std::string s(token);
  char* end = nullptr;
  (void)std::strtod(s.c_str(), &end);
  return end != s.c_str();
}

/// A channel index, as std::stoll reads it in base 10.
long long parse_channel(std::string_view token, int line_no) {
  try {
    const std::string s(token);
    std::size_t consumed = 0;
    const long long channel = std::stoll(s, &consumed, 10);
    if (consumed == s.size()) return channel;
  } catch (const std::exception&) {
  }
  fail(line_no, "bad channel '" + std::string(token) + "'");
}

/// One task line; nullopt when blank or comment-only.
std::optional<ParsedLine> parse_line(std::string_view raw, int line_no) {
  // Tolerate CRLF files and stray trailing whitespace: everything after a
  // '#' is comment, and '\r' (like '\t') is classic-locale whitespace, so
  // the split below treats it as just another token separator.
  std::vector<std::string_view> tokens;
  for (std::string_view rest = raw.substr(0, raw.find('#'));;) {
    const std::string_view token = text::next_token(rest);
    if (token.empty()) break;
    tokens.push_back(token);
  }
  if (tokens.empty()) return std::nullopt;  // blank / comment-only
  if (tokens.size() < 4) {
    std::string got(tokens[0]);
    for (std::size_t k = 1; k < tokens.size(); ++k) {
      got += ' ';
      got += tokens[k];
    }
    fail(line_no,
         "expected 'name C T [D] mode [channel]', got '" + got + "'");
  }

  const std::string_view name = tokens[0];
  const double c = parse_number(tokens[1], "WCET", line_no);
  const double t = parse_number(tokens[2], "period", line_no);

  // tokens[3] is either D (a number) or the mode.
  std::size_t next = 3;
  double d = t;
  std::optional<rt::Mode> mode = parse_mode(tokens[next]);
  if (!mode) {
    const std::string_view token = tokens[next];
    if (const std::optional<double> v = text::parse_double(token)) {
      d = *v;
    } else if (starts_a_number(token)) {
      fail(line_no, "bad deadline '" + std::string(token) + "'");
    } else {
      fail(line_no, "expected deadline or mode (FT/FS/NF), got '" +
                        std::string(token) + "'");
    }
    ++next;
    if (next >= tokens.size()) fail(line_no, "missing mode (FT/FS/NF)");
    mode = parse_mode(tokens[next]);
    if (!mode) {
      fail(line_no, "unknown mode '" + std::string(tokens[next]) + "'");
    }
  }
  ++next;

  ParsedLine out;
  try {
    out.task = rt::make_task(std::string(name), c, t, d, *mode);
  } catch (const ModelError& e) {
    fail(line_no, e.what());
  }
  if (next < tokens.size()) {
    const long long channel = parse_channel(tokens[next], line_no);
    if (channel < 0 ||
        static_cast<std::size_t>(channel) >= core::num_channels(*mode)) {
      fail(line_no, "channel " + std::to_string(channel) +
                        " out of range for mode " + rt::to_string(*mode));
    }
    out.channel = static_cast<std::size_t>(channel);
    ++next;
  }
  if (next < tokens.size()) {
    fail(line_no, "trailing token '" + std::string(tokens[next]) + "'");
  }
  return out;
}

/// Every task line of `text`, which splits into lines at '\n' as getline
/// would.
std::vector<ParsedLine> parse_lines(std::string_view text) {
  std::vector<ParsedLine> out;
  int line_no = 0;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    ++line_no;
    if (auto parsed = parse_line(text.substr(0, nl), line_no)) {
      out.push_back(std::move(*parsed));
    }
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  }
  return out;
}

std::string read_all(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Builds the per-mode channel partition of parsed lines.
ParsedSystem partition(std::vector<ParsedLine> lines,
                       const part::PackOptions& pack) {
  ParsedSystem out;

  // Pinned tasks go straight to their channel; the rest are packed around
  // them (channel loads seeded with the pinned utilizations would be
  // better, but packing the leftovers into the least-loaded bins including
  // the pinned load is what worst-fit below achieves via bin_capacity).
  std::array<std::vector<rt::TaskSet>, 3> parts;
  for (const rt::Mode mode : core::kAllModes) {
    parts[static_cast<std::size_t>(mode)].resize(core::num_channels(mode));
  }
  rt::TaskSet unpinned;
  for (ParsedLine& p : lines) {
    if (p.channel) {
      out.had_explicit_channels = true;
      parts[static_cast<std::size_t>(p.task.mode)][*p.channel].add(
          std::move(p.task));
    } else {
      unpinned.add(std::move(p.task));
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

}  // namespace

rt::TaskSet parse_task_set(std::istream& in) {
  return parse_task_set_string(read_all(in));
}

rt::TaskSet parse_task_set_string(const std::string& text) {
  rt::TaskSet ts;
  for (ParsedLine& p : parse_lines(text)) ts.add(std::move(p.task));
  return ts;
}

ParsedSystem parse_mode_task_system(std::istream& in,
                                    const part::PackOptions& pack) {
  return parse_mode_task_system_string(read_all(in), pack);
}

ParsedSystem parse_mode_task_system_string(const std::string& text,
                                           const part::PackOptions& pack) {
  return partition(parse_lines(text), pack);
}

void write_task_set(std::ostream& os, const rt::TaskSet& ts) {
  for (const rt::Task& t : ts) {
    os << t.name << ' ' << t.wcet << ' ' << t.period;
    if (t.deadline != t.period) os << ' ' << t.deadline;
    os << ' ' << rt::to_string(t.mode) << '\n';
  }
}

}  // namespace flexrt::io
