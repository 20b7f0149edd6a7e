#include <algorithm>
#include <charconv>
#include <map>
#include <utility>

#include "common/rng.hpp"
#include "core/analysis_engine.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "perfbench.hpp"
#include "svc/jsonl.hpp"

namespace perfbench {

using namespace flexrt;

namespace {

constexpr double kOTot = 0.05;
constexpr double kFilterPeriod = 0.5;
/// Longest period of a generated system: the paper example's (30).
constexpr double kLongest = 30.0;

/// Task lines with explicit channel pins, in `order` (task names).
SystemText render(const core::ModeTaskSystem& sys,
                  const std::vector<std::string>& order) {
  std::map<std::string, std::string> line_of;
  for (rt::Mode mode : core::kAllModes) {
    const auto parts = sys.partitions(mode);
    for (std::size_t c = 0; c < parts.size(); ++c) {
      for (const rt::Task& t : parts[c]) {
        std::string line = t.name + ' ' + shortest(t.wcet) + ' ' +
                           shortest(t.period);
        if (t.deadline != t.period) line += ' ' + shortest(t.deadline);
        line += ' ';
        line += rt::to_string(mode);
        line += ' ' + std::to_string(c) + '\n';
        line_of.emplace(t.name, std::move(line));
      }
    }
  }
  SystemText out;
  for (const std::string& name : order) {
    out.text += line_of.at(name);
    ++out.tasks;
  }
  return out;
}

/// The task with the longest period gets kLongest (its utilization kept).
/// The design search scans down from 3x the largest deadline, so this
/// gives every generated system the same search range and keeps the
/// per-solve cost from swinging with the draw.
rt::TaskSet stretch_longest(const rt::TaskSet& ts) {
  std::size_t longest = 0;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    if (ts[i].period > ts[longest].period) longest = i;
  }
  rt::TaskSet out;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    rt::Task t = ts[i];
    if (i == longest) {
      t.wcet = t.utilization() * kLongest;
      t.period = t.deadline = kLongest;
    }
    out.add(std::move(t));
  }
  return out;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string shortest(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

SystemText corpus_system(std::uint64_t seed, std::size_t index,
                         const DrawHook& on_draw) {
  if (index == 0) {
    std::vector<std::string> order;
    for (const rt::Task& t : core::paper_example_tasks()) order.push_back(t.name);
    return render(core::paper_example(), order);
  }
  Rng rng = core::trial_rng(splitmix(seed ^ 0xC0A9u), index);
  gen::GenParams params;
  params.num_tasks = 4 + (index - 1) % 13;
  params.period_menu = {4, 5, 6, 8, 10, 12, 15, 20, 24, kLongest};
  for (;;) {
    params.total_utilization = rng.uniform(0.4, 0.9);
    const Clock::time_point t0 = Clock::now();
    const rt::TaskSet ts = stretch_longest(gen::generate_task_set(params, rng));
    const std::optional<core::ModeTaskSystem> sys = gen::build_system(ts);
    if (on_draw) on_draw(t0, Clock::now(), sys.has_value());
    if (!sys) continue;
    // One serial probe: lhs(0.5) >= O_tot means the min-overhead search
    // has a feasible period, so the cycle's solve/minq/verify all apply.
    const analysis::BatchEngine engine(*sys, hier::Scheduler::EDF);
    if (engine.feasibility_margin(kFilterPeriod) < kOTot + 1e-6) continue;
    std::vector<std::string> order;
    for (const rt::Task& t : ts) order.push_back(t.name);
    return render(*sys, order);
  }
}

std::string system_text(const core::ModeTaskSystem& sys) {
  std::vector<std::string> order;
  for (rt::Mode mode : core::kAllModes) {
    for (const rt::TaskSet& part : sys.partitions(mode)) {
      for (const rt::Task& t : part) order.push_back(t.name);
    }
  }
  return render(sys, order).text;
}

std::string permute_lines(const std::string& text, std::uint64_t salt) {
  // Lines are grouped by their channel pin ("mode channel", the last two
  // tokens); a random merge of the groups keeps each channel's own order.
  std::map<std::string, std::vector<std::string>> groups;
  std::vector<std::string> labels;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string line = text.substr(start, nl - start + 1);
    start = nl + 1;
    const std::size_t last = line.find_last_of(' ');
    const std::size_t prev = line.find_last_of(' ', last - 1);
    std::string label = line.substr(prev + 1);
    labels.push_back(label);
    groups[label].push_back(std::move(line));
  }
  Rng rng(splitmix(salt));
  for (std::size_t i = labels.size(); i > 1; --i) {
    std::swap(labels[i - 1],
              labels[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::map<std::string, std::size_t> next;
  std::string out;
  for (const std::string& label : labels) out += groups[label][next[label]++];
  return out;
}

std::string overhead_flag() {
  const std::string o = shortest(kOTot / 3);
  return o + ',' + o + ',' + o;
}

LightStream::LightStream(std::uint64_t seed, std::size_t client,
                         std::size_t clients)
    : seed_(seed),
      client_(client),
      clients_(clients),
      rng_state_(splitmix(seed ^ (0x11C7ull + client))) {}

std::uint64_t LightStream::draw() {
  rng_state_ = splitmix(rng_state_);
  return rng_state_;
}

Cycle LightStream::next() {
  Cycle c;
  const std::size_t j = j_++;
  const double u = static_cast<double>(draw() >> 11) * 0x1.0p-53;
  if (!seen_.empty() && u < 0.25) {
    c.system = seen_[draw() % seen_.size()];
    c.resubmit = true;
    c.permuted = (draw() & 1) != 0;
  } else if (client_ == 0 && j == 0) {
    c.system = 0;  // the paper example
  } else {
    c.system = 1 + client_ + clients_ * fresh_++;
  }
  if (!c.resubmit) seen_.push_back(c.system);
  const SystemText sys = corpus_system(seed_, c.system);
  c.text = c.permuted ? permute_lines(sys.text, draw()) : sys.text;
  c.tasks = sys.tasks;
  c.name = std::to_string(client_);
  c.name.insert(0, 1, 'c');
  c.name += 'n' + std::to_string(j);
  if (c.system == 0) c.name += "paper";
  return c;
}

std::string number_text(const std::string& row, const char* key) {
  const std::optional<double> v = svc::json_number_field(row, key);
  return v ? shortest(*v) : std::string();
}

std::string mask_threads(const std::string& reply) {
  const std::string pat = "\"threads\":";
  const std::size_t at = reply.find(pat);
  if (at == std::string::npos) return reply;
  const std::size_t begin = at + pat.size();
  std::size_t end = begin;
  while (end < reply.size() && reply[end] >= '0' && reply[end] <= '9') ++end;
  return reply.substr(0, begin) + "*" + reply.substr(end);
}

}  // namespace perfbench
