#pragma once

// Shared pieces of the perfbench load generator and traced replay: the
// seeded system corpus and the per-client request streams. Result files
// for run.py are flat svc::JsonRow rows.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace flexrt::core {
class ModeTaskSystem;
}  // namespace flexrt::core

namespace perfbench {

/// One task system in wire form: task lines ("name C T [D] mode channel"),
/// each '\n'-terminated, ready to follow an `add` command.
struct SystemText {
  std::string text;
  std::size_t tasks = 0;
};

using Clock = std::chrono::steady_clock;

/// Observer of each generator draw (gen::generate_task_set + packing):
/// its start, end, and whether the packing succeeded.
using DrawHook =
    std::function<void(Clock::time_point, Clock::time_point, bool packed)>;

/// Seeded corpus: index 0 is the paper's 13-task example; index k >= 1 is a
/// library-generated system of 4 + (k - 1) % 13 tasks with periods up to
/// the paper example's 30 (one task always at 30), packed onto the
/// platform channels (pins written out) and kept only when lhs(0.5) clears
/// the paper's O_tot, so every `solve` of the light cycle is feasible.
/// Deterministic in (seed, index).
SystemText corpus_system(std::uint64_t seed, std::size_t index,
                         const DrawHook& on_draw = {});

/// Task lines of an already packed system, channel pins included.
std::string system_text(const flexrt::core::ModeTaskSystem& sys);

/// The same task lines in a seeded random order that keeps every channel's
/// own task order (a permuted re-submit). Reordering tasks *within* a
/// channel is left out on purpose: the answer memo keys such a system to
/// the first-seen order's answer, whose sweep margins differ from a cold
/// computation in the last bits, so those re-submits would fail the
/// byte-identity gate on every run (see perfbench/README.md).
std::string permute_lines(const std::string& text, std::uint64_t salt);

/// The paper's O_tot = 0.05, split evenly, as the `--overhead` flag value.
std::string overhead_flag();

/// One light-client cycle: the system it adds, under which name.
struct Cycle {
  std::size_t system = 0;  ///< corpus index
  bool resubmit = false;   ///< an earlier system of this client again
  bool permuted = false;   ///< ... with its task lines reordered
  std::string name;
  std::string text;  ///< the add body
  std::size_t tasks = 0;
};

/// Light client `client`'s cycle `j` -- deterministic in (seed, client, j).
/// Client 0 starts with the paper example; about a quarter of later cycles
/// re-submit one of the client's earlier systems, half of those permuted.
class LightStream {
 public:
  LightStream(std::uint64_t seed, std::size_t client, std::size_t clients);
  Cycle next();

 private:
  std::uint64_t seed_;
  std::size_t client_;
  std::size_t clients_;
  std::size_t j_ = 0;
  std::size_t fresh_ = 0;
  std::uint64_t rng_state_;
  std::vector<std::size_t> seen_;
  std::uint64_t draw();
};

/// Shortest round-trip text of `v`: how svc::JsonRow renders a double.
std::string shortest(double v);

/// A numeric field of a reply row re-rendered as its writer (svc::JsonRow)
/// rendered it, so periods and quanta echo back byte for byte; "" when the
/// field is absent.
std::string number_text(const std::string& row, const char* key);

/// Replaces the value of `"threads":N` in a status row by "*": the one field
/// of a wire reply that legitimately depends on the pool width.
std::string mask_threads(const std::string& reply);

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Subcommands (main.cpp dispatches).
int run_wire(const std::map<std::string, std::string>& opts);
int run_trace(const std::map<std::string, std::string>& opts);
int run_spawn(int argc, char** argv);

}  // namespace perfbench
