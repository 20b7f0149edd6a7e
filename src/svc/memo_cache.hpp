#pragma once

#include <cstddef>
#include <cstdint>

// A stub for perfbench/, its only includer: the answer memo is gone, so
// global_memo() keeps and counts nothing, and stats() reads zeros with
// enabled == false. ROADMAP 5B deletes this header.
namespace flexrt::svc {

struct MemoStats {
  std::uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
  std::size_t entries = 0, bytes = 0, capacity_bytes = 0;
  bool enabled = true;
};

struct NoMemo {
  void set_enabled(bool) noexcept {}
  void clear() noexcept {}
  MemoStats stats() const noexcept {
    MemoStats none;
    none.enabled = false;
    return none;
  }
};

inline NoMemo& global_memo() noexcept {
  static NoMemo memo;
  return memo;
}

}  // namespace flexrt::svc
