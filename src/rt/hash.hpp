#pragma once

#include <cstdint>
#include <string_view>

namespace flexrt::rt {

/// 128-bit content hash: the key space of the process-wide answer memo
/// (svc::MemoCache). Two lanes of splitmix-style mixing -- collisions are
/// a correctness hazard (a colliding system would receive another
/// system's cached answer), so the memo-key test bank checks a
/// 10^4-system corpus stays collision-free.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;

  /// True for a default-constructed (never assigned) hash; digests are
  /// salted so a real digest is never {0, 0}.
  bool empty() const noexcept { return hi == 0 && lo == 0; }
};

/// Incremental 128-bit hasher. Order-sensitive and exact: every value
/// contributes its raw bits, so streams that differ in any bit of any
/// value, or in order, get different digests (barring a 128-bit
/// collision).
class HashStream {
 public:
  HashStream& u64(std::uint64_t v) noexcept;
  /// The raw bit pattern of `v` (-0.0 and +0.0 hash differently).
  HashStream& f64(double v) noexcept;
  HashStream& boolean(bool v) noexcept { return u64(v ? 1 : 0); }
  /// Length-prefixed, so ("ab","c") and ("a","bc") cannot collide.
  HashStream& str(std::string_view s) noexcept;

  Hash128 digest() const noexcept;

 private:
  std::uint64_t a_ = 0x243f6a8885a308d3ull;  // pi
  std::uint64_t b_ = 0x13198a2e03707344ull;
};

}  // namespace flexrt::rt
