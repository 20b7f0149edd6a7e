#include "rt/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace flexrt::rt {
namespace {

/// splitmix64 finalizer: the mixing primitive of both hash lanes.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

HashStream& HashStream::u64(std::uint64_t v) noexcept {
  a_ = mix(a_ ^ mix(v));
  b_ = mix(b_ + mix(v ^ 0x6a09e667f3bcc909ull));
  return *this;
}

HashStream& HashStream::f64(double v) noexcept {
  return u64(std::bit_cast<std::uint64_t>(v));
}

HashStream& HashStream::str(std::string_view s) noexcept {
  u64(s.size());
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, s.size() - i);
    std::memcpy(&word, s.data() + i, n);
    u64(word);
  }
  return *this;
}

Hash128 HashStream::digest() const noexcept {
  Hash128 h;
  h.hi = mix(a_ + 0x510e527fade682d1ull);
  h.lo = mix(b_ ^ a_);
  if (h.empty()) h.lo = 1;  // keep {0,0} as the "never assigned" sentinel
  return h;
}

}  // namespace flexrt::rt
