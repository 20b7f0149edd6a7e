#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace flexrt::text {

/// Tokenizing and number reading for the line-oriented inputs (task files,
/// wire command lines, flag values), without a stream or a string copy per
/// token.

/// The classic-locale whitespace set -- the bytes `operator>>` splits
/// tokens on: space, \t, \n, \v, \f and \r.
constexpr bool is_space(char c) noexcept {
  switch (c) {
    case ' ':
    case '\t':
    case '\n':
    case '\v':
    case '\f':
    case '\r':
      return true;
    default:
      return false;
  }
}

/// The next whitespace-separated token of `rest`, which advances past it;
/// empty once only whitespace remains.
std::string_view next_token(std::string_view& rest) noexcept;

/// The whole token as a double, exactly as std::stod reads it: nullopt when
/// stod throws or stops short of the token's end. A token std::from_chars
/// takes whole to a normal value above the smallest normal is read by
/// from_chars; both round correctly, so the value is stod's. Every other
/// token -- 0, subnormals, inf, nan, hex floats, a leading '+' or blank,
/// out-of-range values, junk -- runs through std::stod itself.
std::optional<double> parse_double(std::string_view token);

/// The whole token as a count, exactly as std::stoull reads it in `base`
/// (0 takes any C base: "0x5EED"), except that a token holding a '-' is
/// rejected -- stoull negates "-1" into 2^64 - 1, and no count is negative.
/// nullopt too when stoull throws or stops short of the token's end.
std::optional<std::uint64_t> parse_count(std::string_view token,
                                         int base = 10);

}  // namespace flexrt::text
