#include "common/text.hpp"

#include <charconv>
#include <cmath>
#include <exception>
#include <limits>
#include <string>

namespace flexrt::text {

std::string_view next_token(std::string_view& rest) noexcept {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

std::optional<double> parse_double(std::string_view token) {
  const char* const last = token.data() + token.size();
  double fast = 0.0;
  const auto [end, ec] = std::from_chars(token.data(), last, fast);
  // std::stod reports ERANGE for a result that underflows, and whether a
  // value that rounds up to the smallest normal underflowed depends on the
  // platform's tininess rule: those values, like every subnormal, take the
  // slow path.
  if (ec == std::errc{} && end == last && std::isfinite(fast) &&
      std::fabs(fast) > std::numeric_limits<double>::min()) {
    return fast;
  }
  try {
    const std::string s(token);
    std::size_t consumed = 0;
    const double v = std::stod(s, &consumed);
    if (consumed == s.size()) return v;
  } catch (const std::exception&) {  // invalid_argument / out_of_range
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parse_count(std::string_view token, int base) {
  if (token.find('-') != std::string_view::npos) return std::nullopt;
  try {
    const std::string s(token);
    std::size_t consumed = 0;
    const unsigned long long v = std::stoull(s, &consumed, base);
    if (consumed == s.size()) return v;
  } catch (const std::exception&) {  // invalid_argument / out_of_range
  }
  return std::nullopt;
}

}  // namespace flexrt::text
