#pragma once

// Strict numeric argv parsing shared by the bench front-ends: the whole
// token must parse, so a malformed value ("--horizon abc", "--trials 1e3")
// prints which flag rejected it and exits 2 -- the same convention as
// flexrt_design -- instead of aborting on an uncaught std::invalid_argument
// or silently truncating ("100x" -> 100) the way raw std::stod/stoi do,
// and a negative count is rejected, never wrapped to 2^64 - 1.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/text.hpp"

namespace flexrt::bench {

inline double parse_num(const char* flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos == v.size()) return out;
  } catch (const std::exception&) {
  }
  std::cerr << flag << ": bad number '" << v << "'\n";
  std::exit(2);
}

inline std::size_t parse_count(const char* flag, const std::string& v) {
  if (const std::optional<std::uint64_t> out = text::parse_count(v)) {
    return static_cast<std::size_t>(*out);
  }
  std::cerr << flag << ": bad count '" << v << "'\n";
  std::exit(2);
}

}  // namespace flexrt::bench
