// Differential property tests of the text layer against the frozen copies in
// bench/legacy_kernels.hpp: JSONL rows and the JSONL writer are
// byte-identical to the old renderer; task lines parse to bit-identical
// tasks and channels, or to the identical error text; the command tokenizer
// splits exactly where operator>> does; and flag numbers read exactly what
// std::stod reads.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "io/task_io.hpp"
#include "legacy_kernels.hpp"
#include "net/proto.hpp"
#include "svc/jsonl.hpp"

namespace flexrt {
namespace {

constexpr int kRows = 100000;
constexpr int kLines = 100000;
constexpr int kBlocks = 10000;
constexpr int kTokenLines = 100000;
constexpr int kNumbers = 100000;

template <typename T, std::size_t N>
const T& pick(Rng& rng, const T (&items)[N]) {
  return items[rng.uniform_int(0, static_cast<std::int64_t>(N) - 1)];
}

bool coin(Rng& rng, double p) { return rng.uniform01() < p; }

/// Up to `max_len` bytes: printable ASCII half the time, any of the 256
/// byte values otherwise (every escape, every control byte, UTF-8 junk).
std::string random_bytes(Rng& rng, std::int64_t max_len) {
  std::string s(static_cast<std::size_t>(rng.uniform_int(0, max_len)), '\0');
  const bool printable = coin(rng, 0.5);
  for (char& c : s) {
    c = static_cast<char>(printable ? rng.uniform_int(0x20, 0x7e)
                                    : rng.uniform_int(0, 255));
  }
  return s;
}

double random_double(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  static const double kSpecial[] = {
      0.0,   -0.0,    kInf,  -kInf, kNan, -kNan, kTiny, -kTiny, kMin,
      -kMin, kMax,    -kMax, 1e300, -1e300, 1e-300, -1e-300, 1.0, 2.0,
      0.1,   1e21,    1e22,  5e-324, 2.5e-310, 123456789012345680.0};
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return pick(rng, kSpecial);
    case 1:  // any bit pattern: nan payloads, infinities, every binade
      return std::bit_cast<double>(rng());
    case 2:  // zeros and subnormals of either sign
      return std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFull);
    default:
      return rng.uniform(-1e3, 1e3);
  }
}

std::int64_t random_int(Rng& rng) {
  static const std::int64_t kSpecial[] = {
      0, 1, -1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  return coin(rng, 0.3) ? pick(rng, kSpecial)
                        : static_cast<std::int64_t>(rng()) >>
                              rng.uniform_int(0, 63);
}

std::size_t random_size(Rng& rng) {
  static const std::size_t kSpecial[] = {
      0, 1, 10, std::numeric_limits<std::size_t>::max()};
  return coin(rng, 0.3) ? pick(rng, kSpecial)
                        : static_cast<std::size_t>(rng() >>
                                                   rng.uniform_int(0, 63));
}

/// Appends one random field to both rows.
void add_field(Rng& rng, svc::JsonRow& row, legacy::JsonRow& old) {
  const std::string key = random_bytes(rng, 10);
  switch (rng.uniform_int(0, 7)) {
    case 0: {
      const double v = random_double(rng);
      row.field(key, v);
      old.field(key, v);
      break;
    }
    case 1: {
      const std::int64_t v = random_int(rng);
      row.field(key, v);
      old.field(key, v);
      break;
    }
    case 2: {
      const std::size_t v = random_size(rng);
      row.field(key, v);
      old.field(key, v);
      break;
    }
    case 3: {
      const bool v = coin(rng, 0.5);
      row.field(key, v);
      old.field(key, v);
      break;
    }
    case 4: {
      const std::string v = random_bytes(rng, 24);
      row.field(key, std::string_view(v));
      old.field(key, std::string_view(v));
      break;
    }
    case 5: {  // the const char* overload stops at the first NUL
      const std::string v = random_bytes(rng, 24);
      row.field(key, v.c_str());
      old.field(key, v.c_str());
      break;
    }
    case 6: {
      std::vector<double> v(static_cast<std::size_t>(rng.uniform_int(0, 5)));
      for (double& x : v) x = random_double(rng);
      row.field(key, std::span<const double>(v));
      old.field(key, std::span<const double>(v));
      break;
    }
    default:
      row.null_field(key);
      old.null_field(key);
  }
}

TEST(TextOracle, RowsMatchTheFrozenRenderer) {
  Rng rng(0x7E47);
  for (int i = 0; i < kRows; ++i) {
    svc::JsonRow row;
    legacy::JsonRow old;
    const auto fields = rng.uniform_int(0, 12);
    for (std::int64_t f = 0; f < fields; ++f) add_field(rng, row, old);
    const std::string want = old.str();
    ASSERT_EQ(row.str(), want) << "row " << i;
    ASSERT_EQ(row.str(), want) << "row " << i << ": str() must not consume";
    ASSERT_EQ(std::move(row).str(), want) << "row " << i;
  }
}

TEST(TextOracle, EscapingMatchesTheFrozenEscaper) {
  Rng rng(0xE5C);
  for (int c = 0; c < 256; ++c) {
    const std::string one(1, static_cast<char>(c));
    ASSERT_EQ(svc::json_escape(one), legacy::json_escape(one)) << c;
  }
  for (int i = 0; i < kRows; ++i) {
    const std::string raw = random_bytes(rng, 40);
    ASSERT_EQ(svc::json_escape(raw), legacy::json_escape(raw)) << i;
  }
}

TEST(TextOracle, JsonlWriterMatchesTheFrozenWrite) {
  Rng rng(0x1A5);
  for (const bool flush : {false, true}) {
    std::ostringstream out, old_out;
    svc::JsonlWriter writer(out, flush);
    for (std::size_t i = 0; i < 2000; ++i) {
      svc::JsonRow row;
      legacy::JsonRow old;
      const auto fields = rng.uniform_int(0, 8);
      for (std::int64_t f = 0; f < fields; ++f) add_field(rng, row, old);
      if (coin(rng, 0.5)) {
        writer.write(row);
      } else {
        writer.write(std::move(row).str());
      }
      legacy::jsonl_write(old_out, old.str(), flush, i);
    }
    EXPECT_EQ(out.str(), old_out.str());
    EXPECT_EQ(writer.rows_written(), 2000u);
  }
}

// --- task lines ------------------------------------------------------------

constexpr const char* kWhitespace[] = {" ", "\t", "\v", "\f", "\r"};

/// A number token from the grammar the task-file and flag readers meet:
/// decimals, exponents, a sign, hex floats, inf/nan, subnormals,
/// out-of-range values, partial numbers and junk.
std::string number_token(Rng& rng) {
  static const char* const kFixed[] = {
      "1", "2", "10", "0.5", ".5", "5.", "1e3", "1E-3", "2.5e+1", "+2",
      "-1", "0", "-0", "00", "0.0", "0x1p3", "0X1.8P1", "0x10", "0x", "inf",
      "-inf", "+inf", "Infinity", "INF", "nan", "NaN", "-nan", "nan(1)",
      "1e-320", "4.9e-324", "-1e-310", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "1e999", "-1e999", "1e-999", "1e308",
      "1.7976931348623157e308", "1.7976931348623159e308", "1e", "1e+",
      "--1", "1.2.3", "e5", "1x", "abc", ".", "-", "+", "1,5", "FT", "fs",
      "\xd9\xa1", "1\xff"};
  char buf[64];
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return pick(rng, kFixed);
    case 1: {  // shortest round trip of any bit pattern
      const double v = std::bit_cast<double>(rng());
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
      return std::string(buf, end);
    }
    case 2: {  // a positive value of a wide range, printed several ways
      const double v = std::exp(rng.uniform(-745.0, 710.0));
      static const char* const kFormats[] = {"%.17g", "%.3e", "%g", "%a",
                                             "%.0f", "%f"};
      std::snprintf(buf, sizeof buf, pick(rng, kFormats), v);
      return buf;
    }
    case 3: {  // digits, a point and an exponent, each optional
      std::string s;
      if (coin(rng, 0.1)) s += coin(rng, 0.5) ? '-' : '+';
      const auto digits = rng.uniform_int(0, 22);
      const auto point = rng.uniform_int(-1, digits);
      for (std::int64_t k = 0; k < digits; ++k) {
        if (k == point) s += '.';
        s += static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      if (coin(rng, 0.4)) {
        s += coin(rng, 0.5) ? 'e' : 'E';
        if (coin(rng, 0.5)) s += coin(rng, 0.5) ? '-' : '+';
        s += std::to_string(rng.uniform_int(0, 400));
      }
      return s;
    }
    case 4: {  // a subnormal
      const double v = std::bit_cast<double>(rng() & 0x000FFFFFFFFFFFFFull);
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
      return std::string(buf, end);
    }
    default:
      return random_bytes(rng, 6);
  }
}

std::string name_token(Rng& rng) {
  static const char* const kNames[] = {"tau1", "a", "t_x", "\xcf\x84",
                                       "x#y", "#", "n\xff"};
  return coin(rng, 0.7) ? pick(rng, kNames) : random_bytes(rng, 5);
}

std::string mode_token(Rng& rng) {
  static const char* const kModes[] = {
      "FT", "FS", "NF", "ft", "fs", "nf", "Ft", "fS", "nF",
      "XX", "F",  "FTS", "N", "1",  "f\xff", "\xc6T"};
  return pick(rng, kModes);
}

std::string channel_token(Rng& rng) {
  static const char* const kChannels[] = {
      "0",  "1",   "2",   "3",  "4", "-1", "+1", "01", "007", "-0", "+0",
      "99999999999999999999", "1.0", "x", "0x1", "1e0"};
  return pick(rng, kChannels);
}

/// A decimal token of `v` in one of several spellings.
std::string spell(Rng& rng, double v) {
  char buf[64];
  if (coin(rng, 0.5)) {
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, end);
  }
  std::snprintf(buf, sizeof buf, coin(rng, 0.5) ? "%.17g" : "%g", v);
  return buf;
}

/// One task line from a token grammar: 3-7 tokens, mostly well formed so
/// tasks parse, with any token replaced by junk now and then; separators
/// from the whole classic whitespace set, leading and trailing blanks,
/// '#' comments and CR line ends.
std::string task_line(Rng& rng) {
  std::vector<std::string> tokens;
  tokens.push_back(name_token(rng));
  if (coin(rng, 0.6)) {  // C <= D <= T, so the task validates
    const double t = std::exp(rng.uniform(-30.0, 30.0));
    const double d = t * rng.uniform(0.0, 1.0);
    const double c = d * rng.uniform(0.0, 1.0);
    tokens.push_back(spell(rng, c));
    tokens.push_back(spell(rng, t));
    if (coin(rng, 0.5)) tokens.push_back(spell(rng, d));
  } else {
    tokens.push_back(number_token(rng));
    tokens.push_back(number_token(rng));
    if (coin(rng, 0.5)) tokens.push_back(number_token(rng));
  }
  tokens.push_back(mode_token(rng));
  if (coin(rng, 0.6)) tokens.push_back(channel_token(rng));
  if (coin(rng, 0.05)) tokens.push_back(number_token(rng));
  if (coin(rng, 0.1)) {  // drop one token: short lines, missing modes
    tokens.erase(tokens.begin() + rng.uniform_int(
                                      0, static_cast<std::int64_t>(tokens.size()) - 1));
  }
  if (coin(rng, 0.1)) {  // one token replaced by junk
    tokens[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(tokens.size()) - 1))] =
        number_token(rng);
  }
  std::string line;
  if (coin(rng, 0.2)) line += pick(rng, kWhitespace);
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    if (k) {
      const auto gap = rng.uniform_int(1, 3);
      for (std::int64_t g = 0; g < gap; ++g) line += pick(rng, kWhitespace);
    }
    line += tokens[k];
  }
  if (coin(rng, 0.2)) line += pick(rng, kWhitespace);
  if (coin(rng, 0.1)) line += coin(rng, 0.5) ? " # comment" : "#";
  if (coin(rng, 0.2)) line += '\r';
  return line;
}

bool same_task(const rt::Task& a, const rt::Task& b) {
  return a.name == b.name && a.mode == b.mode &&
         std::bit_cast<std::uint64_t>(a.wcet) ==
             std::bit_cast<std::uint64_t>(b.wcet) &&
         std::bit_cast<std::uint64_t>(a.period) ==
             std::bit_cast<std::uint64_t>(b.period) &&
         std::bit_cast<std::uint64_t>(a.deadline) ==
             std::bit_cast<std::uint64_t>(b.deadline);
}

/// The old parser's outcome on a task file: its lines, or its error text.
/// Where it threw something other than a ModelError -- std::out_of_range
/// from an out-of-range or subnormal deadline -- `error` is the text the
/// new parser gives instead: the line and the deadline token.
struct Outcome {
  std::vector<legacy::ParsedLine> lines;
  std::optional<std::string> error;
};

Outcome legacy_parse(const std::string& text) {
  Outcome out;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    try {
      if (auto parsed = legacy::parse_line(raw, line_no)) {
        out.lines.push_back(std::move(*parsed));
      }
    } catch (const ModelError& e) {
      out.error = e.what();
      return out;
    } catch (const std::out_of_range&) {
      const std::vector<std::string> tokens =
          legacy::split_tokens(raw.substr(0, raw.find('#')));
      out.error = "task file line " + std::to_string(line_no) +
                  ": bad deadline '" + tokens.at(3) + "'";
      return out;
    }
  }
  return out;
}

/// Compares the new parser on `text` against the old one, task by task.
void expect_same_parse(const std::string& text, const Outcome& want) {
  SCOPED_TRACE("text: '" + text + "'");
  try {
    const rt::TaskSet got = io::parse_task_set_string(text);
    ASSERT_FALSE(want.error) << "the old parser failed: " << *want.error;
    ASSERT_EQ(got.size(), want.lines.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_TRUE(same_task(got[k], want.lines[k].task)) << "task " << k;
    }
  } catch (const ModelError& e) {
    ASSERT_TRUE(want.error) << "the old parser accepted it: " << e.what();
    ASSERT_EQ(std::string(e.what()), *want.error);
  }
}

TEST(TextOracle, TaskLinesMatchTheFrozenParser) {
  Rng rng(0x7A5C);
  std::size_t parsed = 0, pinned = 0, failed = 0, non_model = 0;
  for (int i = 0; i < kLines; ++i) {
    const std::string line = task_line(rng);
    const Outcome want = legacy_parse(line);
    expect_same_parse(line, want);
    if (HasFatalFailure()) return;
    if (want.error) {
      ++failed;
      non_model += want.error->find("bad deadline") != std::string::npos;
      continue;
    }
    parsed += want.lines.size();
    if (want.lines.size() != 1 || !want.lines[0].channel) continue;
    // A pinned task lands on its channel.
    ++pinned;
    const legacy::ParsedLine& p = want.lines[0];
    const io::ParsedSystem sys = io::parse_mode_task_system_string(line);
    EXPECT_TRUE(sys.had_explicit_channels);
    const auto parts = sys.system.partitions(p.task.mode);
    ASSERT_LT(*p.channel, parts.size());
    ASSERT_EQ(parts[*p.channel].size(), 1u) << line;
    EXPECT_TRUE(same_task(parts[*p.channel][0], p.task)) << line;
  }
  // The grammar reaches every outcome, often.
  EXPECT_GT(parsed, static_cast<std::size_t>(kLines) / 10);
  EXPECT_GT(pinned, static_cast<std::size_t>(kLines) / 50);
  EXPECT_GT(failed, static_cast<std::size_t>(kLines) / 10);
  EXPECT_GT(non_model, 10u);
}

/// An error text with the source location of a FLEXRT_REQUIRE dropped:
/// the frozen copy's requirement names its own file.
std::string without_location(const std::string& what) {
  const std::size_t at = what.find("requirement failed");
  return at == std::string::npos ? what : what.substr(at);
}

TEST(TextOracle, TaskFilesMatchTheFrozenParserLineForLine) {
  Rng rng(0xB10C);
  for (int i = 0; i < kBlocks; ++i) {
    std::string text;
    const auto lines = rng.uniform_int(0, 8);
    for (std::int64_t k = 0; k < lines; ++k) {
      text += coin(rng, 0.1) ? std::string(coin(rng, 0.5) ? "" : " \t")
                             : task_line(rng);
      if (k + 1 < lines || coin(rng, 0.5)) text += '\n';
    }
    const Outcome want = legacy_parse(text);
    expect_same_parse(text, want);
    if (HasFatalFailure()) return;
    // The whole path: lines, channel pins and the partition.
    std::optional<io::ParsedSystem> old_sys, new_sys, stream_sys;
    std::string old_err, new_err, stream_err;
    try {
      old_sys = legacy::parse_mode_task_system_string(text);
    } catch (const ModelError& e) {
      old_err = without_location(e.what());
    } catch (const std::out_of_range&) {
      old_err = *want.error;
    }
    try {
      new_sys = io::parse_mode_task_system_string(text);
    } catch (const ModelError& e) {
      new_err = without_location(e.what());
    }
    try {
      std::istringstream in(text);
      stream_sys = io::parse_mode_task_system(in);
    } catch (const ModelError& e) {
      stream_err = without_location(e.what());
    }
    ASSERT_EQ(new_err, old_err) << text;
    ASSERT_EQ(stream_err, old_err) << text;
    ASSERT_EQ(new_sys.has_value(), old_sys.has_value());
    if (!old_sys) continue;
    for (const io::ParsedSystem* got : {&*new_sys, &*stream_sys}) {
      ASSERT_EQ(got->had_explicit_channels, old_sys->had_explicit_channels);
      for (const rt::Mode mode : core::kAllModes) {
        const auto a = got->system.partitions(mode);
        const auto b = old_sys->system.partitions(mode);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t c = 0; c < a.size(); ++c) {
          ASSERT_EQ(a[c].size(), b[c].size()) << text;
          for (std::size_t k = 0; k < a[c].size(); ++k) {
            ASSERT_TRUE(same_task(a[c][k], b[c][k])) << text;
          }
        }
      }
    }
  }
}

// --- command tokens and flag numbers ---------------------------------------

TEST(TextOracle, SplitTokensMatchesIstringstream) {
  Rng rng(0x5B17);
  for (int i = 0; i < kTokenLines; ++i) {
    std::string line(static_cast<std::size_t>(rng.uniform_int(0, 40)), ' ');
    for (char& c : line) {
      // Whitespace-heavy, with every byte value possible.
      c = coin(rng, 0.3) ? *pick(rng, kWhitespace)
                         : static_cast<char>(coin(rng, 0.1) ? '\n'
                                             : rng.uniform_int(0, 255));
    }
    ASSERT_EQ(net::proto::split_tokens(line), legacy::split_tokens(line))
        << "line " << i;
  }
}

/// The flag readers' reference: std::stod on the whole token.
std::optional<double> stod_whole(const std::string& token) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(token, &consumed);
    if (consumed == token.size()) return v;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

TEST(TextOracle, NumbersReadExactlyWhatStodReads) {
  Rng rng(0xF10A7);
  std::size_t fast = 0;
  for (int i = 0; i < kNumbers; ++i) {
    std::string token = number_token(rng);
    if (coin(rng, 0.05)) token.insert(0, pick(rng, kWhitespace));
    const std::optional<double> want = stod_whole(token);
    const std::optional<double> got = text::parse_double(token);
    ASSERT_EQ(got.has_value(), want.has_value()) << "'" << token << "'";
    if (!want) {
      EXPECT_THROW(net::proto::parse_num("--x", token), ModelError) << token;
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(*want))
        << "'" << token << "'";
    fast += std::isnormal(*want);
  }
  EXPECT_GT(fast, static_cast<std::size_t>(kNumbers) / 4);
}

TEST(TextOracle, CountsReadWhatStoullReadsExceptNegatives) {
  // std::stoull negates a '-' token into 2^64 - n; parse_count refuses any
  // '-' and otherwise reads the whole token exactly as stoull does.
  struct Case {
    const char* token;
    int base;
    std::optional<std::uint64_t> want;
  };
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  for (const Case& c : std::vector<Case>{{"0", 10, 0},
                                         {"12", 10, 12},
                                         {"+7", 10, 7},
                                         {" 5", 10, 5},
                                         {"18446744073709551615", 10, max},
                                         {"0x5EED", 0, 0x5EED},
                                         {"-1", 10, std::nullopt},
                                         {"-0", 10, std::nullopt},
                                         {" -3", 0, std::nullopt},
                                         {"18446744073709551616", 10, std::nullopt},
                                         {"1e3", 10, std::nullopt},
                                         {"12 ", 10, std::nullopt},
                                         {"", 10, std::nullopt},
                                         {"0x5EED", 10, std::nullopt}}) {
    EXPECT_EQ(text::parse_count(c.token, c.base), c.want)
        << "'" << c.token << "' base " << c.base;
  }
}

}  // namespace
}  // namespace flexrt
