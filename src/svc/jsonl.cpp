#include "svc/jsonl.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/error.hpp"

namespace flexrt::svc {
namespace {

/// A typical row: the wire sweep's sample rows fit, so most rows allocate
/// once.
constexpr std::size_t kRowReserve = 128;

/// The most bytes one escaped byte takes ("\u00XX").
constexpr std::size_t kMaxEscape = 6;

/// The most bytes a number takes: "-2.2250738585072014e-308" (INT64_MIN and
/// SIZE_MAX are shorter).
constexpr std::size_t kNumberBytes = 32;

/// Fields up to this size are staged on the stack.
constexpr std::size_t kStageBytes = 256;

/// True for the bytes JSON needs escaped.
constexpr bool needs_escape(char ch) {
  const auto c = static_cast<unsigned char>(ch);
  return c < 0x20 || c == '"' || c == '\\';
}

char* write(char* p, std::string_view s) {
  return std::copy(s.begin(), s.end(), p);
}

/// Writes `raw` JSON-escaped (quotes excluded) at `p`, which has room for
/// kMaxEscape bytes per byte of `raw`; returns the end. The escapes are
/// \" and \\ for the quote and the backslash, \n \r \t, and \u00XX
/// (lower-case hex) for the other bytes below 0x20.
char* write_escaped(char* p, std::string_view raw) {
  // Most strings need no escape: copy while checking, without a branch per
  // byte, and redo only the rare string that does.
  bool escape = false;
  char* end = p;
  for (const char c : raw) {
    *end++ = c;
    escape |= needs_escape(c);
  }
  if (!escape) return end;
  for (const char ch : raw) {
    if (!needs_escape(ch)) {
      *p++ = ch;
      continue;
    }
    const auto c = static_cast<unsigned char>(ch);
    *p++ = '\\';
    switch (c) {
      case '"':
      case '\\':
        *p++ = ch;
        break;
      case '\n':
        *p++ = 'n';
        break;
      case '\r':
        *p++ = 'r';
        break;
      case '\t':
        *p++ = 't';
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        p = write(p, std::string_view(esc, sizeof esc));
      }
    }
  }
  return p;
}

/// Writes shortest round-trip digits (to_chars, which gives std::to_string's
/// digits for integers) in at most kNumberBytes. JSON has no inf/nan; the
/// analysis layer uses +inf for "no feasible quantum", so non-finite values
/// render as null. Bare integers like "2" stay as emitted, so the
/// round-trip stays byte-stable.
template <typename T>
char* write_number(char* p, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return write(p, "null");
  }
  return std::to_chars(p, p + kNumberBytes, v).ptr;
}

/// Appends one field to `row` with a single append: the comma (before every
/// field but the first), the quoted key and the colon, then what
/// `write_value` writes in at most `value_bytes`. Every std::string append
/// is an out-of-line call and a field is several small pieces, so the field
/// is built on the stack first -- or on the heap, when its worst case does
/// not fit.
template <typename Fn>
void append_field(std::string& row, std::string_view key,
                  std::size_t value_bytes, Fn&& write_value) {
  const auto build = [&](char* begin) {
    char* p = begin;
    if (row.size() > 1) *p++ = ',';  // more than the row's '{'
    *p++ = '"';
    p = write_escaped(p, key);
    *p++ = '"';
    *p++ = ':';
    row.append(begin, static_cast<std::size_t>(write_value(p) - begin));
  };
  const std::size_t max_bytes = kMaxEscape * key.size() + 4 + value_bytes;
  if (max_bytes <= kStageBytes) {
    char stage[kStageBytes];
    build(stage);
  } else {
    std::string heap(max_bytes, '\0');
    build(heap.data());
  }
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out(kMaxEscape * raw.size(), '\0');
  out.resize(static_cast<std::size_t>(write_escaped(out.data(), raw) -
                                      out.data()));
  return out;
}

JsonRow::JsonRow() {
  buf_.reserve(kRowReserve);
  buf_ += '{';
}

JsonRow& JsonRow::field(std::string_view k, double v) {
  append_field(buf_, k, kNumberBytes,
               [v](char* p) { return write_number(p, v); });
  return *this;
}

JsonRow& JsonRow::field(std::string_view k, std::int64_t v) {
  append_field(buf_, k, kNumberBytes,
               [v](char* p) { return write_number(p, v); });
  return *this;
}

JsonRow& JsonRow::field(std::string_view k, std::size_t v) {
  append_field(buf_, k, kNumberBytes,
               [v](char* p) { return write_number(p, v); });
  return *this;
}

JsonRow& JsonRow::field(std::string_view k, bool v) {
  append_field(buf_, k, 5,
               [v](char* p) { return write(p, v ? "true" : "false"); });
  return *this;
}

JsonRow& JsonRow::field(std::string_view k, std::string_view v) {
  append_field(buf_, k, kMaxEscape * v.size() + 2, [v](char* p) {
    *p++ = '"';
    p = write_escaped(p, v);
    *p++ = '"';
    return p;
  });
  return *this;
}

JsonRow& JsonRow::field(std::string_view k, std::span<const double> v) {
  append_field(buf_, k, (kNumberBytes + 1) * v.size() + 2, [v](char* p) {
    *p++ = '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) *p++ = ',';
      p = write_number(p, v[i]);
    }
    *p++ = ']';
    return p;
  });
  return *this;
}

JsonRow& JsonRow::null_field(std::string_view k) {
  append_field(buf_, k, 4, [](char* p) { return write(p, "null"); });
  return *this;
}

std::string JsonRow::str() const& {
  std::string out;
  out.reserve(buf_.size() + 1);
  out += buf_;
  out += '}';
  return out;
}

std::string JsonRow::str() && {
  buf_ += '}';
  return std::move(buf_);
}

JsonlWriter& JsonlWriter::write(std::string_view row) {
  line_.assign(row);
  line_ += '\n';
  return write_rows(line_);
}

JsonlWriter& JsonlWriter::write_rows(std::string_view rows) {
  out_.write(rows.data(), static_cast<std::streamsize>(rows.size()));
  if (flush_per_row_) out_.flush();
  FLEXRT_REQUIRE(static_cast<bool>(out_),
                 "write failed after " + std::to_string(rows_) +
                     " rows (" + (name_.empty() ? "output stream" : name_) +
                     "): disk full or stream closed?");
  rows_ += static_cast<std::size_t>(std::count(rows.begin(), rows.end(), '\n'));
  return *this;
}

bool json_row_complete(std::string_view line) noexcept {
  return line.size() >= 2 && line.front() == '{' && line.back() == '}';
}

namespace {

/// Position just past `"key":` at the top level of the row, or npos.
std::size_t value_pos(std::string_view row, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  // Keys written by JsonRow always follow '{' or ','; checking the
  // preceding character keeps a key name occurring inside a string value
  // from matching.
  std::size_t at = row.find(needle);
  while (at != std::string_view::npos) {
    if (at > 0 && (row[at - 1] == '{' || row[at - 1] == ',')) {
      return at + needle.size();
    }
    at = row.find(needle, at + 1);
  }
  return std::string_view::npos;
}

}  // namespace

std::optional<double> json_number_field(std::string_view row,
                                        std::string_view key) {
  const std::size_t at = value_pos(row, key);
  if (at == std::string_view::npos || at >= row.size()) return std::nullopt;
  double out = 0.0;
  const auto [end, ec] =
      std::from_chars(row.data() + at, row.data() + row.size(), out);
  if (ec != std::errc{} || end == row.data() + at) return std::nullopt;
  return out;
}

std::optional<bool> json_bool_field(std::string_view row,
                                    std::string_view key) {
  const std::size_t at = value_pos(row, key);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string_view rest = row.substr(at);
  if (rest.starts_with("true")) return true;
  if (rest.starts_with("false")) return false;
  return std::nullopt;
}

namespace {

/// Four hex digits at row[at, at+4), or nullopt when short or non-hex.
std::optional<std::uint32_t> hex4(std::string_view row, std::size_t at) {
  if (at + 4 > row.size()) return std::nullopt;
  std::uint32_t v = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const char c = row[at + k];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

constexpr bool is_high_surrogate(std::uint32_t cp) {
  return cp >= 0xD800 && cp <= 0xDBFF;
}
constexpr bool is_low_surrogate(std::uint32_t cp) {
  return cp >= 0xDC00 && cp <= 0xDFFF;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

std::optional<std::string> json_string_field(std::string_view row,
                                             std::string_view key) {
  std::size_t at = value_pos(row, key);
  if (at == std::string_view::npos || at >= row.size() || row[at] != '"') {
    return std::nullopt;
  }
  ++at;
  std::string out;
  while (at < row.size() && row[at] != '"') {
    if (row[at] == '\\' && at + 1 < row.size()) {
      ++at;
      switch (row[at]) {
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          // \uXXXX: BMP code point, or the high half of a surrogate pair.
          // json_escape emits these for control characters, so decoding is
          // load-bearing for the round-trip, not a nicety.
          std::optional<std::uint32_t> cp = hex4(row, at + 1);
          if (!cp || is_low_surrogate(*cp)) return std::nullopt;
          if (is_high_surrogate(*cp)) {
            if (at + 6 >= row.size() || row[at + 5] != '\\' ||
                row[at + 6] != 'u') {
              return std::nullopt;  // lone high surrogate
            }
            const std::optional<std::uint32_t> lo = hex4(row, at + 7);
            if (!lo || !is_low_surrogate(*lo)) return std::nullopt;
            *cp = 0x10000 + ((*cp - 0xD800) << 10) + (*lo - 0xDC00);
            at += 6;  // past "XXXX\u"; the trailing hex advances below
          }
          append_utf8(out, *cp);
          at += 4;  // past the (last) four hex digits
          break;
        }
        default:
          out += row[at];  // \" \\ \/ verbatim
      }
    } else {
      out += row[at];
    }
    ++at;
  }
  if (at >= row.size()) return std::nullopt;  // unterminated
  return out;
}

}  // namespace flexrt::svc
