#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace flexrt::svc {

/// Append-only writer for one flat JSON object -- the row format of the
/// JSON-lines study/solve reports (see tools/README.md for the schema).
///
/// Doubles are rendered with shortest round-trip formatting (to_chars), so
/// re-emitting a parsed value reproduces the byte sequence exactly; the
/// shard-merge invariant (merged shard reports == unsharded report) depends
/// on this. No nesting beyond one level of number arrays: rows stay
/// greppable and the field scanner below stays trivial.
///
/// Each field -- comma, quoted key, colon and value -- is appended in place
/// to one buffer; an rvalue str() hands that buffer out by move.
class JsonRow {
 public:
  JsonRow();

  JsonRow& field(std::string_view key, double v);
  JsonRow& field(std::string_view key, std::int64_t v);
  JsonRow& field(std::string_view key, std::size_t v);
  JsonRow& field(std::string_view key, bool v);
  JsonRow& field(std::string_view key, std::string_view v);  ///< escaped
  /// String-literal values would otherwise decay to the bool overload.
  JsonRow& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  JsonRow& field(std::string_view key, std::span<const double> v);
  JsonRow& null_field(std::string_view key);

  /// The finished row, braces included (no trailing newline).
  std::string str() const&;
  std::string str() &&;  ///< moves the buffer out: the row is spent

 private:
  std::string buf_;  ///< '{' + the fields so far; str() closes it
};

/// JSON string escaping (quotes excluded) for the writer above.
std::string json_escape(std::string_view raw);

/// Incremental JSON-lines writer: one row (or one entry's block of rows)
/// out per call, newline-terminated, straight to the ostream. This is the
/// streaming counterpart of buffering rows in a vector -- a fleet request's
/// sink can hand rows here as entries finish and peak memory stays one
/// entry, not one fleet. With `flush_per_row` (what --stream runs use) the
/// stream is flushed after every call, so a killed run leaves at most one
/// truncated final line (which json_row_complete below detects
/// deterministically); buffered runs leave it off and keep normal ostream
/// buffering.
///
/// Every write checks the stream afterwards and throws ModelError on
/// failure (disk full, closed pipe, I/O error), naming the row count and
/// the stream (`name`, when given). A report that cannot be written is an
/// error the tool must exit non-zero on, not something to discover -- or
/// not -- at flush time.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::ostream& out, bool flush_per_row = false,
                       std::string name = {})
      : out_(out), flush_per_row_(flush_per_row), name_(std::move(name)) {}

  /// Writes one finished row (no trailing newline expected) + '\n'.
  /// Throws ModelError when the stream goes bad.
  JsonlWriter& write(std::string_view row);
  JsonlWriter& write(const JsonRow& row) { return write(row.str()); }
  /// Writes finished rows that each end in '\n' (net::proto::Rows::entry's
  /// block) with one call; the stream is checked once for the block.
  JsonlWriter& write_rows(std::string_view rows);

  std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::ostream& out_;
  bool flush_per_row_;
  std::string name_;
  std::size_t rows_ = 0;
  std::string line_;  ///< write()'s row + '\n', written with one call
};

/// True when `line` is a complete JsonRow-shaped row: non-empty, starts
/// with '{' and ends with '}'. Rows are flat (no nested objects), so a
/// line truncated mid-row -- the tail a killed streaming run leaves --
/// fails this check unless the cut landed right after a '}' embedded in a
/// string value (study rows carry no such strings, so for them the check
/// is exact; `merge`'s trial-id contiguity check backstops the rest).
bool json_row_complete(std::string_view line) noexcept;

/// Field scanners for rows *written by JsonRow*: flat objects whose keys
/// are unique and unambiguous. Not a JSON parser -- they locate the quoted
/// key at the top level and read the value token after the colon. Returns
/// nullopt when the key is absent or the value has a different type.
///
/// json_string_field fully decodes what json_escape (and any standard JSON
/// writer) emits: the two-character escapes plus \uXXXX, including
/// surrogate pairs, re-encoded as UTF-8. Malformed \u escapes (bad hex,
/// lone surrogates) make the whole field nullopt rather than silently
/// corrupting the round-trip.
std::optional<double> json_number_field(std::string_view row,
                                        std::string_view key);
std::optional<bool> json_bool_field(std::string_view row,
                                    std::string_view key);
std::optional<std::string> json_string_field(std::string_view row,
                                             std::string_view key);

}  // namespace flexrt::svc
