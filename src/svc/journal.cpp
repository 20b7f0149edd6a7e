#include "svc/journal.hpp"

#include <cstdint>
#include <fstream>
#include <utility>
#include <vector>

#include "svc/jsonl.hpp"

namespace flexrt::svc {

Journal::Journal(std::string path) : path_(std::move(path)) {
  FLEXRT_REQUIRE(!path_.empty(), "journal path must be non-empty");
}

Journal::Recovery Journal::recover(const RowPredicate& terminal,
                                   const RowCallback& replay) {
  FLEXRT_REQUIRE(static_cast<bool>(terminal),
                 "journal recovery needs a terminal-row predicate");
  sys::MutexLock lock(mu_);
  Recovery rec;

  // A committed output means the previous run finished: replay its rows so
  // the caller can rebuild aggregates/exit codes, and write nothing.
  if (fs::file_size(path_)) {
    std::ifstream in(path_);
    FLEXRT_REQUIRE(static_cast<bool>(in), "cannot open " + path_);
    std::string line;
    while (std::getline(in, line)) {
      FLEXRT_REQUIRE(json_row_complete(line),
                     "committed output " + path_ +
                         " holds a torn row -- not a journal this runner "
                         "wrote; refusing to resume over it");
      if (replay) replay(line);
      if (terminal(line)) ++rec.completed;
    }
    committed_ = true;
    rec.committed = true;
    return rec;
  }

  const std::string partial = partial_path();
  if (!fs::file_size(partial)) {
    // Nothing to recover: resume of a run that died before its first
    // append (or was never started) is just a fresh run.
    file_.emplace(fs::DurableFile::create(partial));
    return rec;
  }

  // Scan the partial journal: keep the longest prefix of complete
  // newline-terminated rows that ends in an entry-terminal row. Rows after
  // the last terminal row -- the head rows of an unfinished multi-row
  // entry -- are buffered only until the next terminal row, so recovery
  // memory is one entry's rows, not the journal.
  std::ifstream in(partial);
  FLEXRT_REQUIRE(static_cast<bool>(in), "cannot open " + partial);
  std::uint64_t keep = 0;    // byte offset just past the last terminal row
  std::uint64_t offset = 0;  // byte offset past the current line
  std::vector<std::string> pending;
  std::string line;
  while (std::getline(in, line)) {
    if (in.eof()) break;  // final line lost its '\n': torn, discard
    offset += line.size() + 1;
    if (!json_row_complete(line)) break;  // torn row: discard it and after
    if (terminal(line)) {
      ++rec.completed;
      keep = offset;
      if (replay) {
        for (const std::string& row : pending) replay(row);
        replay(line);
      }
      pending.clear();
    } else {
      pending.push_back(line);
    }
  }
  file_.emplace(fs::DurableFile::open_truncated(partial, keep));
  return rec;
}

void Journal::start_fresh() {
  sys::MutexLock lock(mu_);
  file_.emplace(fs::DurableFile::create(partial_path()));
}

void Journal::append(std::string_view block) {
  sys::MutexLock lock(mu_);
  FLEXRT_REQUIRE(file_.has_value(),
                 "journal " + path_ + " is not open for appending");
  file_->append(block);
}

void Journal::sync() {
  sys::MutexLock lock(mu_);
  FLEXRT_REQUIRE(file_.has_value(),
                 "journal " + path_ + " is not open for appending");
  file_->sync();
}

void Journal::commit() {
  sys::MutexLock lock(mu_);
  if (committed_) return;
  FLEXRT_REQUIRE(file_.has_value(),
                 "journal " + path_ + " is not open for appending");
  file_->sync();
  file_->close();
  fs::atomic_publish(partial_path(), path_);
  file_.reset();
  committed_ = true;
}

std::size_t count_terminal_rows(std::string_view text,
                                const Journal::RowPredicate& terminal) {
  std::size_t count = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) break;  // unterminated tail: ignore
    const std::string_view line = text.substr(start, nl - start);
    if (json_row_complete(line) && terminal(line)) ++count;
    start = nl + 1;
  }
  return count;
}

}  // namespace flexrt::svc
