#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/parallel.hpp"

namespace flexrt::svc {

/// Crash-safe fleet execution: the durability substrate under
/// `flexrt_design --output` (and the flexrtd daemon direction in the
/// ROADMAP). A journaled run appends each fleet entry's JSONL rows to a
/// scratch journal (`<out>.partial`) the moment the entry clears the
/// ordered reassembly buffer -- flushed whole per entry, optionally
/// fsynced -- and atomically renames the journal onto the final path once
/// every entry (plus any epilogue rows, e.g. the study summary) has been
/// written. The final file therefore either does not exist or is the
/// complete, uninterrupted report; a crash of any kind (SIGKILL, panic,
/// power cut) leaves at worst a partial journal whose last line is torn.
///
/// Resume contract: rows are deterministic (wall-free, shortest-round-trip
/// numbers, layout-independent trial seeds -- the PR 3/PR 5 invariants),
/// so re-running the same request over the same fleet reproduces every
/// row byte for byte. recover() scans the partial journal line by line,
/// keeps the longest prefix of *complete* (newline-terminated `{...}`)
/// rows that ends in an entry-terminal row, and discards everything after
/// it -- the torn final line a kill leaves, or the complete-but-unfinished
/// head rows of a multi-row entry. run_journaled() then recomputes only
/// the remaining entries, so the resumed file is byte-identical to an
/// uninterrupted run (crash-injection-tested at several chop depths).

/// Raised inside a journaled run when its cooperative stop flag goes up
/// (SIGINT/SIGTERM via sys::install_stop_signals, or a test hook). Entries
/// already emitted stay durable in the journal; the entry in flight when
/// the flag rises still completes and is journaled; only not-yet-started
/// entries are abandoned. The tool maps this to its documented exit code
/// and the run resumes later with --resume.
class InterruptedError : public Error {
 public:
  explicit InterruptedError(const std::string& what) : Error(what) {}
};

/// Knobs of one journaled run.
struct JournalOptions {
  /// Recover the completed prefix of an existing partial journal and
  /// continue after it, instead of truncating and starting over. Resuming
  /// an already-committed output is a no-op (rows are replayed, nothing is
  /// rewritten).
  bool resume = false;
  /// fsync the journal after every entry's rows (and always before the
  /// committing rename). Off: crash durability is the OS's write-back
  /// policy; the byte-exactness of resume is unaffected either way.
  bool fsync_per_entry = false;
  /// Reorder window of the ordered stream (0 = library default).
  std::size_t window = 0;
  /// Cooperative interrupt flag (usually &sys::stop_requested()). Checked
  /// before each entry starts: when it rises, in-flight entries finish and
  /// are journaled, the journal is fsynced and left as a resumable
  /// .partial, and run_journaled reports JournalStats::interrupted instead
  /// of committing. nullptr = never interrupted.
  const std::atomic<bool>* stop = nullptr;
};

/// What a journaled run did -- the transport stats mirror StreamStats, the
/// resume and interrupt outcomes are the journal's own.
struct JournalStats {
  std::size_t entries = 0;      ///< fleet size
  std::size_t replayed = 0;     ///< entries recovered from the journal
  std::size_t executed = 0;     ///< entries computed (and written) this run
  std::size_t max_buffered = 0; ///< reorder-buffer high-water mark
  bool already_complete = false;  ///< resume found a committed output
  /// A stop signal interrupted the run: completed entries are durable in
  /// the fsynced .partial journal, nothing was committed, and a --resume
  /// finishes the run byte-identically. The tool exits 4 on this.
  bool interrupted = false;
};

/// The durable journal file pair: `path` (the committed output) and
/// `path.partial` (the in-flight journal). Row-level framing and recovery
/// live here; the stream orchestration is run_journaled() below.
class Journal {
 public:
  /// A predicate marking entry-terminal rows: every entry's block of rows
  /// ends with exactly one row for which this returns true (the per-entry
  /// summary row -- kind "study_trial", "sweep", "fault_sweep", ...).
  using RowPredicate = std::function<bool(std::string_view)>;
  /// Receives every recovered row (in file order) during recover() --
  /// how a resumed run rebuilds aggregates and exit codes from rows it
  /// will not recompute.
  using RowCallback = std::function<void(std::string_view)>;

  explicit Journal(std::string path);
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  const std::string& path() const noexcept { return path_; }
  std::string partial_path() const { return path_ + ".partial"; }

  struct Recovery {
    std::size_t completed = 0;  ///< entries whose rows are durable
    bool committed = false;     ///< the final output already exists
  };

  /// Resume entry point. When the committed output exists, replays its
  /// rows and reports committed (nothing will be rewritten). Otherwise
  /// scans the partial journal (absent = fresh start): complete rows up
  /// to and including the last entry-terminal row are kept and replayed;
  /// the remainder -- a torn final line and/or the head rows of an
  /// unfinished entry -- is truncated away, and the journal is left open
  /// for appending exactly after the kept prefix.
  Recovery recover(const RowPredicate& terminal, const RowCallback& replay);

  /// Fresh start: creates/truncates the partial journal.
  void start_fresh();

  /// Appends one entry's complete, newline-terminated rows. The write is
  /// flushed to the kernel whole (a short write resumes where it stopped),
  /// so a crash tears at most the final line of the journal, never an
  /// earlier one.
  void append(std::string_view block);

  /// fsync the journal (the per-entry durability upgrade).
  void sync();

  /// Commits: fsync, close, and atomically rename the journal onto the
  /// final path (durable rename -- parent directory fsynced). No-op when
  /// recover() found an already-committed output.
  void commit();

 private:
  std::string path_;  ///< immutable after construction
  /// Guards the journal's open-file state. append() is called from
  /// whichever pool worker holds the ordered stream's emission turn --
  /// serialized in practice by the stream gate, but the serialization
  /// lives in another module, so the journal carries its own lock rather
  /// than an unstated "caller must serialize" contract. sync() can also
  /// arrive from the interrupt path on the submitting thread.
  mutable sys::Mutex mu_;
  std::optional<fs::DurableFile> file_ GUARDED_BY(mu_);
  bool committed_ GUARDED_BY(mu_) = false;
};

/// Counts entry-terminal rows in the stream `text` (complete lines only):
/// how tests and smoke scripts measure a journal's chop depth.
std::size_t count_terminal_rows(std::string_view text,
                                const Journal::RowPredicate& terminal);

/// Journaled, resumable execution of an n-entry fleet.
///
///  - `run_one(i)` computes entry i (a svc result type). It must already
///    be exception-safe in the run_entry sense --
///    failures come back as error-valued results, never as throws.
///  - `render(result)` turns one result into its newline-terminated JSONL
///    block, ending with exactly one row matching `terminal`.
///  - Each entry is computed once. A result with !ok() is journaled as
///    its error row like any other row, and the fleet carries on: an
///    entry is a pure function of its system and request, so running it
///    again would fail the same way. No lost entry, no poisoned stream.
///  - `replay` receives recovered rows on resume; `epilogue()` (optional)
///    returns trailing rows written after the last entry, before commit
///    (the study summary). The epilogue is deliberately *not*
///    entry-terminal, so a crash after it but before the rename re-emits
///    it on resume instead of double-counting an entry.
///
/// Entries are streamed in order through par::ordered_stream, so the
/// journal grows strictly in entry order and "completed prefix" in the
/// file means "entries [0, k)" in the fleet.
template <typename RunOne, typename Render>
JournalStats run_journaled(Journal& journal, std::size_t n,
                           const JournalOptions& opts,
                           const Journal::RowPredicate& terminal,
                           const Journal::RowCallback& replay, RunOne&& run_one,
                           Render&& render,
                           const std::function<std::string()>& epilogue = {}) {
  JournalStats stats;
  stats.entries = n;
  std::size_t done = 0;
  if (opts.resume) {
    const Journal::Recovery rec = journal.recover(terminal, replay);
    FLEXRT_REQUIRE(rec.completed <= n,
                   "journal " + journal.path() + " holds " +
                       std::to_string(rec.completed) + " entries but the fleet has only " +
                       std::to_string(n) + " -- resuming a different run?");
    if (rec.committed) {
      FLEXRT_REQUIRE(rec.completed == n,
                     "committed output " + journal.path() + " holds " +
                         std::to_string(rec.completed) + " of " +
                         std::to_string(n) +
                         " entries -- resuming a different run?");
      stats.replayed = n;
      stats.already_complete = true;
      return stats;
    }
    done = rec.completed;
    stats.replayed = done;
  } else {
    journal.start_fresh();
  }

  try {
    stats.max_buffered = par::ordered_stream(
        n - done, opts.window,
        [&](std::size_t j) {
          const std::size_t i = done + j;
          // Checked before the entry starts, never mid-analysis: a signal
          // finishes the in-flight entries and abandons only the
          // not-yet-started tail.
          if (opts.stop && opts.stop->load(std::memory_order_relaxed)) {
            throw InterruptedError("interrupted before entry " +
                                   std::to_string(i));
          }
          return run_one(i);
        },
        [&](std::size_t, auto&& result) {
          // Emission is serialized and in entry order (the ordered gate), so
          // the stats and the journal advance together, race-free.
          ++stats.executed;
          journal.append(render(result));
          if (opts.fsync_per_entry) journal.sync();
        });
  } catch (const InterruptedError&) {
    // Entries emitted before the interrupt are already in the journal;
    // fsync makes the durable prefix survive anything that follows. No
    // commit: the output appears only when a later --resume finishes it.
    journal.sync();
    stats.interrupted = true;
    return stats;
  }

  if (epilogue) {
    const std::string tail = epilogue();
    if (!tail.empty()) journal.append(tail);
  }
  journal.commit();
  return stats;
}

}  // namespace flexrt::svc
