#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace flexrt::fs {

/// Durability primitives for the crash-safe output paths (the svc journal
/// and `flexrt_design merge --output`). All of them report failure by
/// throwing flexrt::ModelError naming the operation, the path and the
/// errno cause -- a failed write must surface loudly (ENOSPC, EPIPE), never
/// silently drop rows.
///
/// The publish pattern every caller follows: append rows to a *scratch*
/// file (`<final>.partial`), flush/fsync as the durability policy demands,
/// and atomically rename it onto the final path once complete. The final
/// path therefore either does not exist yet or holds a complete report;
/// a crash at any instant leaves at worst a scratch file whose last line
/// is torn -- exactly the shape the journal's recovery scan handles.

/// Append-only POSIX file handle. Writes are full-write-or-throw (a short
/// write or an EINTR continues with the rest), so a returned append means
/// every byte reached the kernel; sync() makes them storage-durable.
class DurableFile {
 public:
  /// Creates (or truncates) `path` for appending from byte 0.
  static DurableFile create(const std::string& path);

  /// Opens existing `path` for appending after truncating it to `keep`
  /// bytes -- the journal's resume entry point (discard the torn tail,
  /// continue after the recovered prefix).
  static DurableFile open_truncated(const std::string& path,
                                    std::uint64_t keep);

  DurableFile(DurableFile&& other) noexcept;
  DurableFile& operator=(DurableFile&& other) noexcept;
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;
  ~DurableFile();

  /// Appends every byte of `bytes` (loops over short writes) or throws.
  void append(std::string_view bytes);

  /// fsync: blocks until everything appended so far is on storage.
  void sync();

  /// Closes the descriptor (idempotent); throws if the close itself fails
  /// (a delayed-allocation write error can surface here).
  void close();

  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }

 private:
  DurableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// Atomically renames `from` onto `to` and fsyncs the parent directory, so
/// the publish itself survives a crash: after this returns, `to` is the
/// complete file; before it, `to` is untouched. Both paths must live in
/// the same directory (the rename must not cross filesystems).
void atomic_publish(const std::string& from, const std::string& to);

/// Size of `path` in bytes, or nullopt when it does not exist.
std::optional<std::uint64_t> file_size(const std::string& path);

/// Removes `path` if it exists (missing file is not an error).
void remove_file(const std::string& path);

}  // namespace flexrt::fs
