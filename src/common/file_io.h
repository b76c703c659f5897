#ifndef EXPBSI_COMMON_FILE_IO_H_
#define EXPBSI_COMMON_FILE_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace expbsi {
namespace fileio {

// Small POSIX file helpers shared by the persistence layer. Everything
// reports through Status -- no exceptions, no silent partial results.

// Size of a regular file in bytes; NotFound if it does not exist.
Result<uint64_t> FileSizeOf(const std::string& path);

// Reads the whole file. A file larger than `max_bytes` is refused with
// Corruption *before* any allocation sized from untrusted metadata -- this
// is the allocation cap for every snapshot / store decode path.
Result<std::string> ReadFileToString(const std::string& path,
                                     uint64_t max_bytes);

struct AtomicWriteOptions {
  // Optional fault-site names (fault_sites::kSnapshotWrite / ...Rename).
  // Each is evaluated once per call when an injector is installed; nullptr
  // means the step is not instrumented.
  const char* write_fault_site = nullptr;
  const char* rename_fault_site = nullptr;
};

// Crash-consistent publish of `contents` at `path`: write `path + ".tmp"`,
// fflush + fsync it, then atomically rename over `path` and fsync the
// parent directory. A kill at any byte offset leaves either the old file
// (commit rename not reached -- at most a stale .tmp remains) or the new
// file, never a torn mix. Injected kCrash at the write site leaves a
// deterministic prefix of the bytes in the .tmp file to simulate exactly
// that torn in-flight state.
Status WriteFileAtomic(const std::string& path, std::string_view contents,
                       const AtomicWriteOptions& options = {});

// Flushes user-space buffers and asks the kernel to make the file durable.
Status FlushAndSync(std::FILE* f, const std::string& path);

// Best-effort fsync of the directory holding `path`, making a just-created
// or just-renamed entry durable. Failure to open the directory is ignored
// (some filesystems refuse O_RDONLY on directories); a failed fsync on an
// open fd is not.
Status SyncParentDir(const std::string& path);

// Renames src over dst (atomic within a filesystem).
Status RenameFile(const std::string& src, const std::string& dst);

// Removes the file if present; absence is not an error.
Status RemoveFileIfExists(const std::string& path);

// Names (not paths) of directory entries, excluding "." / "..", sorted.
Result<std::vector<std::string>> ListDir(const std::string& dir);

// mkdir -p for one level; an existing directory is not an error.
Status CreateDirIfMissing(const std::string& dir);

}  // namespace fileio
}  // namespace expbsi

#endif  // EXPBSI_COMMON_FILE_IO_H_
