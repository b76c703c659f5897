#include "common/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/fault_injector.h"

namespace expbsi {
namespace fileio {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::string ErrnoText() { return std::strerror(errno); }

}  // namespace

Status FlushAndSync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    return Status::Unavailable("fileio: flush failed for " + path + ": " +
                               ErrnoText());
  }
  if (::fsync(::fileno(f)) != 0) {
    return Status::Unavailable("fileio: fsync failed for " + path + ": " +
                               ErrnoText());
  }
  return Status::OK();
}

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::OK();
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Unavailable("fileio: directory fsync failed for " + dir +
                               ": " + ErrnoText());
  }
  return Status::OK();
}

Result<uint64_t> FileSizeOf(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("fileio: cannot stat " + path + ": " +
                            ErrnoText());
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::InvalidArgument("fileio: not a regular file: " + path);
  }
  return static_cast<uint64_t>(st.st_size);
}

Result<std::string> ReadFileToString(const std::string& path,
                                     uint64_t max_bytes) {
  Result<uint64_t> size = FileSizeOf(path);
  RETURN_IF_ERROR(size.status());
  if (size.value() > max_bytes) {
    return Status::Corruption("fileio: " + path + " is " +
                              std::to_string(size.value()) +
                              " bytes, over the read cap of " +
                              std::to_string(max_bytes));
  }
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("fileio: cannot open " + path + ": " +
                            ErrnoText());
  }
  std::string bytes(static_cast<size_t>(size.value()), '\0');
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), file.get()) != bytes.size()) {
    return Status::Corruption("fileio: short read of " + path);
  }
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view contents,
                       const AtomicWriteOptions& options) {
  const std::string tmp = path + ".tmp";
  std::string_view to_write = contents;
  std::string corrupted;  // backing storage when a corrupt fault fires
  // A kCrash is a simulated process kill mid-write: a deterministic prefix
  // of the bytes reaches the .tmp file, the rename never happens.
  const WriteFault fault = EvaluateWriteFault(
      options.write_fault_site, contents.size(), &to_write, &corrupted);
  if (fault.fail) {
    return Status::Unavailable("fileio: injected write failure for " + path);
  }

  {
    FilePtr file(std::fopen(tmp.c_str(), "wb"));
    if (file == nullptr) {
      return Status::InvalidArgument("fileio: cannot open " + tmp +
                                     " for writing: " + ErrnoText());
    }
    const size_t n = fault.write_bytes;
    if (n > 0 && std::fwrite(to_write.data(), 1, n, file.get()) != n) {
      return Status::Unavailable("fileio: short write of " + tmp + ": " +
                                 ErrnoText());
    }
    RETURN_IF_ERROR(FlushAndSync(file.get(), tmp));
  }
  if (fault.crash) {
    return Status::Unavailable("fileio: injected kill mid-write of " + path +
                               " (torn .tmp left behind)");
  }

  FaultInjector* const fi = FaultInjector::Get();
  if (fi != nullptr && options.rename_fault_site != nullptr) {
    const FaultDecision rename = fi->Evaluate(options.rename_fault_site);
    if (rename.fail || rename.crash) {
      // Killed after the temp file is durable but before the commit rename:
      // the previous version of `path` stays fully intact.
      return Status::Unavailable("fileio: injected kill before rename of " +
                                 path);
    }
  }

  RETURN_IF_ERROR(RenameFile(tmp, path));
  return SyncParentDir(path);
}

Status RenameFile(const std::string& src, const std::string& dst) {
  if (std::rename(src.c_str(), dst.c_str()) != 0) {
    return Status::Unavailable("fileio: rename " + src + " -> " + dst +
                               " failed: " + ErrnoText());
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Unavailable("fileio: remove " + path + " failed: " +
                               ErrnoText());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  ::DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("fileio: cannot open directory " + dir + ": " +
                            ErrnoText());
  }
  std::vector<std::string> names;
  while (struct ::dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status CreateDirIfMissing(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::InvalidArgument("fileio: mkdir " + dir + " failed: " +
                                   ErrnoText());
  }
  return Status::OK();
}

}  // namespace fileio
}  // namespace expbsi
