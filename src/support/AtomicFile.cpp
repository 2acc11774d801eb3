//===- support/AtomicFile.cpp ------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace cuasmrl;

bool support::atomicWriteFile(const std::string &Path, const void *Data,
                              size_t Size) {
  static std::atomic<uint64_t> TmpCounter{0};
  std::error_code Ec;
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpCounter.fetch_add(1));
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return false;
    OS.write(static_cast<const char *>(Data),
             static_cast<std::streamsize>(Size));
    if (!OS) {
      OS.close();
      std::filesystem::remove(Tmp, Ec);
      return false;
    }
  }
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::filesystem::remove(Tmp, Ec);
    return false;
  }
  return true;
}

bool support::atomicWriteFile(const std::string &Path,
                              const std::string &Bytes) {
  return atomicWriteFile(Path, Bytes.data(), Bytes.size());
}

std::optional<std::string> support::readFile(const std::string &Path) {
  int Fd = -1;
  do {
    Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (Fd < 0 && errno == EINTR);
  if (Fd < 0)
    return std::nullopt;
  // Closes on every exit, an allocation failure included.
  struct FdCloser {
    int Fd;
    ~FdCloser() { ::close(Fd); }
  } Closer{Fd};
  // One spare byte past the stat size: the read that sees EOF needs
  // room, and without it every read would end in a regrow. A file that
  // grows meanwhile (or a stat that reports 0) still reads to EOF.
  struct stat St {};
  size_t Hint = ::fstat(Fd, &St) == 0 && St.st_size > 0
                    ? static_cast<size_t>(St.st_size)
                    : 0;
  std::string Bytes(Hint + 1, '\0');
  size_t Len = 0;
  for (;;) {
    if (Len == Bytes.size())
      Bytes.resize(2 * Bytes.size());
    ssize_t N = ::read(Fd, &Bytes[Len], Bytes.size() - Len);
    if (N == 0)
      break;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return std::nullopt; // A directory fails here with EISDIR.
    }
    Len += static_cast<size_t>(N);
  }
  Bytes.resize(Len);
  return Bytes;
}

unsigned support::sweepOrphanTmpFiles(const std::string &Dir) {
  unsigned Removed = 0;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec)
    return 0; // Directory does not exist yet: nothing to sweep.
  for (const std::filesystem::directory_entry &Entry : It) {
    if (!Entry.is_regular_file(Ec))
      continue;
    std::string Name = Entry.path().filename().string();
    // Only files the write protocol names: "<final>.tmp.<pid>.<n>".
    if (Name.find(".tmp.") == std::string::npos)
      continue;
    std::filesystem::remove(Entry.path(), Ec);
    if (!Ec)
      ++Removed;
  }
  return Removed;
}
