//===- support/FileLock.cpp ----------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/FileLock.h"

#include "support/AtomicFile.h"

#include <atomic>
#include <cerrno>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

using namespace cuasmrl;
using namespace cuasmrl::support;

std::string FileLock::makeToken() {
  static std::atomic<uint64_t> Counter{0};
  return std::to_string(static_cast<long long>(::getpid())) + "-" +
         std::to_string(Counter.fetch_add(1));
}

bool FileLock::tryClaim(const std::string &Path, const std::string &Token) {
  std::error_code Ec;
  std::filesystem::path Parent = std::filesystem::path(Path).parent_path();
  if (!Parent.empty())
    std::filesystem::create_directories(Parent, Ec);
  // O_EXCL is the atomicity primitive: of N concurrent claimants,
  // exactly one open() creates the file; everyone else sees EEXIST.
  int Fd = ::open(Path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                  0644);
  if (Fd < 0)
    return false;
  // A short or failed write leaves a claim that owner() cannot match;
  // it ages out via breakStale() like a crashed owner's would.
  ssize_t Written = ::write(Fd, Token.data(), Token.size());
  ::close(Fd);
  return Written == static_cast<ssize_t>(Token.size());
}

std::optional<std::string> FileLock::owner(const std::string &Path) {
  return readFile(Path);
}

bool FileLock::refresh(const std::string &Path, const std::string &Token) {
  std::optional<std::string> Owner = owner(Path);
  if (!Owner || *Owner != Token)
    return false;
  std::error_code Ec;
  std::filesystem::last_write_time(
      Path, std::filesystem::file_time_type::clock::now(), Ec);
  return !Ec;
}

bool FileLock::release(const std::string &Path, const std::string &Token) {
  // Ownership check first: a late original owner must not unlink a
  // claim a waiter broke as stale and re-created under its own token.
  // (The check-then-unlink window is benign for this advisory use: a
  // token matches at most one live claimant, who is the only caller
  // that would release it.)
  std::optional<std::string> Owner = owner(Path);
  if (!Owner || *Owner != Token)
    return false;
  std::error_code Ec;
  return std::filesystem::remove(Path, Ec) && !Ec;
}

std::optional<std::chrono::milliseconds>
FileLock::age(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::file_time_type Mtime =
      std::filesystem::last_write_time(Path, Ec);
  if (Ec)
    return std::nullopt;
  auto Delta = std::filesystem::file_time_type::clock::now() - Mtime;
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(Delta);
  if (Ms.count() < 0)
    Ms = std::chrono::milliseconds(0);
  return Ms;
}

bool FileLock::breakStale(const std::string &Path,
                          std::chrono::milliseconds StaleAfter) {
  std::optional<std::chrono::milliseconds> Age = age(Path);
  if (!Age || *Age <= StaleAfter)
    return false;
  std::error_code Ec;
  return std::filesystem::remove(Path, Ec) && !Ec;
}
