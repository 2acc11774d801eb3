//===- support/FileLock.h - Cross-process claim files ---------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Advisory cross-process claims over a shared directory, built from
/// the one primitive POSIX makes atomic on every filesystem:
/// open(O_CREAT | O_EXCL). A claim is a small file whose content is
/// the owner's token and whose mtime is the owner's heartbeat:
///
///   - tryClaim() atomically creates the file; exactly one process
///     wins per path.
///   - refresh() bumps the mtime — the owner's "still alive" beacon,
///     driven by a periodic heartbeat while the claimed work runs.
///   - A waiter polls age(): once the heartbeat is older than its
///     staleness budget the owner is presumed dead and breakStale()
///     removes the claim so the work can be retried.
///   - release() removes the file, but only when the stored token
///     matches — a waiter that just broke a stale claim and re-claimed
///     the path cannot be un-claimed by the late original owner.
///
/// This is the serving layer's cross-process single-flight: two
/// serve_daemon processes sharing one DeployCache directory claim
/// `<dir>/.claims/<key>.lock` before optimizing a key, so concurrent
/// identical requests across processes run exactly one job (see
/// docs/SERVING.md, "Claim protocol").
///
/// Heartbeats are wall-clock file mtimes — deliberately NOT routed
/// through support::Clock: the whole point is coordinating processes
/// that do not share an address space, let alone a FakeClock.
///
/// Thread-safety: all members are stateless statics over the
/// filesystem; safe from any number of threads and processes.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_SUPPORT_FILELOCK_H
#define CUASMRL_SUPPORT_FILELOCK_H

#include <chrono>
#include <optional>
#include <string>

namespace cuasmrl {
namespace support {

class FileLock {
public:
  /// A process-unique owner token: "<pid>-<counter>". Two claimants in
  /// one process (two services over one directory) get distinct
  /// tokens, so release() and refresh() stay ownership-checked even
  /// intra-process.
  static std::string makeToken();

  /// Atomically creates the claim file at \p Path (parent directories
  /// included) holding \p Token. \returns true when this call created
  /// it — the caller now owns the claim; false when it already exists
  /// (someone else owns it) or on I/O error.
  static bool tryClaim(const std::string &Path, const std::string &Token);

  /// Heartbeat: bumps the claim's mtime to now. \returns false when
  /// the file is gone or owned by a different token (the claim was
  /// broken as stale and possibly re-claimed) — the caller must treat
  /// its claimed work as no longer exclusive.
  static bool refresh(const std::string &Path, const std::string &Token);

  /// Removes the claim iff \p Token owns it. \returns true when this
  /// call unlinked the file.
  static bool release(const std::string &Path, const std::string &Token);

  /// The token stored in the claim file, or nullopt when absent or
  /// unreadable (support::readFile).
  static std::optional<std::string> owner(const std::string &Path);

  /// Time since the last heartbeat (file mtime), or nullopt when the
  /// claim does not exist. Clamped at zero against mtime-vs-now clock
  /// skew.
  static std::optional<std::chrono::milliseconds>
  age(const std::string &Path);

  /// Removes the claim when its heartbeat is older than \p StaleAfter
  /// (a crashed owner never refreshes). \returns true when this call
  /// unlinked a stale claim.
  static bool breakStale(const std::string &Path,
                         std::chrono::milliseconds StaleAfter);
};

} // namespace support
} // namespace cuasmrl

#endif // CUASMRL_SUPPORT_FILELOCK_H
