//===- triton/DeployCache.h - Offline search / deploy lookup (§4.2) ----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's deployment workflow: "the best optimized cubin found
/// throughout the assembly game is written to the file system, prefixed
/// by GPU type, workload type etc., as the key to lookup. At deployment,
/// the key should be passed in, and it invokes a lookup process instead
/// of training" (§4.2). There is no runtime overhead — only offline
/// search time.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_TRITON_DEPLOYCACHE_H
#define CUASMRL_TRITON_DEPLOYCACHE_H

#include "cubin/Cubin.h"

#include <optional>
#include <string>
#include <vector>

namespace cuasmrl {
namespace support {
class FaultInjector;
} // namespace support
namespace triton {

/// Filesystem cache of optimized cubins.
///
/// Thread-safety: store()/load()/contains() may be called concurrently
/// from any number of threads (and processes sharing the directory).
/// store() is atomic — it writes a uniquely-named `.tmp` sibling and
/// renames it into place, so a reader can never observe a truncated
/// cubin and concurrent stores of one key resolve to one complete
/// winner (last rename wins).
class DeployCache {
public:
  /// \p Directory is created on first store. Construction sweeps
  /// orphaned `*.tmp.*` siblings a crashed store() may have left
  /// behind (crash between write and rename) — the atomic-rename
  /// protocol guarantees they are never a reader's source of truth,
  /// so deleting them is always safe.
  explicit DeployCache(std::string Directory);

  /// Wires deterministic fault injection behind store()/load(); null
  /// disables. Sites: "cache-store-fail:<key>" makes store() return
  /// false before touching the filesystem; "cache-load-corrupt:<key>"
  /// makes load() return nullopt as if the stored bytes failed to
  /// deserialize. Not thread-safe against concurrent store/load —
  /// wire it up before sharing the cache (the service does so at
  /// construction).
  void setFaultInjector(support::FaultInjector *Injector) {
    Faults = Injector;
  }

  /// Key convention: "<gpu>-<workload>-<config>" flattened to one file
  /// name (the paper prefixes GPU and workload type). Each component
  /// is sanitized to the filesystem-safe alphabet [A-Za-z0-9._-]
  /// independently, and a digest of the raw, length-delimited
  /// components is appended — so components containing the separator
  /// ("a-b","c" vs "a","b-c"), path characters ('/', '\\', ".."), or
  /// any other hostile bytes can neither collide with a different
  /// triple nor escape the cache directory.
  static std::string makeKey(const std::string &GpuType,
                             const std::string &Workload,
                             const std::string &Config);

  /// Writes the optimized cubin under \p Key. \returns false on I/O
  /// failure.
  bool store(const std::string &Key, const cubin::CubinFile &File);

  /// Deploy-time lookup: reads the cached cubin in one
  /// support::readFile and decodes it. nullopt when the file is
  /// missing or unreadable, or when its bytes do not decode to exactly
  /// one cubin (truncated, corrupt, or followed by trailing bytes) —
  /// contains() tells a miss from a corrupt entry.
  std::optional<cubin::CubinFile> load(const std::string &Key) const;

  bool contains(const std::string &Key) const;

  /// Every key currently stored, sorted — stats/observability for the
  /// serving layer (a missing or empty directory yields an empty
  /// vector). Keys stored concurrently may or may not appear.
  std::vector<std::string> keys() const;

  /// Atomic (write-then-rename) sidecar of free-form metadata text
  /// next to \p Key's cubin — the serving layer records the request
  /// shape here so a later service instance can rebuild its near-miss
  /// index from the directory alone. \returns false on I/O failure.
  bool storeMeta(const std::string &Key, const std::string &Text);

  /// The sidecar text, or nullopt when absent/unreadable (a directory
  /// at the path included).
  std::optional<std::string> loadMeta(const std::string &Key) const;

  /// Deletes leftover `*.tmp.*` siblings (see the constructor) and
  /// returns how many were removed. Idempotent; also called from the
  /// constructor.
  unsigned sweepOrphanTmps();

private:
  std::string pathFor(const std::string &Key) const;
  std::string metaPathFor(const std::string &Key) const;
  std::string Directory;
  support::FaultInjector *Faults = nullptr; ///< Not owned; may be null.
};

} // namespace triton
} // namespace cuasmrl

#endif // CUASMRL_TRITON_DEPLOYCACHE_H
