//===- support/AtomicFile.h - Whole-file reads, atomic writes ---------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The atomic-persistence idiom shared by every on-disk store
/// (triton::DeployCache cubins and sidecars, serve::PolicyStore
/// checkpoints): write a uniquely-named `.tmp` sibling and rename it
/// into place, so the destination path only ever holds complete
/// contents — a reader can never observe a truncated file, and
/// concurrent writers of one path each produce a complete candidate
/// with last-rename-wins resolution. A crash between write and rename
/// leaves a `.tmp.<pid>.<n>` orphan that no protocol ever reads;
/// sweepOrphanTmpFiles() reclaims them.
///
/// The matching read idiom is readFile(): one open, one fstat to size
/// the buffer, reads to EOF, one close. Every whole-file reader of
/// those stores goes through it.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_SUPPORT_ATOMICFILE_H
#define CUASMRL_SUPPORT_ATOMICFILE_H

#include <cstddef>
#include <optional>
#include <string>

namespace cuasmrl {
namespace support {

/// Atomically replaces \p Path with \p Size bytes from \p Data: the
/// bytes land in a `.tmp.<pid>.<counter>` sibling first (the counter
/// is process-wide, so concurrent writers — in this process or another
/// one sharing the directory — never interleave into one temporary),
/// then a filesystem rename publishes them. \returns false on any I/O
/// failure; the temporary is removed and \p Path is untouched.
bool atomicWriteFile(const std::string &Path, const void *Data,
                     size_t Size);

/// Text/blob convenience overload.
bool atomicWriteFile(const std::string &Path, const std::string &Bytes);

/// The whole contents of \p Path: opens it, sizes the buffer from
/// fstat, reads to EOF (retrying reads interrupted by a signal) and
/// closes it. An empty file reads as an empty string. nullopt when the
/// path cannot be opened or read: it is missing, unreadable, or a
/// directory.
std::optional<std::string> readFile(const std::string &Path);

/// Deletes leftover `*.tmp.*` siblings in \p Dir (see the file
/// comment) and returns how many were removed. A missing directory is
/// not an error — there is nothing to sweep. Idempotent.
unsigned sweepOrphanTmpFiles(const std::string &Dir);

} // namespace support
} // namespace cuasmrl

#endif // CUASMRL_SUPPORT_ATOMICFILE_H
