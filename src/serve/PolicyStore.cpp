//===- serve/PolicyStore.cpp -------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "serve/PolicyStore.h"

#include "support/AtomicFile.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

using namespace cuasmrl;
using namespace cuasmrl::serve;

namespace {

const char PolicyExt[] = ".policy";

} // namespace

PolicyStore::PolicyStore(std::string Dir) : Directory(std::move(Dir)) {
  support::sweepOrphanTmpFiles(Directory);
  // Rebuild the nearest-shape index from the sidecars on disk; a
  // policy without a parseable sidecar is never a warm-start source
  // (mirrors DeployIndex::loadFrom over the cubin cache).
  std::error_code Ec;
  std::filesystem::directory_iterator It(Directory, Ec);
  if (Ec)
    return;
  for (const std::filesystem::directory_entry &Entry : It) {
    std::string Name = Entry.path().filename().string();
    const std::string Ext = std::string(PolicyExt) + ".meta";
    if (Name.size() <= Ext.size() ||
        Name.compare(Name.size() - Ext.size(), Ext.size(), Ext) != 0)
      continue;
    std::string Key = Name.substr(0, Name.size() - Ext.size());
    std::optional<std::string> Meta =
        support::readFile(Entry.path().string());
    if (!Meta)
      continue;
    if (std::optional<DeployedEntry> Parsed = parseDeployMeta(*Meta, Key))
      Index.add(std::move(*Parsed));
  }
}

std::string PolicyStore::pathFor(const std::string &Key) const {
  return Directory + "/" + Key + PolicyExt;
}

std::string PolicyStore::metaPathFor(const std::string &Key) const {
  return Directory + "/" + Key + PolicyExt + ".meta";
}

bool PolicyStore::store(const std::string &Key,
                        const std::string &PolicyBlob,
                        const DeployedEntry &Meta) {
  std::error_code Ec;
  std::filesystem::create_directories(Directory, Ec);
  if (Ec)
    return false;
  if (!support::atomicWriteFile(pathFor(Key), PolicyBlob))
    return false;
  if (!support::atomicWriteFile(metaPathFor(Key), encodeDeployMeta(Meta)))
    return false;
  DeployedEntry Indexed = Meta;
  Indexed.Key = Key; // The index must point at THIS store's file.
  std::lock_guard<std::mutex> Lock(IndexMutex);
  Index.add(std::move(Indexed));
  return true;
}

std::optional<std::string>
PolicyStore::load(const std::string &Key) const {
  return support::readFile(pathFor(Key));
}

std::optional<std::string>
PolicyStore::nearest(const std::string &GpuType,
                     kernels::WorkloadKind Kind,
                     const kernels::WorkloadShape &Shape,
                     const std::string &ExcludeKey,
                     std::string *FromKey) const {
  std::string NearKey;
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    if (const DeployedEntry *E =
            Index.nearest(GpuType, Kind, Shape, ExcludeKey))
      NearKey = E->Key;
  }
  if (NearKey.empty())
    return std::nullopt;
  std::optional<std::string> Blob = load(NearKey);
  if (Blob && FromKey)
    *FromKey = std::move(NearKey);
  return Blob;
}

size_t PolicyStore::size() const {
  std::lock_guard<std::mutex> Lock(IndexMutex);
  return Index.size();
}

std::vector<std::string> PolicyStore::keys() const {
  std::vector<std::string> Keys;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Directory, Ec);
  if (Ec)
    return Keys;
  const std::string Ext = std::string(PolicyExt) + ".meta";
  for (const std::filesystem::directory_entry &Entry : It) {
    std::string Name = Entry.path().filename().string();
    if (Name.size() > Ext.size() &&
        Name.compare(Name.size() - Ext.size(), Ext.size(), Ext) == 0)
      Keys.push_back(Name.substr(0, Name.size() - Ext.size()));
  }
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}
