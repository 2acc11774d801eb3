//===- triton/DeployCache.cpp -----------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "triton/DeployCache.h"

#include "support/AtomicFile.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace cuasmrl;
using namespace cuasmrl::triton;

DeployCache::DeployCache(std::string Dir) : Directory(std::move(Dir)) {
  // A crash between a store()'s write and its rename leaves a
  // `.tmp.<pid>.<n>` sibling behind; nothing ever reads one, so clear
  // them out before this instance starts producing its own.
  sweepOrphanTmps();
}

namespace {

/// Maps one key component onto the filesystem-safe alphabet. Lossy on
/// purpose (readability); injectivity comes from the digest suffix.
std::string sanitizeComponent(const std::string &Component) {
  std::string Out = Component;
  for (char &C : Out) {
    bool Safe = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    if (!Safe)
      C = '_';
  }
  return Out;
}

} // namespace

std::string DeployCache::makeKey(const std::string &GpuType,
                                 const std::string &Workload,
                                 const std::string &Config) {
  // The sanitized components keep the file name human-readable; the
  // digest over the raw components — each prefixed by its length so
  // ("a-b","c") and ("a","b-c") hash differently — makes the mapping
  // collision-free even where sanitization or the '-' separator is
  // ambiguous.
  std::string Raw;
  for (const std::string *Part : {&GpuType, &Workload, &Config}) {
    Raw += std::to_string(Part->size());
    Raw += ':';
    Raw += *Part;
  }
  char Digest[32];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(fnv1a64(Raw)));
  return sanitizeComponent(GpuType) + "-" + sanitizeComponent(Workload) +
         "-" + sanitizeComponent(Config) + "-" + Digest;
}

std::string DeployCache::pathFor(const std::string &Key) const {
  return Directory + "/" + Key + ".cubin";
}

std::string DeployCache::metaPathFor(const std::string &Key) const {
  return Directory + "/" + Key + ".meta";
}

bool DeployCache::store(const std::string &Key,
                        const cubin::CubinFile &File) {
  // Injected failures fire before any filesystem effect: a "transient
  // I/O error" leaves no partial state behind, exactly like a real
  // failed open.
  if (Faults && Faults->shouldFail("cache-store-fail:" + Key))
    return false;
  std::error_code Ec;
  std::filesystem::create_directories(Directory, Ec);
  if (Ec)
    return false;
  std::vector<uint8_t> Bytes = File.serialize();
  return support::atomicWriteFile(pathFor(Key), Bytes.data(), Bytes.size());
}

std::optional<cubin::CubinFile>
DeployCache::load(const std::string &Key) const {
  std::optional<std::string> Bytes = support::readFile(pathFor(Key));
  if (!Bytes)
    return std::nullopt;
  // An injected corruption behaves like a deserialize failure: the
  // file exists (contains() is true) but decodes to nothing — the
  // distinction the service's load-retry path keys on.
  if (Faults && Faults->shouldFail("cache-load-corrupt:" + Key))
    return std::nullopt;
  Expected<cubin::CubinFile> File = cubin::CubinFile::deserialize(
      std::vector<uint8_t>(Bytes->begin(), Bytes->end()));
  if (!File)
    return std::nullopt;
  return File.takeValue();
}

bool DeployCache::storeMeta(const std::string &Key,
                            const std::string &Text) {
  std::error_code Ec;
  std::filesystem::create_directories(Directory, Ec);
  if (Ec)
    return false;
  return support::atomicWriteFile(metaPathFor(Key), Text);
}

std::optional<std::string>
DeployCache::loadMeta(const std::string &Key) const {
  return support::readFile(metaPathFor(Key));
}

unsigned DeployCache::sweepOrphanTmps() {
  return support::sweepOrphanTmpFiles(Directory);
}

bool DeployCache::contains(const std::string &Key) const {
  return std::filesystem::exists(pathFor(Key));
}

std::vector<std::string> DeployCache::keys() const {
  std::vector<std::string> Keys;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Directory, Ec);
  if (Ec)
    return Keys;
  for (const std::filesystem::directory_entry &Entry : It) {
    std::string Name = Entry.path().filename().string();
    const std::string Ext = ".cubin";
    if (Name.size() > Ext.size() &&
        Name.compare(Name.size() - Ext.size(), Ext.size(), Ext) == 0)
      Keys.push_back(Name.substr(0, Name.size() - Ext.size()));
  }
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}
