//===- tests/pipeline_test.cpp - autotuner/pipeline/search/core tests ----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "core/Optimizer.h"
#include "sass/Parser.h"
#include "search/Search.h"
#include "triton/Autotuner.h"
#include "triton/DeployCache.h"
#include "triton/Pipeline.h"
#include "kernels/Generators.h"
#include "serve/DeployIndex.h"
#include "support/StringUtils.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

using namespace cuasmrl;
using namespace cuasmrl::kernels;

namespace {

/// Small, fast measurement protocol for tests.
gpusim::MeasureConfig quickMeasure() {
  gpusim::MeasureConfig M;
  M.WarmupIters = 1;
  M.RepeatIters = 1;
  M.NoiseStddev = 0.0;
  return M;
}

/// A serial autotuner on the quick protocol.
triton::Autotuner quickTuner() {
  triton::AutotuneOptions O;
  O.Measure = quickMeasure();
  return triton::Autotuner(O);
}

} // namespace

//===----------------------------------------------------------------------===//
// Autotuner (§3.1)
//===----------------------------------------------------------------------===//

TEST(AutotunerTest, PicksFastestConfig) {
  gpusim::Gpu Device;
  const triton::Autotuner Tuner = quickTuner();
  WorkloadShape Shape = paperShape(WorkloadKind::MmLeakyRelu);
  triton::AutotuneResult R =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
  ASSERT_FALSE(R.Sweep.empty());
  for (const triton::TunedConfig &T : R.Sweep) {
    if (T.Valid) {
      EXPECT_LE(R.BestUs, T.MeanUs + 1e-9);
    }
  }
}

TEST(AutotunerTest, SkipsNonFittingConfigs) {
  gpusim::Gpu Device;
  const triton::Autotuner Tuner = quickTuner();
  // Tiny shape: the BM=128 candidate cannot fit and must be skipped.
  WorkloadShape Shape = testShape(WorkloadKind::MmLeakyRelu);
  triton::AutotuneResult R =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
  for (const triton::TunedConfig &T : R.Sweep)
    EXPECT_TRUE(configFits(WorkloadKind::MmLeakyRelu, Shape, T.Config));
}

//===----------------------------------------------------------------------===//
// Parallel deterministic sweep engine
//===----------------------------------------------------------------------===//

namespace {

/// A shape no GEMM candidate configuration can tile (BlockM >= 32 for
/// every grid entry, but M == 1).
WorkloadShape impossibleGemmShape() {
  WorkloadShape S;
  S.M = 1;
  return S;
}

/// Runs one sweep with \p Workers on a fresh Autotuner and returns the
/// result (quick protocol, fixed base seed).
triton::AutotuneResult sweepWith(unsigned Workers, uint64_t BaseSeed = 7) {
  gpusim::Gpu Device;
  triton::AutotuneOptions O;
  O.Measure = quickMeasure();
  O.Measure.NoiseStddev = 0.003; // Noise on: seeding must still pin it.
  O.Workers = Workers;
  O.BaseSeed = BaseSeed;
  const triton::Autotuner Tuner(O);
  return Tuner.tune(Device, WorkloadKind::MmLeakyRelu,
                    testShape(WorkloadKind::MmLeakyRelu));
}

/// Bit-exact sweep equality (winner, timing, every candidate).
void expectSweepIdentical(const triton::AutotuneResult &A,
                          const triton::AutotuneResult &B) {
  EXPECT_EQ(A.Valid, B.Valid);
  EXPECT_TRUE(A.Best == B.Best);
  EXPECT_EQ(A.BestUs, B.BestUs); // Exact: identical bits, not "close".
  ASSERT_EQ(A.Sweep.size(), B.Sweep.size());
  for (size_t I = 0; I < A.Sweep.size(); ++I) {
    EXPECT_TRUE(A.Sweep[I].Config == B.Sweep[I].Config);
    EXPECT_EQ(A.Sweep[I].Valid, B.Sweep[I].Valid);
    EXPECT_EQ(A.Sweep[I].MeanUs, B.Sweep[I].MeanUs);
  }
}

} // namespace

TEST(AutotunerSweepTest, DeterministicAcrossWorkerCounts) {
  triton::AutotuneResult Serial = sweepWith(1);
  ASSERT_TRUE(Serial.Valid);
  ASSERT_FALSE(Serial.Sweep.empty());
  // Mirrors rl_test's RolloutTest worker-count invariance: the sweep is
  // a pure function of (BaseSeed, request), never of thread scheduling.
  expectSweepIdentical(Serial, sweepWith(2));
  expectSweepIdentical(Serial, sweepWith(4));
}

TEST(AutotunerSweepTest, RepeatedRunsWithSameSeedAreIdentical) {
  expectSweepIdentical(sweepWith(2), sweepWith(2));
  // A different base seed must actually reseed the noise streams.
  triton::AutotuneResult Reseeded = sweepWith(2, /*BaseSeed=*/99);
  EXPECT_NE(sweepWith(2).BestUs, Reseeded.BestUs);
}

TEST(AutotunerSweepTest, InvalidSweepIsFlagged) {
  gpusim::Gpu Device;
  const triton::Autotuner Tuner = quickTuner();
  triton::AutotuneResult R =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, impossibleGemmShape());
  EXPECT_FALSE(R.Valid);
  EXPECT_TRUE(R.Sweep.empty());
  EXPECT_GE(R.BestUs, 1e29); // Sentinel, not a garbage "winner" time.
}

TEST(AutotunerSweepTest, SweepAllMatchesIndividualTunes) {
  gpusim::Gpu Device;
  std::vector<triton::SweepRequest> Requests = {
      {WorkloadKind::MmLeakyRelu, testShape(WorkloadKind::MmLeakyRelu)},
      {WorkloadKind::Softmax, testShape(WorkloadKind::Softmax)},
      {WorkloadKind::FlashAttention, testShape(WorkloadKind::FlashAttention)},
  };
  triton::AutotuneOptions O;
  O.Measure = quickMeasure();
  O.Workers = 4;
  const triton::Autotuner Tuner(O);
  std::vector<triton::AutotuneResult> All = Tuner.sweepAll(Device, Requests);
  ASSERT_EQ(All.size(), Requests.size());
  for (size_t I = 0; I < Requests.size(); ++I) {
    triton::AutotuneResult Individual =
        Tuner.tune(Device, Requests[I].Kind, Requests[I].Shape);
    expectSweepIdentical(All[I], Individual);
  }
}

TEST(AutotunerSweepTest, SweepAllRepeatedRequestsAgree) {
  gpusim::Gpu Device;
  triton::SweepRequest R{WorkloadKind::Softmax,
                         testShape(WorkloadKind::Softmax)};
  const triton::Autotuner Tuner = quickTuner();
  std::vector<triton::AutotuneResult> All =
      Tuner.sweepAll(Device, {R, R, R});
  ASSERT_EQ(All.size(), 3u);
  expectSweepIdentical(All[0], All[1]);
  expectSweepIdentical(All[0], All[2]);
}

TEST(AutotunerSweepTest, ConcurrentTunesAgree) {
  // One immutable Autotuner shared by racing threads: every thread
  // sweeps on its own device copies and gets the same result.
  gpusim::Gpu Device;
  const triton::Autotuner Tuner = quickTuner();
  WorkloadShape Shape = testShape(WorkloadKind::MmLeakyRelu);
  std::vector<triton::AutotuneResult> Results(4);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Results.size(); ++T)
    Threads.emplace_back([&, T] {
      Results[T] = Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t T = 1; T < Results.size(); ++T)
    expectSweepIdentical(Results[0], Results[T]);
}

//===----------------------------------------------------------------------===//
// Pipeline (§4.1)
//===----------------------------------------------------------------------===//

TEST(PipelineTest, CompileInterceptRoundTrip) {
  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::MmLeakyRelu,
      testShape(WorkloadKind::MmLeakyRelu),
      candidateConfigs(WorkloadKind::MmLeakyRelu).front(), DataRng);
  Expected<sass::Program> P = triton::interceptCubin(K);
  ASSERT_TRUE(P.hasValue()) << P.error().str();
  EXPECT_EQ(P->str(), K.Runtime.Prog.str());
}

TEST(PipelineTest, SubstituteScheduleUpdatesBinaryAndRuntime) {
  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::Softmax, testShape(WorkloadKind::Softmax),
      candidateConfigs(WorkloadKind::Softmax).front(), DataRng);
  sass::Program Optimized = K.Runtime.Prog;
  // Find two swappable adjacent instructions.
  env::AssemblyGame Game(Device, K.Runtime, [] {
    env::GameConfig G;
    G.Measure.WarmupIters = 1;
    G.Measure.RepeatIters = 1;
    return G;
  }());
  std::vector<uint8_t> Mask = Game.actionMask();
  unsigned A = 0;
  while (A < Mask.size() && !Mask[A])
    ++A;
  ASSERT_LT(A, Mask.size());
  Game.step(A);
  Optimized = Game.current();

  triton::substituteSchedule(K, Optimized);
  Expected<sass::Program> Back = triton::interceptCubin(K);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->str(), Optimized.str());
  EXPECT_EQ(K.Runtime.Prog.str(), Optimized.str());
}

TEST(PipelineTest, ProbabilisticTestAcceptsValidSchedule) {
  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::RmsNorm, testShape(WorkloadKind::RmsNorm),
      candidateConfigs(WorkloadKind::RmsNorm).front(), DataRng);
  EXPECT_TRUE(triton::probabilisticTest(Device, K.Runtime, K.Runtime.Prog,
                                        K.Runtime.Prog, 2, DataRng));
}

TEST(PipelineTest, ProbabilisticTestRejectsCorruptSchedule) {
  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::MmLeakyRelu,
      testShape(WorkloadKind::MmLeakyRelu),
      candidateConfigs(WorkloadKind::MmLeakyRelu).front(), DataRng);
  // Violate stall counts deliberately: drop every fixed-latency
  // instruction to a 1-cycle stall (back-to-back dependent IMAD/IADD3
  // chains then read stale registers).
  sass::Program Bad = K.Runtime.Prog;
  for (size_t I = 0; I < Bad.size(); ++I)
    if (Bad.stmt(I).isInstr() && Bad.stmt(I).instr().isFixedLatency())
      Bad.stmt(I).instr().ctrl().setStall(1);
  EXPECT_FALSE(triton::probabilisticTest(Device, K.Runtime, K.Runtime.Prog,
                                         Bad, 2, DataRng));
}

//===----------------------------------------------------------------------===//
// Deploy cache (§4.2)
//===----------------------------------------------------------------------===//

TEST(DeployCacheTest, StoreAndLookup) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  triton::DeployCache Cache(Dir);

  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::Softmax, testShape(WorkloadKind::Softmax),
      candidateConfigs(WorkloadKind::Softmax).front(), DataRng);

  std::string Key = triton::DeployCache::makeKey(
      "A100-SIM", "softmax",
      candidateConfigs(WorkloadKind::Softmax).front().str());
  EXPECT_FALSE(Cache.contains(Key));
  ASSERT_TRUE(Cache.store(Key, K.Binary));
  EXPECT_TRUE(Cache.contains(Key));

  std::optional<cubin::CubinFile> Loaded = Cache.load(Key);
  ASSERT_TRUE(Loaded.has_value());
  Expected<sass::Program> P = cubin::disassemble(*Loaded);
  ASSERT_TRUE(P.hasValue());
  EXPECT_EQ(P->str(), K.Runtime.Prog.str());
}

TEST(DeployCacheTest, MissingKeyReturnsNothing) {
  test::TempDir Tmp;
  triton::DeployCache Cache(Tmp.sub("deploy"));
  EXPECT_FALSE(Cache.load("no-such-key").has_value());
}

TEST(DeployCacheTest, LoadRejectsCorruptFile) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  triton::DeployCache Cache(Dir);

  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::Softmax, testShape(WorkloadKind::Softmax),
      candidateConfigs(WorkloadKind::Softmax).front(), DataRng);
  ASSERT_TRUE(Cache.store("victim", K.Binary));

  // Truncate the stored cubin to half: the exact shape a torn write
  // would have left before store() became write-then-rename.
  std::string Path = Dir + "/victim.cubin";
  std::vector<uint8_t> Bytes = K.Binary.serialize();
  {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS.write(reinterpret_cast<const char *>(Bytes.data()),
             static_cast<std::streamsize>(Bytes.size() / 2));
  }
  EXPECT_TRUE(Cache.contains("victim")); // The file exists...
  EXPECT_FALSE(Cache.load("victim").has_value()); // ...but never half-loads.
}

TEST(DeployCacheTest, StoreLeavesOnlyTheFinalFile) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  triton::DeployCache Cache(Dir);

  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::RmsNorm, testShape(WorkloadKind::RmsNorm),
      candidateConfigs(WorkloadKind::RmsNorm).front(), DataRng);
  ASSERT_TRUE(Cache.store("atomic", K.Binary));
  ASSERT_TRUE(Cache.store("atomic", K.Binary)); // Overwrite in place.

  // The rename must consume the temporary: exactly one file remains.
  std::vector<std::string> Names;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Names.push_back(Entry.path().filename().string());
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0], "atomic.cubin");
}

TEST(DeployCacheTest, ConcurrentStoresOfOneKeyStayComplete) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  triton::DeployCache Cache(Dir);

  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::Softmax, testShape(WorkloadKind::Softmax),
      candidateConfigs(WorkloadKind::Softmax).front(), DataRng);

  std::vector<std::thread> Writers;
  for (int T = 0; T < 4; ++T)
    Writers.emplace_back([&] {
      for (int I = 0; I < 8; ++I)
        EXPECT_TRUE(Cache.store("contended", K.Binary));
    });
  for (std::thread &T : Writers)
    T.join();
  // Whatever store "won", the visible file is a complete cubin.
  std::optional<cubin::CubinFile> Loaded = Cache.load("contended");
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_TRUE(cubin::disassemble(*Loaded).hasValue());
}

TEST(DeployCacheTest, MakeKeySeparatorCannotCollide) {
  // The flattening used to be "<a>-<b>-<c>" with no escaping, so a
  // component containing the separator shifted the boundaries:
  // ("a-b","c") and ("a","b-c") collided. The digest over the
  // length-delimited raw components pins each triple to its own key.
  EXPECT_NE(triton::DeployCache::makeKey("a-b", "c", "x"),
            triton::DeployCache::makeKey("a", "b-c", "x"));
  EXPECT_NE(triton::DeployCache::makeKey("a", "b", ""),
            triton::DeployCache::makeKey("a", "", "b"));
  // Sanitization is lossy ('/' and ' ' both map to '_') — the digest
  // must still separate the raw strings.
  EXPECT_NE(triton::DeployCache::makeKey("g", "w/x", "c"),
            triton::DeployCache::makeKey("g", "w x", "c"));
  // Identical triples agree, of course.
  EXPECT_EQ(triton::DeployCache::makeKey("g", "w", "c"),
            triton::DeployCache::makeKey("g", "w", "c"));
}

TEST(DeployCacheTest, MakeKeySanitizesHostileComponents) {
  std::string Key = triton::DeployCache::makeKey(
      "A100/PCIe 80GB", "../../etc/passwd", "bm=64 bn=64*\\\n");
  // Filesystem-hostile characters never reach the file name...
  for (char C : {'/', '\\', ' ', '*', '\n'})
    EXPECT_EQ(Key.find(C), std::string::npos) << "char: " << C;
  // ...and the dot-dot components are neutralized by the '/'
  // replacement (no path separator survives to resurrect them).
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  triton::DeployCache Cache(Dir);
  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::Softmax, testShape(WorkloadKind::Softmax),
      candidateConfigs(WorkloadKind::Softmax).front(), DataRng);
  ASSERT_TRUE(Cache.store(Key, K.Binary));
  EXPECT_TRUE(Cache.contains(Key));
  EXPECT_TRUE(Cache.load(Key).has_value());
  // The store landed inside the cache directory, not up the tree.
  size_t Entries = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    (void)Entry;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1u);
}

TEST(DeployCacheTest, KeysEnumeratesStoredKeysSorted) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  triton::DeployCache Cache(Dir);
  EXPECT_TRUE(Cache.keys().empty()); // Missing directory: empty, no throw.

  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::Softmax, testShape(WorkloadKind::Softmax),
      candidateConfigs(WorkloadKind::Softmax).front(), DataRng);
  ASSERT_TRUE(Cache.store("beta", K.Binary));
  ASSERT_TRUE(Cache.store("alpha", K.Binary));
  EXPECT_EQ(Cache.keys(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(DeployCacheTest, StoreFailsCleanlyOnUnwritableDirectory) {
  // A regular file where the directory should be: create_directories
  // fails even when running as root (chmod-based fixtures do not).
  test::TempDir Tmp;
  std::string Blocker = Tmp.sub("blocker");
  {
    std::ofstream OS(Blocker);
    OS << "file, not dir";
  }
  triton::DeployCache Cache(Blocker + "/deploy");
  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::Softmax, testShape(WorkloadKind::Softmax),
      candidateConfigs(WorkloadKind::Softmax).front(), DataRng);
  EXPECT_FALSE(Cache.store("key", K.Binary));
  EXPECT_TRUE(Cache.keys().empty());
}

namespace {

/// A real deployed cubin: the compiled softmax kernel.
cubin::CubinFile softmaxCubin() {
  gpusim::Gpu Device;
  Rng DataRng(3);
  return triton::compileKernel(Device, WorkloadKind::Softmax,
                               testShape(WorkloadKind::Softmax),
                               candidateConfigs(WorkloadKind::Softmax).front(),
                               DataRng)
      .Binary;
}

} // namespace

TEST(DeployCacheTest, LoadOutcomesForMissingEmptyAndDirectoryEntries) {
  test::TempDir Tmp;
  triton::DeployCache Cache(Tmp.path());

  EXPECT_FALSE(Cache.load("missing").has_value());
  EXPECT_FALSE(Cache.contains("missing"));
  EXPECT_FALSE(Cache.loadMeta("missing").has_value());

  // An empty cubin is present but decodes to nothing: the service's
  // corrupt-read path. An empty sidecar reads as present and empty.
  { std::ofstream OS(Tmp.sub("empty.cubin")); }
  { std::ofstream OS(Tmp.sub("empty.meta")); }
  EXPECT_FALSE(Cache.load("empty").has_value());
  EXPECT_TRUE(Cache.contains("empty"));
  std::optional<std::string> Meta = Cache.loadMeta("empty");
  ASSERT_TRUE(Meta.has_value());
  EXPECT_TRUE(Meta->empty());

  // A directory at either path reads as nothing and never throws.
  std::filesystem::create_directories(Tmp.sub("dir.cubin"));
  std::filesystem::create_directories(Tmp.sub("dir.meta"));
  EXPECT_FALSE(Cache.load("dir").has_value());
  EXPECT_TRUE(Cache.contains("dir"));
  EXPECT_FALSE(Cache.loadMeta("dir").has_value());
}

TEST(DeployCacheTest, TrailingBytesLoadAsCorrupt) {
  // A stored cubin with bytes appended is not the cubin that was
  // stored: it loads as nothing while contains() stays true, which
  // sends the service down its corrupt-read retry path.
  test::TempDir Tmp;
  triton::DeployCache Cache(Tmp.path());
  ASSERT_TRUE(Cache.store("victim", softmaxCubin()));
  ASSERT_TRUE(Cache.load("victim").has_value());
  {
    std::ofstream OS(Tmp.sub("victim.cubin"),
                     std::ios::binary | std::ios::app);
    OS.put('\0');
  }
  EXPECT_TRUE(Cache.contains("victim"));
  EXPECT_FALSE(Cache.load("victim").has_value());
}

//===----------------------------------------------------------------------===//
// DeployFuzz: seeded fuzzers for the deploy cache's decoders
//===----------------------------------------------------------------------===//

namespace {

void putU32(std::vector<uint8_t> &Bytes, size_t Off, uint32_t V) {
  std::memcpy(Bytes.data() + Off, &V, sizeof(V));
}

uint32_t getU32(const std::vector<uint8_t> &Bytes, size_t Off) {
  uint32_t V;
  std::memcpy(&V, Bytes.data() + Off, sizeof(V));
  return V;
}

uint16_t getU16(const std::vector<uint8_t> &Bytes, size_t Off) {
  uint16_t V;
  std::memcpy(&V, Bytes.data() + Off, sizeof(V));
  return V;
}

/// Byte offsets of the length-bearing fields of a serialized cubin
/// (layout in cubin/Cubin.cpp): the info name, the section count, and
/// each section's name length and data size.
struct CubinLayout {
  size_t InfoName = 8, Count = 0;
  std::vector<size_t> SectionNames, SectionSizes;

  explicit CubinLayout(const std::vector<uint8_t> &Bytes) {
    Count = InfoName + 2 + getU16(Bytes, InfoName) + 5 * 4;
    size_t Pos = Count + 4;
    for (uint32_t I = 0; I < getU32(Bytes, Count); ++I) {
      SectionNames.push_back(Pos);
      Pos += 2 + getU16(Bytes, Pos);
      SectionSizes.push_back(Pos);
      Pos += 4 + getU32(Bytes, Pos);
    }
    EXPECT_EQ(Pos, Bytes.size()) << "layout walk disagrees with the format";
  }
};

} // namespace

TEST(DeployFuzz, EveryCubinTruncationIsRejected) {
  std::vector<uint8_t> Bytes = softmaxCubin().serialize();
  ASSERT_TRUE(cubin::CubinFile::deserialize(Bytes).hasValue());
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    EXPECT_FALSE(cubin::CubinFile::deserialize(Prefix).hasValue())
        << "prefix of " << Len << " of " << Bytes.size() << " bytes";
  }
}

TEST(DeployFuzz, CubinBitFlipsAreRejectedOrDecodeCanonically) {
  // Decoding is canonical: whatever a flipped byte string decodes to
  // must serialize back to exactly those bytes. Two byte strings never
  // decode to one cubin.
  const std::vector<uint8_t> Bytes = softmaxCubin().serialize();
  Rng R(2024);
  unsigned Accepted = 0, Rejected = 0;
  for (unsigned Trial = 0; Trial < 4096; ++Trial) {
    std::vector<uint8_t> Flipped = Bytes;
    for (uint64_t Flips = 1 + R.uniformInt(3); Flips > 0; --Flips)
      Flipped[R.uniformInt(Flipped.size())] ^=
          static_cast<uint8_t>(1u << R.uniformInt(8));
    Expected<cubin::CubinFile> File = cubin::CubinFile::deserialize(Flipped);
    if (!File) {
      ++Rejected;
      continue;
    }
    ++Accepted;
    ASSERT_EQ(File->serialize(), Flipped) << "trial " << Trial;
  }
  // Both outcomes occur: flips in section data decode, flips in the
  // magic or a length field do not.
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(DeployFuzz, HostileCubinCountsAndLengthsAreRejected) {
  const std::vector<uint8_t> Bytes = softmaxCubin().serialize();
  const CubinLayout L(Bytes);
  ASSERT_FALSE(L.SectionSizes.empty());
  auto Rejects = [](const std::vector<uint8_t> &B) {
    return !cubin::CubinFile::deserialize(B).hasValue();
  };

  const uint32_t Count = getU32(Bytes, L.Count);
  for (uint32_t Hostile : {0u, Count - 1, Count + 1, Count + 1000, 1u << 16,
                           1u << 31, 0xFFFFFFFFu}) {
    std::vector<uint8_t> B = Bytes;
    putU32(B, L.Count, Hostile);
    EXPECT_TRUE(Rejects(B)) << "section count " << Hostile;
  }
  for (size_t I = 0; I < L.SectionSizes.size(); ++I) {
    for (uint32_t Hostile : {1u << 20, 1u << 31, 0xFFFFFFFFu}) {
      std::vector<uint8_t> B = Bytes;
      putU32(B, L.SectionSizes[I], Hostile);
      EXPECT_TRUE(Rejects(B)) << "section " << I << " size " << Hostile;
    }
  }
  std::vector<size_t> NameFields = L.SectionNames;
  NameFields.push_back(L.InfoName);
  for (size_t Off : NameFields) {
    std::vector<uint8_t> B = Bytes;
    B[Off] = B[Off + 1] = 0xFF; // A 65535-byte name.
    EXPECT_TRUE(Rejects(B)) << "name length at offset " << Off;
  }
  // The last section's size one past its data is a truncation; one
  // short of it leaves a trailing byte.
  for (int Delta : {-1, 1}) {
    std::vector<uint8_t> B = Bytes;
    size_t Off = L.SectionSizes.back();
    putU32(B, Off, getU32(B, Off) + static_cast<uint32_t>(Delta));
    EXPECT_TRUE(Rejects(B)) << "last section size off by " << Delta;
  }
}

TEST(DeployFuzz, DeployMetaEditsNeverCrashAndAcceptedEntriesRoundTrip) {
  const std::vector<std::string> HostileNumbers = {
      "",           "-1",   "+3",         "0x10",
      " 7",         "1e9",  "nan",        "4294967295",
      "4294967296", "18446744073709551615", "18446744073709551616",
      "99999999999999999999999999999999"};
  // An accepted entry must survive encode -> parse unchanged; the
  // encoding covers every field but the key, which parse is handed.
  unsigned Accepted = 0, Rejected = 0;
  auto Check = [&](const std::string &Text) {
    std::optional<serve::DeployedEntry> E =
        serve::parseDeployMeta(Text, "fuzz-key");
    if (!E) {
      ++Rejected;
      return;
    }
    ++Accepted;
    std::string Encoded = serve::encodeDeployMeta(*E);
    std::optional<serve::DeployedEntry> Back =
        serve::parseDeployMeta(Encoded, E->Key);
    ASSERT_TRUE(Back.has_value()) << Encoded;
    EXPECT_EQ(serve::encodeDeployMeta(*Back), Encoded);
    EXPECT_EQ(Back->Key, "fuzz-key");
  };

  Rng R(77);
  for (WorkloadKind Kind : allWorkloads()) {
    serve::DeployedEntry Seed;
    Seed.GpuType = "A100-SIM";
    Seed.Kind = Kind;
    Seed.Shape = testShape(Kind);
    Seed.Key = "fuzz-key";
    const std::string Text = serve::encodeDeployMeta(Seed);
    for (size_t Len = 0; Len <= Text.size(); ++Len)
      Check(Text.substr(0, Len));

    for (unsigned Trial = 0; Trial < 512; ++Trial) {
      std::vector<std::string> Lines = split(Text, '\n');
      for (uint64_t Edits = 1 + R.uniformInt(3); Edits > 0; --Edits) {
        size_t At = R.uniformInt(Lines.size());
        switch (R.uniformInt(5)) {
        case 0: // Drop a line.
          Lines.erase(Lines.begin() + At);
          if (Lines.empty())
            Lines.push_back("");
          break;
        case 1: // Repeat a line.
          Lines.insert(Lines.begin() + At, Lines[At]);
          break;
        case 2: // Swap two lines.
          std::swap(Lines[At], Lines[R.uniformInt(Lines.size())]);
          break;
        case 3: { // A shape line with hostile numbers and field counts.
          std::string Shape = "shape=";
          for (uint64_t F = 0, N = R.uniformInt(12); F < N; ++F)
            Shape += (F ? "," : "") +
                     HostileNumbers[R.uniformInt(HostileNumbers.size())];
          Lines[At] = Shape;
          break;
        }
        default: { // Overwrite one byte with anything, '\n' included.
          std::string &Line = Lines[At];
          if (!Line.empty())
            Line[R.uniformInt(Line.size())] =
                static_cast<char>(R.uniformInt(256));
          break;
        }
        }
      }
      std::string Edited;
      for (size_t I = 0; I < Lines.size(); ++I)
        Edited += (I ? "\n" : "") + Lines[I];
      if (R.bernoulli(0.25))
        Edited.resize(R.uniformInt(Edited.size() + 1));
      Check(Edited);
    }
  }
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

//===----------------------------------------------------------------------===//
// Search baselines (§7)
//===----------------------------------------------------------------------===//

namespace {

env::GameConfig searchGameConfig() {
  env::GameConfig G;
  G.Measure.WarmupIters = 1;
  G.Measure.RepeatIters = 1;
  G.Measure.NoiseStddev = 0.0;
  G.EpisodeLength = 64;
  return G;
}

} // namespace

TEST(SearchTest, GreedyNeverWorsens) {
  gpusim::Gpu Device;
  Rng DataRng(3);
  BuiltKernel K = buildKernel(Device, WorkloadKind::MmLeakyRelu,
                              testShape(WorkloadKind::MmLeakyRelu),
                              candidateConfigs(WorkloadKind::MmLeakyRelu)
                                  .front(),
                              ScheduleStyle::TritonO3, DataRng);
  env::AssemblyGame Game(Device, K, searchGameConfig());
  Rng SR(1);
  search::SearchResult R = search::greedySearch(Game, 400, SR);
  EXPECT_LE(R.BestTimeUs, R.InitialTimeUs + 1e-9);
  EXPECT_GT(R.StepsUsed, 0u);
}

TEST(SearchTest, RandomTracksBestSchedule) {
  gpusim::Gpu Device;
  Rng DataRng(3);
  BuiltKernel K = buildKernel(Device, WorkloadKind::Softmax,
                              testShape(WorkloadKind::Softmax),
                              candidateConfigs(WorkloadKind::Softmax)
                                  .front(),
                              ScheduleStyle::TritonO3, DataRng);
  env::AssemblyGame Game(Device, K, searchGameConfig());
  Rng SR(2);
  search::SearchResult R = search::randomSearch(Game, 150, SR);
  EXPECT_LE(R.BestTimeUs, R.InitialTimeUs + 1e-9);
  ASSERT_FALSE(R.BestCurve.empty());
  // Best-so-far curves are monotone non-increasing.
  for (size_t I = 1; I < R.BestCurve.size(); ++I)
    EXPECT_LE(R.BestCurve[I], R.BestCurve[I - 1] + 1e-9);
}

namespace {

/// A hand-crafted kernel whose single reorderable pair is pinned from
/// both sides: the movable LDG sits between a low-stall IMAD producer
/// and that producer's consumer, so moving it either way strips the
/// LDG's 6-cycle stall from the producer-to-consumer path (required
/// stall: 5 under the builtin table). The trailing STG is fenced by
/// labels. With masking ON every action is masked at reset; with
/// masking OFF both structural LDG moves execute an invalid schedule.
kernels::BuiltKernel craftedPinnedKernel(gpusim::Gpu &Device) {
  std::string Text;
  Text += "  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;\n"; // In ptr.
  Text += "  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;\n";
  Text += "  [B------:R-:W-:-:S04] MOV R6, c[0x0][0x168] ;\n"; // Out ptr.
  Text += "  [B------:R-:W-:-:S04] MOV R7, c[0x0][0x16c] ;\n";
  Text += "  [B------:R-:W-:-:S06] MOV R4, 0x9 ;\n";
  Text += "  [B------:R-:W-:-:S06] MOV R5, 0x7 ;\n";
  Text += "  [B------:R-:W-:-:S02] IMAD R8, R4, R5, RZ ;\n";     // Producer.
  Text += "  [B------:R-:W0:-:S06] LDG.E R10, [R2.64] ;\n";      // Movable.
  // The producer's consumer takes no barrier wait: only the LDG's
  // issue stall separates it from the 5-cycle IMAD latency, so moving
  // the LDG either way makes this read stale on the timed machine.
  Text += "  [B------:R-:W-:-:S04] IADD3 R12, R8, 0x1, RZ ;\n";
  Text += "  [B0-----:R-:W-:-:S04] IADD3 R13, R10, RZ, RZ ;\n";  // Load use.
  Text += ".L_STORE:\n";
  Text += "  [B------:R-:W-:-:S01] STG.E [R6.64], R12 ;\n";
  Text += ".L_END:\n";
  Text += "  [B------:R-:W-:-:S01] EXIT ;\n";

  Expected<sass::Program> P = sass::Parser::parseProgram(Text, "pinned");
  if (!P.hasValue())
    throw std::runtime_error("crafted kernel failed to parse: " +
                             P.error().str());
  kernels::BuiltKernel K;
  K.Name = "crafted_pinned";
  K.Prog = *P;
  // Distinct input and output buffers: unmasked mode re-runs the
  // schedule on the oracle, so the load must not alias the store.
  uint64_t In = Device.globalMemory().allocate(16);
  uint64_t Out = Device.globalMemory().allocate(16);
  K.Inputs.push_back({In, 16});
  K.OutAddr = Out;
  K.OutBytes = 8;
  K.Launch.WarpsPerBlock = 1;
  K.Launch.addParam64(In);
  K.Launch.addParam64(Out);
  return K;
}

env::GameConfig craftedSearchConfig() {
  env::GameConfig G;
  G.Table = analysis::StallTable::builtin(); // Deterministic IMAD stall (5).
  G.Measure.WarmupIters = 1;
  G.Measure.RepeatIters = 1;
  G.Measure.NoiseStddev = 0.0;
  G.EpisodeLength = 64;
  return G;
}

} // namespace

TEST(SearchTest, EvolutionaryBailsOutWhenEveryActionIsMasked) {
  // Regression: with every genome truncating to zero applied actions,
  // `while (StepsUsed < TotalSteps)` used to spin forever because no
  // generation could ever advance StepsUsed.
  gpusim::Gpu Device;
  kernels::BuiltKernel K = craftedPinnedKernel(Device);
  env::AssemblyGame Game(Device, K, craftedSearchConfig());
  ASSERT_TRUE(Game.allMasked()) << "crafted kernel must start fully masked";
  Rng SR(11);
  search::SearchResult R = search::evolutionarySearch(Game, 200, SR);
  EXPECT_EQ(R.StepsUsed, 0u);
  EXPECT_EQ(R.BestTimeUs, R.InitialTimeUs);
}

TEST(SearchTest, GreedyCountsInvalidStepsAsStuck) {
  // Regression: an Invalid step (the env rejects and reverts the move)
  // used to reset the stuck counter, so a schedule whose remaining
  // actions all execute invalid schedules never tripped the local-
  // minimum termination and burned the whole step budget.
  gpusim::Gpu Device;
  kernels::BuiltKernel K = craftedPinnedKernel(Device);
  env::GameConfig G = craftedSearchConfig();
  G.UseActionMasking = false; // Structural mask only: invalid moves sample.
  env::AssemblyGame Game(Device, K, G);
  Rng SR(5);
  const unsigned TotalSteps = 2000;
  search::SearchResult R = search::greedySearch(Game, TotalSteps, SR);
  // Stuck > 64 must terminate the search after ~65 invalid attempts.
  EXPECT_LT(R.StepsUsed, 200u);
  EXPECT_EQ(R.BestTimeUs, R.InitialTimeUs);
}

TEST(SearchTest, EvolutionaryImprovesOrMatches) {
  gpusim::Gpu Device;
  Rng DataRng(3);
  BuiltKernel K = buildKernel(Device, WorkloadKind::MmLeakyRelu,
                              testShape(WorkloadKind::MmLeakyRelu),
                              candidateConfigs(WorkloadKind::MmLeakyRelu)
                                  .front(),
                              ScheduleStyle::TritonO3, DataRng);
  env::AssemblyGame Game(Device, K, searchGameConfig());
  Rng SR(3);
  search::SearchResult R = search::evolutionarySearch(Game, 300, SR);
  EXPECT_LE(R.BestTimeUs, R.InitialTimeUs + 1e-9);
}

//===----------------------------------------------------------------------===//
// End-to-end optimizer (Figure 2)
//===----------------------------------------------------------------------===//

TEST(OptimizerTest, EndToEndImprovesOrMatchesAndVerifies) {
  gpusim::Gpu Device;
  Rng DataRng(5);
  core::OptimizeConfig C;
  C.Ppo.TotalSteps = 256;
  C.Ppo.RolloutLen = 32;
  C.Ppo.Lr = 1e-3;
  C.Ppo.Channels = 8;
  C.Ppo.Hidden = 32;
  C.Game.Measure.WarmupIters = 1;
  C.Game.Measure.RepeatIters = 1;
  C.Game.Measure.NoiseStddev = 0.001;
  C.AutotuneMeasure = quickMeasure();
  C.ProbTestRounds = 1;
  core::Optimizer Opt(C);

  core::OptimizeResult R =
      Opt.optimize(Device, WorkloadKind::MmLeakyRelu,
                   testShape(WorkloadKind::MmLeakyRelu), DataRng);
  EXPECT_GT(R.TritonUs, 0.0);
  EXPECT_LE(R.OptimizedUs, R.TritonUs * 1.001);
  EXPECT_TRUE(R.Verified);
  EXPECT_FALSE(R.Training.empty());
  EXPECT_GT(R.KernelExecutions, 0u);
  // The optimized binary must disassemble to the optimized schedule.
  Expected<sass::Program> P = triton::interceptCubin(R.Kernel);
  ASSERT_TRUE(P.hasValue());
  EXPECT_EQ(P->str(), R.OptimizedProg.str());
}

TEST(OptimizerTest, SurfacesAutotuneFailureInsteadOfTrainingOnGarbage) {
  gpusim::Gpu Device;
  Rng DataRng(5);
  core::OptimizeConfig C;
  C.AutotuneMeasure = quickMeasure();
  core::Optimizer Opt(C);
  core::OptimizeResult R = Opt.optimize(Device, WorkloadKind::MmLeakyRelu,
                                        impossibleGemmShape(), DataRng);
  EXPECT_FALSE(R.AutotuneValid);
  EXPECT_FALSE(R.Verified);
  EXPECT_TRUE(R.Training.empty()); // The run stopped at level 1.
  EXPECT_EQ(R.TritonUs, 0.0);
}

TEST(OptimizerTest, ZeroGameRepeatsAreRefusedBeforeAnyWork) {
  // Every reward would average zero repetitions: NaN rewards and a NaN
  // OptimizedUs. The wire decoder refuses this config; in process, the
  // optimizer refuses it at construction, naming the field.
  core::OptimizeConfig C;
  C.Game.Measure.RepeatIters = 0;
  try {
    core::Optimizer Opt(C);
    FAIL() << "an optimizer accepted zero game repetitions";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("Game.Measure.RepeatIters"),
              std::string::npos)
        << E.what();
  }
}

TEST(OptimizerTest, AutotuneAllPersistsWinnersThroughDeployCache) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  triton::DeployCache Deploy(Dir);

  gpusim::Gpu Device;
  core::OptimizeConfig C;
  C.AutotuneMeasure = quickMeasure();
  C.AutotuneWorkers = 2;
  core::Optimizer Opt(C);

  std::vector<triton::SweepRequest> Requests = {
      {WorkloadKind::Softmax, testShape(WorkloadKind::Softmax)},
      {WorkloadKind::MmLeakyRelu, impossibleGemmShape()}, // Never persisted.
      {WorkloadKind::RmsNorm, testShape(WorkloadKind::RmsNorm)},
  };
  core::DeployStats Stats;
  std::vector<triton::AutotuneResult> Results =
      Opt.autotuneAll(Device, Requests, &Deploy, "A100-SIM", &Stats);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_TRUE(Results[0].Valid);
  EXPECT_FALSE(Results[1].Valid);
  EXPECT_TRUE(Results[2].Valid);
  EXPECT_EQ(Stats.Attempted, 2u); // The invalid sweep never persists.
  EXPECT_EQ(Stats.Stored, 2u);
  EXPECT_EQ(Stats.Failures, 0u);

  unsigned Stored = 0;
  for (size_t I = 0; I < Requests.size(); ++I) {
    std::string Key = triton::DeployCache::makeKey(
        "A100-SIM",
        triton::Autotuner::requestKey(Requests[I].Kind, Requests[I].Shape),
        Results[I].Best.str());
    if (!Results[I].Valid) {
      EXPECT_FALSE(Deploy.contains(Key));
      continue;
    }
    ASSERT_TRUE(Deploy.contains(Key)) << Key;
    std::optional<cubin::CubinFile> Loaded = Deploy.load(Key);
    ASSERT_TRUE(Loaded.has_value());
    EXPECT_TRUE(cubin::disassemble(*Loaded).hasValue());
    ++Stored;
  }
  EXPECT_EQ(Stored, 2u);
}

TEST(OptimizerTest, AutotuneAllSurfacesPersistFailures) {
  // A regular file blocks the deploy directory: every store must fail
  // and be counted — winners are never dropped silently.
  test::TempDir Tmp;
  std::string Blocker = Tmp.sub("blocker");
  {
    std::ofstream OS(Blocker);
    OS << "file, not dir";
  }
  triton::DeployCache Deploy(Blocker + "/deploy");

  gpusim::Gpu Device;
  core::OptimizeConfig C;
  C.AutotuneMeasure = quickMeasure();
  core::Optimizer Opt(C);

  std::vector<triton::SweepRequest> Requests = {
      {WorkloadKind::Softmax, testShape(WorkloadKind::Softmax)},
      {WorkloadKind::RmsNorm, testShape(WorkloadKind::RmsNorm)},
  };
  core::DeployStats Stats;
  std::vector<triton::AutotuneResult> Results =
      Opt.autotuneAll(Device, Requests, &Deploy, "A100-SIM", &Stats);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].Valid); // The sweep itself still succeeds...
  EXPECT_TRUE(Results[1].Valid);
  EXPECT_EQ(Stats.Attempted, 2u); // ...but persistence reports honestly.
  EXPECT_EQ(Stats.Stored, 0u);
  EXPECT_EQ(Stats.Failures, 2u);
}
