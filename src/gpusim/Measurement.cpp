//===- gpusim/Measurement.cpp --------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Measurement.h"

#include "sass/Program.h"

#include <cassert>
#include <cmath>

using namespace cuasmrl;
using namespace cuasmrl::gpusim;

Measurement gpusim::measureKernel(Gpu &Device, const sass::Program &Prog,
                                  const KernelLaunch &Launch,
                                  const MeasureConfig &Config, bool RaceFree) {
  DecodedProgram Decoded(Prog);
  return measureKernel(Device, Prog, Decoded, Launch, Config, RaceFree);
}

Measurement gpusim::measureKernel(Gpu &Device, const sass::Program &Prog,
                                  const DecodedProgram &Decoded,
                                  const KernelLaunch &Launch,
                                  const MeasureConfig &Config, bool RaceFree) {
  Measurement Out;
  // The means below divide by the repeat count: zero must fail this
  // measurement, not kill the process (integer division is SIGFPE).
  if (Config.RepeatIters == 0) {
    Out.Valid = false;
    Out.FaultReason = "measurement needs at least one repeat iteration";
    return Out;
  }
  Rng Noise(Config.Seed);
  const GlobalMemory &Memory = Device.globalMemory();

  // Warmup primes the caches exactly like the paper's 100 warmup
  // iterations prime the real GPU's clocks and TLBs; repetitions clear
  // them first. A race-free schedule's warmups matter only for their
  // memory effect, which no cache state changes, so when the
  // repetitions clear the caches anyway the warmups run from cleared
  // caches too: then each simulated run is one the protocol would
  // repeat once memory stops changing.
  const bool ClearWarmups = RaceFree && Config.ClearL2BetweenReps;
  const unsigned Runs = Config.WarmupIters + Config.RepeatIters;
  RunResult R;
  bool FixedPoint = false;
  double Sum = 0.0, SumSq = 0.0;
  uint64_t CycleSum = 0;
  for (unsigned I = 0; I < Runs; ++I) {
    const bool Warmup = I < Config.WarmupIters;
    if (!FixedPoint) {
      const bool Clear = Warmup ? ClearWarmups : Config.ClearL2BetweenReps;
      if (Clear)
        Device.clearCaches();
      const uint64_t StoresBefore = Memory.changingStores();
      R = Device.run(Prog, Decoded, Launch, RunMode::Timed, Config.MaxBlocks);
      ++Out.SimulatedRuns;
      if (!R.Valid) {
        Out.Valid = false;
        Out.FaultReason = R.FaultReason;
        return Out;
      }
      // From cleared caches over unchanged memory, every later run of
      // this loop would start from the state this one started from.
      FixedPoint = Clear && Memory.changingStores() == StoresBefore;
    }
    if (Warmup)
      continue;
    double Jitter = 1.0 + Noise.normal(0.0, Config.NoiseStddev);
    double TimeUs = R.TimeUs * Jitter;
    Sum += TimeUs;
    SumSq += TimeUs * TimeUs;
    CycleSum += R.Cycles;
    Out.Counters = R.Counters;
  }

  unsigned N = Config.RepeatIters;
  Out.MeanUs = Sum / N;
  double Var = SumSq / N - Out.MeanUs * Out.MeanUs;
  Out.StddevUs = Var > 0 ? std::sqrt(Var) : 0.0;
  Out.Cycles = CycleSum / N;
  return Out;
}

//===----------------------------------------------------------------------===//
// MeasurementCache
//===----------------------------------------------------------------------===//

double MeasurementCache::measureOrCompute(
    ScheduleKey Key, const std::function<double(uint64_t)> &Simulate) {
  // Every simulation path seeds from the Check hash: a pure function
  // of the schedule alone, identical whether this schedule won the
  // cache slot, lost it to a primary collision, or bypassed the cache
  // entirely — so cached values can never depend on arrival order.
  std::unique_lock<std::mutex> Lock(Mutex);
  auto Emplaced = Map.try_emplace(Key.Primary);
  Entry &E = Emplaced.first->second;
  if (!Emplaced.second) {
    // Someone got here first. If their simulation is still in flight,
    // wait for the published value rather than duplicating the work.
    Published.wait(Lock, [&E] { return E.Ready; });
    if (!E.Failed) {
      if (E.Check == Key.Check) {
        ++Hits;
        return E.ValueUs;
      }
      // Primary-hash collision: a different schedule owns this slot.
      // Fall back to an uncached simulation.
      ++Collisions;
      Lock.unlock();
      return Simulate(deriveSeed(BaseSeed, Key.Check));
    }
    // The previous computer threw: the key is not poisoned — reclaim
    // the slot and recompute. (Other waiters see Ready drop back to
    // false and resume waiting.)
    E.Ready = false;
    E.Failed = false;
  }
  E.Check = Key.Check;
  ++Misses;
  Lock.unlock();
  double ValueUs = std::nan("");
  try {
    ValueUs = Simulate(deriveSeed(BaseSeed, Key.Check));
  } catch (...) {
    // Mark the failure so waiters unblock and retry, then propagate.
    Lock.lock();
    E.Failed = true;
    E.Ready = true;
    Lock.unlock();
    Published.notify_all();
    throw;
  }
  Lock.lock();
  E.ValueUs = ValueUs;
  E.Ready = true;
  Lock.unlock();
  Published.notify_all();
  return ValueUs;
}

bool MeasurementCache::lookup(ScheduleKey Key, double &OutUs) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find(Key.Primary);
  if (It == Map.end() || !It->second.Ready || It->second.Failed ||
      It->second.Check != Key.Check)
    return false;
  OutUs = It->second.ValueUs;
  return true;
}

uint64_t MeasurementCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

uint64_t MeasurementCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

uint64_t MeasurementCache::collisions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Collisions;
}

size_t MeasurementCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t Count = 0;
  for (const auto &KV : Map)
    Count += KV.second.Ready && !KV.second.Failed;
  return Count;
}

double MeasurementCache::hitRate() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Total = Hits + Misses;
  return Total ? static_cast<double>(Hits) / Total : 0.0;
}

void MeasurementCache::accumulate(PerfCounters &PC) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  PC.MeasureCacheHits += Hits;
  PC.MeasureCacheMisses += Misses;
}

MeasurementCache::ScheduleKey
MeasurementCache::keyFor(const sass::Program &Prog) {
  return ScheduleHash(Prog).key();
}

uint64_t MeasurementCache::hashSchedule(const sass::Program &Prog) {
  return keyFor(Prog).Primary;
}

uint64_t MeasurementCache::deriveSeed(uint64_t BaseSeed, uint64_t Key) {
  // Pure function of (BaseSeed, Key), never of measurement order.
  return mixSeed(BaseSeed, Key);
}

//===----------------------------------------------------------------------===//
// ScheduleHash
//===----------------------------------------------------------------------===//

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mixer.
uint64_t avalanche(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

} // namespace

uint64_t ScheduleHash::mixPrimary(uint64_t LineHash, uint64_t Pos) {
  return avalanche(LineHash ^ (0x9e3779b97f4a7c15ull * (Pos + 1)));
}

uint64_t ScheduleHash::mixCheck(uint64_t LineHash, uint64_t Pos) {
  // Independent of mixPrimary: different position injection and a
  // pre-whitened line hash, so a Primary collision does not imply a
  // Check collision.
  return avalanche(~LineHash + 0xc2b2ae3d27d4eb4full * (Pos + 1));
}

ScheduleHash::ScheduleHash(const sass::Program &Prog) {
  // The kernel name seeds both components (the printed header line of
  // the old full-text hash), keeping distinct kernels' schedules
  // distinct even when their bodies coincide.
  uint64_t N1 = 0xcbf29ce484222325ull;
  uint64_t N2 = 0x2545f4914f6cdd1dull;
  for (unsigned char C : Prog.name()) {
    N1 = (N1 ^ C) * 0x100000001b3ull;
    N2 = N2 * 0x9e3779b97f4a7c15ull + C + 1;
  }
  Primary = avalanche(N1);
  Check = avalanche(~N2);

  Lines1.reserve(Prog.size());
  Lines2.reserve(Prog.size());
  for (size_t I = 0; I < Prog.size(); ++I) {
    std::pair<uint64_t, uint64_t> H = Prog.stmt(I).contentHashes();
    Lines1.push_back(H.first);
    Lines2.push_back(H.second);
    Primary += mixPrimary(H.first, I);
    Check += mixCheck(H.second, I);
  }
}

void ScheduleHash::swap(size_t Upper) {
  assert(Upper + 1 < Lines1.size() && "swap out of range");
  size_t Lower = Upper + 1;
  Primary -= mixPrimary(Lines1[Upper], Upper) + mixPrimary(Lines1[Lower], Lower);
  Check -= mixCheck(Lines2[Upper], Upper) + mixCheck(Lines2[Lower], Lower);
  std::swap(Lines1[Upper], Lines1[Lower]);
  std::swap(Lines2[Upper], Lines2[Lower]);
  Primary += mixPrimary(Lines1[Upper], Upper) + mixPrimary(Lines1[Lower], Lower);
  Check += mixCheck(Lines2[Upper], Upper) + mixCheck(Lines2[Lower], Lower);
}
