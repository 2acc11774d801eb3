//===- gpusim/Measurement.h - Kernel timing harness --------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's measurement methodology (§3.6): warm the GPU up, repeat
/// the kernel, clear L2 between iterations, and average CUDA-event
/// elapsed times; "the standard deviation of two individual measurements
/// is typically within 1%". The simulator is deterministic, so the
/// warmup/repeat structure is preserved at reduced counts and the ~1%
/// run-to-run variation is reintroduced as seeded multiplicative noise —
/// the RL reward sees the same noisy-oracle statistics the paper's agent
/// saw.
///
/// Determinism also lets a measurement stop simulating at its memory
/// fixed point: caches hold tags only, so a run from cleared caches that
/// changes no memory word is what every later run from cleared caches
/// would be, bit for bit. The results (and the device left behind) are
/// those of the full protocol; Measurement::SimulatedRuns counts the
/// runs actually simulated (docs/SIMULATOR.md, "Measurement").
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_MEASUREMENT_H
#define CUASMRL_GPUSIM_MEASUREMENT_H

#include "gpusim/DecodedProgram.h"
#include "gpusim/Gpu.h"
#include "support/Rng.h"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace cuasmrl {
namespace sass {
class Program;
}
namespace gpusim {

/// Measurement configuration.
struct MeasureConfig {
  unsigned WarmupIters = 2;   ///< Paper: 100 (simulator is deterministic).
  unsigned RepeatIters = 3;   ///< Paper: 100.
  bool ClearL2BetweenReps = true;
  double NoiseStddev = 0.003; ///< ~0.3% multiplicative timing noise.
  unsigned MaxBlocks = 0;     ///< 0 = all blocks; reward loops restrict.
  uint64_t Seed = 1;
};

/// One measurement outcome.
struct Measurement {
  bool Valid = true;
  std::string FaultReason;
  double MeanUs = 0.0;
  double StddevUs = 0.0;
  uint64_t Cycles = 0;        ///< Mean cycles (noise-free).
  PerfCounters Counters;      ///< From the last repetition.
  /// Timed runs simulated: at most the protocol's WarmupIters +
  /// RepeatIters (the §7 cost count), fewer once a run reaches the
  /// memory fixed point.
  unsigned SimulatedRuns = 0;
};

/// Times \p Prog on \p Device with the paper's warmup/repeat protocol.
/// Decodes the program into a kernel image once, then reuses it across
/// every warmup/repeat run. A config with zero repeat iterations gives
/// an invalid measurement.
///
/// Every field of the result, and the device's memory and cache
/// contents afterwards, are those of the full protocol; only the number
/// of runs simulated to get there shrinks. A repetition that runs from
/// cleared caches (ClearL2BetweenReps) and changes no memory word
/// stands for every remaining repetition, for any schedule. \p RaceFree
/// promises that the schedule's memory effect and validity do not
/// depend on the cache state it starts in (masked play and the -O3
/// schedules keep it; unmasked play need not, see
/// OracleTimedDivergenceTest). With the promise and ClearL2BetweenReps,
/// every warmup also runs from cleared caches, and one that changes
/// nothing stands for the remaining warmups and every repetition. Each
/// repetition keeps its own noise draw.
///
/// Thread-safety: mutates \p Device (memory, cache state) — callers
/// running concurrently must each own their device; concurrent calls
/// on one Gpu are a data race.
Measurement measureKernel(Gpu &Device, const sass::Program &Prog,
                          const KernelLaunch &Launch,
                          const MeasureConfig &Config = MeasureConfig(),
                          bool RaceFree = false);

/// As above with a caller-maintained pre-decoded image (the assembly
/// game updates its image in O(1) per swap instead of redecoding).
Measurement measureKernel(Gpu &Device, const sass::Program &Prog,
                          const DecodedProgram &Decoded,
                          const KernelLaunch &Launch,
                          const MeasureConfig &Config = MeasureConfig(),
                          bool RaceFree = false);

/// Shared schedule -> latency memoization for the reward loop.
///
/// Keyed by a canonical 64-bit hash of the schedule text
/// (hashSchedule()); one cache is shared by every AssemblyGame playing
/// the same kernel so concurrent episodes never re-simulate an
/// already-measured schedule. Invalid schedules are cached as NaN.
///
/// Thread-safety contract: every member is safe to call concurrently
/// from any number of threads. measureOrCompute() additionally gives a
/// single-simulation guarantee per key — when several threads miss on
/// the same key simultaneously, exactly one runs \p Simulate while the
/// others block until its value is published (the waiters count as
/// hits: they did not simulate). The simulation callback itself runs
/// *outside* the cache lock, so distinct keys simulate in parallel.
///
/// Determinism contract: the noise seed handed to \p Simulate is
/// derived from (BaseSeed, Key) only — never from arrival order — so a
/// schedule's cached latency is identical no matter which env measures
/// it first or how many workers race. This is what makes N-worker
/// training runs bit-reproducible.
class MeasurementCache {
public:
  /// Canonical schedule identity: \c Primary indexes the cache and
  /// seeds the noise; \c Check is an independent hash verified on
  /// every hit, so a 64-bit collision degrades to an uncached
  /// simulation instead of silently returning another schedule's
  /// latency.
  struct ScheduleKey {
    uint64_t Primary = 0;
    uint64_t Check = 0;
  };

  /// \p BaseSeed folds into every per-key noise seed (use the master
  /// training seed so different runs see different noise).
  explicit MeasurementCache(uint64_t BaseSeed = 1) : BaseSeed(BaseSeed) {}

  /// Returns the cached latency for \p Key, or runs
  /// \p Simulate(noiseSeed) to produce, publish and return it. The
  /// noise seed always derives from (BaseSeed, Key.Check) — a pure
  /// function of the schedule on every path (slot winner, primary-
  /// collision fallback, cacheless), so values are order-invariant.
  /// If \p Simulate throws, the exception propagates and the key is
  /// left reclaimable (waiters retry; the key is never poisoned).
  double measureOrCompute(ScheduleKey Key,
                          const std::function<double(uint64_t)> &Simulate);

  /// Cached value lookup without computing (NaN-valued entries count).
  /// \returns true and fills \p OutUs when \p Key is published and the
  /// check hash matches (collisions report not-found, never another
  /// schedule's value).
  bool lookup(ScheduleKey Key, double &OutUs) const;

  /// \name Hit/miss accounting
  /// @{
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t collisions() const; ///< Primary-hash collisions observed.
  size_t size() const; ///< Published entries.
  double hitRate() const;
  /// Folds the hit/miss counters into \p PC (host-side counters).
  void accumulate(PerfCounters &PC) const;
  /// @}

  /// Canonical schedule key: per-statement content hashes (FNV-1a
  /// primary, independent polynomial check — see
  /// sass::Statement::contentHashes) combined with position mixes.
  /// Identical to ScheduleHash(Prog).key(), which maintains the same
  /// key in O(1) per swap.
  static ScheduleKey keyFor(const sass::Program &Prog);

  /// Primary hash alone (the cache index / noise-seed component).
  static uint64_t hashSchedule(const sass::Program &Prog);

  /// The order-invariant noise seed for \p Key under \p BaseSeed.
  static uint64_t deriveSeed(uint64_t BaseSeed, uint64_t Key);

private:
  struct Entry {
    double ValueUs = 0.0;
    uint64_t Check = 0;
    bool Ready = false;
    bool Failed = false; ///< Simulation threw; slot is reclaimable.
  };

  uint64_t BaseSeed;
  mutable std::mutex Mutex;
  std::condition_variable Published;
  std::unordered_map<uint64_t, Entry> Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Collisions = 0;
};

/// Incrementally-maintained schedule identity.
///
/// Caches each statement's content hashes once, and combines them with
/// per-position mixes into the MeasurementCache key:
///
///   Primary = seed(name) + Σ_i mixP(line1_i, i)
///   Check   = seed(name) + Σ_i mixC(line2_i, i)
///
/// Because the per-line hashes are position-independent and the
/// combination is a sum of independent position-mixed terms, swapping
/// adjacent statements updates the key in O(1): subtract the two old
/// terms, exchange the cached line hashes, add the two new terms. The
/// invariant `ScheduleHash(P).key() == incrementally-maintained key`
/// after any legal swap sequence is pinned by differential tests.
///
/// The Check component stays an independent hash (different per-line
/// scheme, different mixer), preserving the cache's collision guard and
/// the order-invariant noise-seed derivation (deriveSeed(Base, Check)
/// remains a pure function of the schedule).
class ScheduleHash {
public:
  ScheduleHash() = default;
  /// Full O(program) construction from scratch.
  explicit ScheduleHash(const sass::Program &Prog);

  /// Statements covered (== program size at construction).
  size_t size() const { return Lines1.size(); }

  /// Mirrors Program::swap(Upper, Upper+1) in O(1).
  void swap(size_t Upper);

  /// The current schedule key.
  MeasurementCache::ScheduleKey key() const { return {Primary, Check}; }

private:
  static uint64_t mixPrimary(uint64_t LineHash, uint64_t Pos);
  static uint64_t mixCheck(uint64_t LineHash, uint64_t Pos);

  std::vector<uint64_t> Lines1; ///< Per-statement FNV-1a content hash.
  std::vector<uint64_t> Lines2; ///< Per-statement polynomial hash.
  uint64_t Primary = 0;
  uint64_t Check = 0;
};

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_MEASUREMENT_H
