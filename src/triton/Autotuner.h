//===- triton/Autotuner.h - Kernel-configuration grid search (§3.1) ----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first level of the hierarchical search: "the autotuner employs a
/// grid search-like strategy, which enumerates user-provided kernel
/// configurations, compiles with the kernel configurations, measures the
/// execution throughput on the target GPU, and greedily selects as well
/// as caches the optimal set of kernel configurations" (§3.1).
///
/// The sweep engine is parallel *and* deterministic: every fitting
/// candidate is built and measured on a private copy of the device with
/// an Rng stream derived purely from (BaseSeed, request key, candidate
/// index), so the sweep result — winner, per-candidate timings, cached
/// AutotuneResult — is bit-identical for any worker count, including 1.
///
/// Thread-safety contract: every public member may be called
/// concurrently from any number of threads. tune()/sweepAll() give a
/// single-sweep-per-key guarantee mirroring gpusim::MeasurementCache:
/// when several threads miss on the same (kind, shape) simultaneously,
/// exactly one runs the sweep while the others block until its result
/// is published. The sweep itself runs outside the cache lock, so
/// distinct keys sweep in parallel. Pointers returned by cached() stay
/// valid for the Autotuner's lifetime and the pointed-to result is
/// immutable once published.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_TRITON_AUTOTUNER_H
#define CUASMRL_TRITON_AUTOTUNER_H

#include "gpusim/Measurement.h"
#include "kernels/Builder.h"
#include "support/Cancellation.h"

#include <condition_variable>
#include <map>
#include <mutex>

namespace cuasmrl {
namespace triton {

/// One measured configuration.
struct TunedConfig {
  kernels::TileConfig Config;
  double MeanUs = 0.0;
  bool Valid = false;
};

/// Result of one autotuning sweep.
struct AutotuneResult {
  kernels::TileConfig Best;
  double BestUs = 0.0;
  /// True when at least one candidate fit the shape and measured Valid.
  /// When false, Best/BestUs are meaningless (default config and the
  /// 1e30 sentinel) and callers must not deploy the winner.
  bool Valid = false;
  std::vector<TunedConfig> Sweep; ///< Every fitting configuration measured.
};

/// One workload to tune in a batch sweep.
struct SweepRequest {
  kernels::WorkloadKind Kind;
  kernels::WorkloadShape Shape;
};

/// Sweep-engine knobs.
struct AutotuneOptions {
  /// Measurement protocol per candidate.
  gpusim::MeasureConfig Measure;
  /// Worker threads building/measuring candidates; 1 = serial in the
  /// calling thread, 0 = hardware concurrency. Results are bit-identical
  /// for every value — this is a wall-clock knob only.
  unsigned Workers = 1;
  /// Root of every per-candidate data/noise stream. Two sweeps with the
  /// same BaseSeed produce bit-identical results.
  uint64_t BaseSeed = 7;
  /// Cooperative cancellation (not owned; may be null). Checked once
  /// per candidate — a tripped token unwinds the sweep with
  /// CancelledError, and the single-flight cache reclaims the claimed
  /// keys (never poisons them) exactly as for any other sweep failure.
  const support::CancelToken *Cancel = nullptr;
};

/// Grid-search autotuner with a per-(workload, shape) result cache.
class Autotuner {
public:
  explicit Autotuner(AutotuneOptions Options);
  explicit Autotuner(gpusim::MeasureConfig Measure = defaultMeasure());

  /// Enumerates candidateConfigs(Kind), measures each fitting one on a
  /// private copy of \p Device and returns (and caches) the fastest.
  /// Deterministic for any Options.Workers; blocks if another thread is
  /// already sweeping the same key, then returns its published result.
  AutotuneResult tune(const gpusim::Gpu &Device, kernels::WorkloadKind Kind,
                      const kernels::WorkloadShape &Shape);

  /// Tunes a batch of workloads in one fan-out: every (request,
  /// candidate) pair its caller owns is measured concurrently across
  /// the worker pool (no per-request barrier). Results are returned in
  /// request order; duplicate (kind, shape) requests are swept once.
  std::vector<AutotuneResult>
  sweepAll(const gpusim::Gpu &Device,
           const std::vector<SweepRequest> &Requests);

  /// Cached result, if this (kind, shape) was tuned before. Returns
  /// null for in-flight sweeps; the pointer stays valid (and its target
  /// immutable) for the Autotuner's lifetime.
  const AutotuneResult *cached(kernels::WorkloadKind Kind,
                               const kernels::WorkloadShape &Shape) const;

  /// Number of grid sweeps actually executed (cache hits and duplicate
  /// requests excluded) — observability for the single-sweep guarantee.
  uint64_t sweepsPerformed() const;

  /// Canonical cache key for one (kind, shape) request; also the
  /// per-request component of the candidate seed derivation.
  static std::string requestKey(kernels::WorkloadKind Kind,
                                const kernels::WorkloadShape &Shape);

  /// The paper's measurement protocol scaled to the simulator: the real
  /// system averages 100 repetitions after 100 warm-ups.
  static gpusim::MeasureConfig defaultMeasure() {
    gpusim::MeasureConfig M;
    M.WarmupIters = 2;
    M.RepeatIters = 3;
    return M;
  }

private:
  struct Slot {
    AutotuneResult Result;
    bool Ready = false;
  };

  /// Measures one candidate on a private device copy. Pure function of
  /// (Device, Kind, Shape, Config, Seed) — safe to run concurrently.
  TunedConfig measureCandidate(const gpusim::Gpu &Device,
                               kernels::WorkloadKind Kind,
                               const kernels::WorkloadShape &Shape,
                               const kernels::TileConfig &Config,
                               uint64_t Seed) const;

  AutotuneOptions Options;
  mutable std::mutex Mutex;
  std::condition_variable Published;
  /// Claimed (in-flight) and published sweeps. Entries are only erased
  /// when a sweep fails with an exception (the key becomes reclaimable,
  /// mirroring MeasurementCache), so published results never move.
  std::map<std::string, Slot> Cache;
  uint64_t Sweeps = 0;
};

} // namespace triton
} // namespace cuasmrl

#endif // CUASMRL_TRITON_AUTOTUNER_H
