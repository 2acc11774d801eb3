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
/// as caches the optimal set of kernel configurations" (§3.1). Here the
/// sweep itself is stateless; winners are cached where later requests
/// look them up, in the deploy cache (triton::DeployCache).
///
/// The sweep engine is parallel *and* deterministic: every fitting
/// candidate is built and measured on a private copy of the device with
/// an Rng stream derived purely from (BaseSeed, request key, candidate
/// index), so the sweep result — winner and per-candidate timings — is
/// bit-identical for any worker count, including 1.
///
/// Thread-safety: an Autotuner is immutable after construction, so any
/// number of threads may call tune()/sweepAll() on one instance; each
/// call sweeps on its own device copies.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_TRITON_AUTOTUNER_H
#define CUASMRL_TRITON_AUTOTUNER_H

#include "gpusim/Measurement.h"
#include "kernels/Builder.h"
#include "support/Cancellation.h"

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
  /// CancelledError.
  const support::CancelToken *Cancel = nullptr;
};

/// Grid-search autotuner.
class Autotuner {
public:
  explicit Autotuner(AutotuneOptions Options = AutotuneOptions());

  /// Enumerates candidateConfigs(Kind), measures each fitting one on a
  /// private copy of \p Device and returns the fastest. Deterministic
  /// for any Options.Workers.
  AutotuneResult tune(const gpusim::Gpu &Device, kernels::WorkloadKind Kind,
                      const kernels::WorkloadShape &Shape) const;

  /// Tunes a batch of workloads in one fan-out: every (request,
  /// candidate) pair is measured concurrently across the worker pool
  /// (no per-request barrier). Results are returned in request order,
  /// each identical to tune() on that request alone.
  std::vector<AutotuneResult>
  sweepAll(const gpusim::Gpu &Device,
           const std::vector<SweepRequest> &Requests) const;

  /// Canonical key for one (kind, shape) request; also the per-request
  /// component of the candidate seed derivation.
  static std::string requestKey(kernels::WorkloadKind Kind,
                                const kernels::WorkloadShape &Shape);

private:
  /// Measures one candidate on a private device copy. Pure function of
  /// (Device, Kind, Shape, Config, Seed) — safe to run concurrently.
  TunedConfig measureCandidate(const gpusim::Gpu &Device,
                               kernels::WorkloadKind Kind,
                               const kernels::WorkloadShape &Shape,
                               const kernels::TileConfig &Config,
                               uint64_t Seed) const;

  AutotuneOptions Options;
};

} // namespace triton
} // namespace cuasmrl

#endif // CUASMRL_TRITON_AUTOTUNER_H
