//===- core/Optimizer.h - The CuAsmRL optimizer facade (Figure 2) ------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end hierarchical workflow of Figure 2: the autotuner finds
/// the optimal kernel configuration, the compilation pipeline emits a
/// cubin, the cubin is intercepted and disassembled, the RL agent plays
/// the assembly game over the SASS schedule, and the best schedule found
/// is probabilistically tested and substituted back into the binary.
/// `@cuasmrl.jit`'s one-line integration maps to a single optimize()
/// call here.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_CORE_OPTIMIZER_H
#define CUASMRL_CORE_OPTIMIZER_H

#include "env/AssemblyGame.h"
#include "rl/Ppo.h"
#include "triton/Autotuner.h"
#include "triton/DeployCache.h"
#include "triton/Pipeline.h"

namespace cuasmrl {
namespace core {

/// Knobs for one optimization run. Users "may add more arguments to
/// specify the hyperparameters of the RL agents" (§4.1).
///
/// When adding a result-relevant field (anything that changes what
/// optimize() produces, as opposed to how fast), also add it to
/// visitResultFields() below — the serving layer keys deployed cubins
/// by a digest of that list, and an omitted field would alias
/// distinct deployments to one key.
struct OptimizeConfig {
  rl::PpoConfig Ppo;
  env::GameConfig Game;
  /// Parallel game instances feeding PPO (vectorized envs). All games
  /// of one run share a MeasurementCache, so sibling episodes never
  /// re-simulate an already-measured schedule.
  unsigned NumEnvs = 1;
  /// Worker threads collecting rollouts; 0 = min(NumEnvs, hardware
  /// concurrency). Training statistics are identical for every value
  /// (per-env Rng streams + order-invariant cache seeding) — this is a
  /// wall-clock knob only.
  unsigned RolloutWorkers = 0;
  /// Probabilistic-testing rounds on the final schedule (§4.1).
  unsigned ProbTestRounds = 3;
  /// Measurement protocol for the autotuner.
  gpusim::MeasureConfig AutotuneMeasure;
  /// Worker threads for the autotune sweep (level 1); 1 = serial,
  /// 0 = hardware concurrency. Sweep results are bit-identical for
  /// every value — a wall-clock knob only.
  unsigned AutotuneWorkers = 1;
  /// Base seed of the sweep's per-candidate data/noise streams.
  uint64_t AutotuneSeed = 7;
  /// Condition the observation embedding on the workload identity
  /// (kernel-kind one-hot, log-scaled shape dims, GPU type) — the
  /// generalist-policy observation format. Result-relevant: the agent
  /// trains on different observations. optimizeMany() always
  /// conditions (a shared policy needs the workload identity in the
  /// observation) regardless of this flag.
  bool ConditionEmbedding = false;
};

/// Enumerates every result-relevant OptimizeConfig field, in one fixed
/// order, as a typed reference: the stall table
/// (analysis::StallTable), doubles, unsigneds, bools and 64-bit
/// unsigneds (uint64_t, size_t). The serving layer's config digest
/// (serve::OptimizationService::requestKey) and the wire's config
/// block (net/Wire.cpp) both walk this list, so a field added here
/// keys deployments and crosses the wire without touching either.
/// Excluded on purpose: the wall-clock knobs (RolloutWorkers,
/// AutotuneWorkers) — the determinism contract makes them irrelevant
/// to the result — and the runtime wiring the optimizer derives per
/// run (GameConfig's SharedCache, PrivateDevice and Context; the
/// context comes from the request's own kind, shape and GPU type,
/// which already key a deployment). Adding a field changes every
/// request key and the wire's config block, so it is a protocol
/// change.
template <typename Config, typename Fn>
void visitResultFields(Config &C, Fn &&F) {
  // The stall table shapes the action mask, hence the result.
  F(C.Game.Table);
  F(C.Ppo.Lr);
  F(C.Ppo.Gamma);
  F(C.Ppo.GaeLambda);
  F(C.Ppo.ClipCoef);
  F(C.Ppo.EntCoef);
  F(C.Ppo.VfCoef);
  F(C.Ppo.MaxGradNorm);
  F(C.Ppo.RolloutLen);
  F(C.Ppo.MiniBatches);
  F(C.Ppo.Epochs);
  F(C.Ppo.TotalSteps);
  F(C.Ppo.NormAdvantage);
  F(C.Ppo.ClipVLoss);
  F(C.Ppo.AnnealLr);
  F(C.Ppo.Seed);
  F(C.Ppo.Channels);
  F(C.Ppo.Hidden);
  F(C.Game.EpisodeLength);
  auto Measure = [&F](auto &M) {
    F(M.WarmupIters);
    F(M.RepeatIters);
    F(M.ClearL2BetweenReps);
    F(M.NoiseStddev);
    F(M.MaxBlocks);
    F(M.Seed);
  };
  Measure(C.Game.Measure);
  F(C.Game.UseActionMasking);
  F(C.Game.InvalidPenalty);
  F(C.Game.CacheMeasurements);
  F(C.Game.RecordTrace);
  F(C.NumEnvs);
  F(C.ProbTestRounds);
  Measure(C.AutotuneMeasure);
  F(C.AutotuneSeed);
  F(C.ConditionEmbedding);
}

/// Everything one run produces.
struct OptimizeResult {
  /// False when the level-1 sweep produced no valid configuration (no
  /// candidate fits the shape, or every measurement faulted); the run
  /// stops before compilation and every other field is default.
  bool AutotuneValid = true;
  kernels::TileConfig BestConfig; ///< Autotuner winner (§3.1).
  double TritonUs = 0.0;          ///< -O3 schedule at the best config.
  double OptimizedUs = 0.0;       ///< Best schedule the agent found.
  sass::Program OptimizedProg;
  triton::CompiledKernel Kernel;  ///< Binary with the substituted text.
  std::vector<rl::UpdateStats> Training; ///< Figure 8/12 series.
  std::vector<double> EpisodeReturns;
  std::vector<env::AppliedAction> Trace; ///< Greedy replay (§5.7).
  bool Verified = false;                 ///< Probabilistic test passed.
  /// Measurement cost (§7): the kernel executions the §3.6 protocol
  /// prescribes for every game measurement.
  unsigned KernelExecutions = 0;
  /// The timed runs those measurements actually simulated, which stop
  /// at the memory fixed point (gpusim::measureKernel).
  unsigned SimulatedRuns = 0;
  /// Rollout-wide counter aggregate: shared measurement-cache
  /// accounting (MeasureCacheHits/Misses) plus the per-stage simulator
  /// counters summed over every game's own measurements (select /
  /// fetch / execute / writeback families, selectHitRate()).
  gpusim::PerfCounters RolloutCounters;
  /// The trained policy, serialized (rl::ActorCritic::save) — the
  /// warm-start source for later near-shape runs (serve::PolicyStore).
  std::string PolicyBlob;
  /// Tensors transferred from the warm-start checkpoint this run was
  /// given (rl::ActorCritic::loadCompatible); 0 = cold start.
  size_t WarmStartTensors = 0;

  double speedup() const {
    return OptimizedUs > 0 ? TritonUs / OptimizedUs : 1.0;
  }
};

/// Persistence accounting for a deploy-cache-backed run: how many
/// winners were attempted, stored, and silently-droppable-no-more
/// failed (unwritable directory, I/O errors). Callers that hand a
/// DeployCache to autotuneAll() should surface Failures instead of
/// assuming every winner landed.
struct DeployStats {
  unsigned Attempted = 0;
  unsigned Stored = 0;
  unsigned Failures = 0;
};

/// One workload in an optimizeMany() batch.
struct WorkloadRequest {
  kernels::WorkloadKind Kind = kernels::WorkloadKind::Softmax;
  kernels::WorkloadShape Shape;
};

/// What a shared cross-kernel run produces: per-request results (in
/// request order — each carries the shared PolicyBlob and its own
/// schedule, verification and accounting) plus the joint training
/// series.
struct MultiOptimizeResult {
  std::vector<OptimizeResult> Results;
  /// Joint PPO series over every curriculum phase, concatenated in
  /// phase order (per-request Training stays empty — the policy is
  /// shared, so there is no per-workload series to report).
  std::vector<rl::UpdateStats> Training;
  std::vector<double> EpisodeReturns;
  /// The generalist policy (identical to every result's PolicyBlob).
  std::string PolicyBlob;
  /// Curriculum order: request indices sorted by compiled program size
  /// ascending (phase p trains on the first p+1 entries' env pools).
  std::vector<size_t> Curriculum;
  /// Tensors transferred from the warm-start checkpoint; 0 = cold.
  size_t WarmStartTensors = 0;
};

/// The optimizer.
///
/// Thread-safety: an Optimizer is immutable after construction — every
/// entry point is const and builds its own transient state — so one
/// instance may be shared by any number of threads as long as each
/// call owns its \p Device and \p DataRng (the optimization service
/// hands every worker a private Gpu copy and a per-job Rng stream).
class Optimizer {
public:
  /// \throws std::invalid_argument naming the field when
  /// Game.Measure.RepeatIters is 0: every reward would average zero
  /// repetitions (the wire decoder refuses the same config).
  explicit Optimizer(OptimizeConfig Config = OptimizeConfig());

  /// Runs the full hierarchical optimization for one workload. When
  /// \p Cancel is non-null, the run polls it at cooperative
  /// checkpoints — per autotune candidate, per rollout slot, per PPO
  /// epoch, between stages — and a tripped token unwinds with
  /// support::CancelledError (partial results are discarded).
  ///
  /// \p WarmStartPolicy, when non-null and non-empty, is a serialized
  /// policy (OptimizeResult::PolicyBlob) to initialize training from;
  /// every geometry-compatible tensor transfers, the rest keep their
  /// fresh init (see OptimizeResult::WarmStartTensors). \p GpuType
  /// only labels the conditioning block when
  /// OptimizeConfig::ConditionEmbedding is set.
  OptimizeResult optimize(gpusim::Gpu &Device, kernels::WorkloadKind Kind,
                          const kernels::WorkloadShape &Shape,
                          Rng &DataRng,
                          const support::CancelToken *Cancel = nullptr,
                          const std::string *WarmStartPolicy = nullptr,
                          const std::string &GpuType = "A100-SIM") const;

  /// Shared cross-kernel training (the generalist policy): autotunes
  /// and compiles every request, then trains ONE conditioned policy
  /// over the union of their env pools with a size curriculum — phases
  /// ordered by compiled program size ascending, phase p training on
  /// the cumulative pool of the p+1 smallest workloads, with the PPO
  /// step budget (Ppo.TotalSteps) split evenly across phases and LR
  /// annealing spanning the whole run. Every game embeds with the
  /// conditioned observation format (workload one-hot + log-scaled
  /// shape + \p GpuType) padded to the pool-wide operand-slot maximum,
  /// so one net serves all. Greedy replay, best-schedule selection and
  /// probabilistic testing then run per workload exactly as in
  /// optimize(). Requests whose autotune sweep is invalid are excluded
  /// from training and returned with AutotuneValid = false.
  ///
  /// optimize() is this routine over one request, conditioned only
  /// when ConditionEmbedding is set: with it set, optimize() and a
  /// one-request optimizeMany() train the same policy. Determinism
  /// matches optimize(): results are bit-identical for any
  /// RolloutWorkers value.
  MultiOptimizeResult
  optimizeMany(gpusim::Gpu &Device,
               const std::vector<WorkloadRequest> &Requests, Rng &DataRng,
               const support::CancelToken *Cancel = nullptr,
               const std::string *WarmStartPolicy = nullptr,
               const std::string &GpuType = "A100-SIM") const;

  /// Level-1-only batch API: tunes every request in one parallel,
  /// deterministic sweep (Config.AutotuneWorkers / AutotuneSeed) and,
  /// when \p Deploy is non-null, compiles each valid winner and
  /// persists its cubin under
  /// makeKey(GpuType, workloadName, Autotuner::requestKey + config).
  /// Results are returned in request order; invalid sweeps (see
  /// AutotuneResult::Valid) are returned but never persisted. Store
  /// failures are logged, counted in \p Stats (when non-null), and
  /// never abort the remaining requests.
  std::vector<triton::AutotuneResult>
  autotuneAll(const gpusim::Gpu &Device,
              const std::vector<triton::SweepRequest> &Requests,
              triton::DeployCache *Deploy = nullptr,
              const std::string &GpuType = "A100-SIM",
              DeployStats *Stats = nullptr) const;

  const OptimizeConfig &config() const { return Config; }

private:
  triton::AutotuneOptions autotuneOptions() const;

  /// The one build -> tune -> compile -> train -> finish routine
  /// behind optimize() and optimizeMany(). \p Conditioned gives every
  /// game the conditioned observation format.
  MultiOptimizeResult runWorkflow(gpusim::Gpu &Device,
                                  const std::vector<WorkloadRequest> &Requests,
                                  bool Conditioned, Rng &DataRng,
                                  const support::CancelToken *Cancel,
                                  const std::string *WarmStartPolicy,
                                  const std::string &GpuType) const;

  OptimizeConfig Config;
};

} // namespace core
} // namespace cuasmrl

#endif // CUASMRL_CORE_OPTIMIZER_H
