//===- rl/RolloutRunner.h - Parallel trajectory collection -------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-environment rollout engine: owns a pool of environments
/// (for the assembly game, one AssemblyGame per slot via an owning
/// adapter) plus a worker thread pool, and collects one fixed-length
/// trajectory per environment per PPO iteration. Collection is
/// embarrassingly parallel across slots — the policy network is frozen
/// and only read during a collect() call, and each slot steps its own
/// environment with its own action-sampling Rng stream.
///
/// The pool may mix environments of different kernels and shapes
/// (the generalist policy): every env must share the net's feature
/// width, while row counts vary freely (the net derives them per
/// observation) and smaller action spaces are zero-padded up to the
/// net's action count (padMaskToNet), so padded actions are never
/// sampled.
///
/// Thread-safety / determinism contract:
///  - collect() must be called from one driver thread at a time.
///  - Environments are never shared between slots; each env must be
///    safe to step from whichever worker thread picks its slot up
///    (AssemblyGame needs GameConfig::PrivateDevice for this).
///  - ActorCritic::forward is const and touches only immutable weight
///    tensors, so concurrent forwards are safe as long as nobody
///    updates the weights mid-collect (PpoTrainer never does).
///  - Slot i's Rng stream is derived from (Seed, i) only, so the
///    trajectory a slot produces is identical whatever the worker
///    count and whatever other slots exist — this is what makes
///    1-worker and N-worker runs (and slot 0 of 1-env and N-env runs)
///    bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_ROLLOUTRUNNER_H
#define CUASMRL_RL_ROLLOUTRUNNER_H

#include "rl/ActorCritic.h"
#include "rl/Env.h"
#include "support/Cancellation.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <memory>

namespace cuasmrl {
namespace rl {

/// One environment transition as stored in a trajectory.
struct Transition {
  std::vector<float> Obs;
  std::vector<uint8_t> Mask;
  unsigned Action = 0;
  float LogProb = 0.0f;
  float Value = 0.0f;
  float Reward = 0.0f;
  bool Done = false;
};

/// One env slot's fixed-length rollout segment. Batches are
/// slot-ordered: TrajectoryBatch::Trajectories[i] is env slot i's.
struct Trajectory {
  std::vector<Transition> Steps;
  /// Post-rollout observation/mask for the GAE bootstrap value.
  std::vector<float> BootstrapObs;
  std::vector<uint8_t> BootstrapMask;
  /// Episodic returns completed during this segment, in completion
  /// order (episodes may span segment boundaries).
  std::vector<double> CompletedReturns;

  double rewardSum() const {
    double Sum = 0;
    for (const Transition &T : Steps)
      Sum += T.Reward;
    return Sum;
  }
};

/// One PPO iteration's worth of trajectories, slot-ordered.
struct TrajectoryBatch {
  std::vector<Trajectory> Trajectories;

  size_t totalSteps() const {
    size_t N = 0;
    for (const Trajectory &T : Trajectories)
      N += T.Steps.size();
    return N;
  }
};

/// Rollout engine configuration.
struct RolloutConfig {
  /// Worker threads stepping env slots; 1 = inline (no pool). Results
  /// are identical for any value — workers only change wall-clock.
  unsigned Workers = 1;
  /// Master seed; slot i samples actions from a stream derived from
  /// (Seed, i), independent of every other slot.
  uint64_t Seed = 1;
  /// Cooperative cancellation (not owned; may be null). Checked once
  /// per rollout slot; a tripped token unwinds collect() with
  /// CancelledError — parallelFor rethrows it on the driver thread,
  /// and sibling slots each trip their own checkpoint, so the pool
  /// drains promptly.
  const support::CancelToken *Cancel = nullptr;
};

/// Parallel trajectory collector over a fixed env pool.
class RolloutRunner {
public:
  /// Non-owning env pool (envs must outlive the runner).
  RolloutRunner(std::vector<Env *> Envs, RolloutConfig Config);
  /// Owning env pool (the runner keeps the envs alive).
  RolloutRunner(std::vector<std::unique_ptr<Env>> Envs,
                RolloutConfig Config);

  size_t numEnvs() const { return Envs.size(); }
  Env &env(size_t I) { return *Envs[I]; }
  const RolloutConfig &config() const { return Config; }

  /// Normalizes an env's action mask for a net with \p NetActions
  /// outputs (the mixed-kernel pool contract): an all-zero mask first
  /// becomes all-ones over the env's own actions (the uniform
  /// fallback), then the mask is zero-padded up to NetActions — padded
  /// entries stay masked in every case, so an action beyond the env's
  /// action space can never be sampled. A mask already NetActions wide
  /// passes through bit-identically to the historical behavior.
  static void padMaskToNet(std::vector<uint8_t> &Mask, size_t NetActions);

  /// Collects one \p Steps-long trajectory per env slot under the
  /// frozen policy \p Net. Slot state (current observation, running
  /// return) persists across calls so episodes span iterations.
  TrajectoryBatch collect(const ActorCritic &Net, unsigned Steps);

private:
  void collectSlot(const ActorCritic &Net, unsigned Steps, size_t Slot,
                   Trajectory &Out);

  std::vector<std::unique_ptr<Env>> Owned;
  std::vector<Env *> Envs;
  RolloutConfig Config;
  std::vector<Rng> SlotRngs;                  ///< Per-slot action sampling.
  std::vector<std::vector<float>> CurrentObs; ///< Per-slot episode state.
  std::vector<double> RunningReturn;
  std::unique_ptr<support::ThreadPool> Pool;  ///< Null when Workers <= 1.
};

} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_ROLLOUTRUNNER_H
