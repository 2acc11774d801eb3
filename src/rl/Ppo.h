//===- rl/Ppo.h - Proximal Policy Optimization (paper §3.7) -------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference PPO implementation CuAsmRL ships (§3.7): actor-critic
/// with GAE, clipped surrogate objective, entropy bonus, minibatched
/// multi-epoch updates, invalid-action masking, approximate-KL and
/// policy-entropy tracking (Figure 12) and periodic checkpointing. The
/// default hyperparameters are the empirically good set from the
/// large-scale study the paper cites [11] and are shared across every
/// kernel ("fine-tuning RL's hyperparameters towards a specific case is
/// very computationally expensive").
///
/// Rollout collection is delegated to a RolloutRunner: the train loop
/// consumes whole trajectory batches (one fixed-length trajectory per
/// env slot) instead of stepping a single env inline, so collection
/// parallelism is an engine property, not an algorithm property.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_PPO_H
#define CUASMRL_RL_PPO_H

#include "rl/ActorCritic.h"
#include "rl/Adam.h"
#include "rl/Env.h"
#include "rl/RolloutRunner.h"
#include "support/Rng.h"

#include <memory>
#include <string>

namespace cuasmrl {
namespace rl {

/// Hyperparameters (defaults follow Huang et al. [11]).
struct PpoConfig {
  double Lr = 2.5e-4;
  double Gamma = 0.99;
  double GaeLambda = 0.95;
  double ClipCoef = 0.2;
  double EntCoef = 0.01;
  double VfCoef = 0.5;
  double MaxGradNorm = 0.5;
  unsigned RolloutLen = 64; ///< Steps per env per update.
  unsigned MiniBatches = 4;
  unsigned Epochs = 4;
  unsigned TotalSteps = 4096; ///< Env steps across the whole run.
  bool NormAdvantage = true;
  bool ClipVLoss = true;
  bool AnnealLr = true;
  uint64_t Seed = 1;
  size_t Channels = 16; ///< Network width knobs.
  size_t Hidden = 64;
};

/// Statistics from one update round (the Figure 8/12 series).
struct UpdateStats {
  unsigned StepsDone = 0;
  double MeanEpisodicReturn = 0.0; ///< Over episodes finished so far.
  double PolicyLoss = 0.0;
  double ValueLoss = 0.0;
  double Entropy = 0.0;
  double ApproxKl = 0.0;
  double ClipFraction = 0.0;
};

/// PPO driver over a rollout engine.
///
/// Thread-safety: a PpoTrainer is driven by one thread; internal
/// rollout parallelism (the runner's worker pool) never escapes a
/// collect call. The network weights are only mutated inside
/// updateFromBatch(), between collect calls.
class PpoTrainer {
public:
  /// Convenience constructor: wraps \p Envs (non-owning, must outlive
  /// the trainer) in an internal RolloutRunner that steps them inline,
  /// with per-slot Rng streams seeded from Config.Seed. For threaded
  /// collection, build a RolloutRunner and use the constructor below.
  PpoTrainer(std::vector<Env *> Envs, PpoConfig Config);

  /// Trains over an external rollout engine (e.g. one owning
  /// AssemblyGame envs with a shared MeasurementCache). \p Runner must
  /// outlive the trainer.
  PpoTrainer(RolloutRunner &Runner, PpoConfig Config);

  /// One rollout + optimization phase.
  UpdateStats update();

  /// The optimization phase alone: GAE over \p Batch, then the
  /// clipped-surrogate minibatch epochs. GAE is per-trajectory (a
  /// trajectory's advantages are identical however many siblings and
  /// workers collected alongside it), and the whole update is
  /// worker-count invariant for a fixed env count. The minibatch
  /// shuffle and advantage normalization DO depend on the batch's
  /// total size, so different env counts legitimately train
  /// differently.
  UpdateStats updateFromBatch(const TrajectoryBatch &Batch);

  /// Runs update() until TotalSteps; returns the per-update series.
  std::vector<UpdateStats> train();

  /// Curriculum phase: collects and trains over \p R (instead of the
  /// trainer's own runner) for \p Steps env steps, continuing the
  /// trainer's global step count (so LR annealing spans phases). \p R
  /// must fit this net: same feature width, row and action counts no
  /// larger than the net's (core::Optimizer::optimizeMany constructs
  /// the net from the full workload pool before phasing).
  std::vector<UpdateStats> trainOn(RolloutRunner &R, unsigned Steps);

  /// Warm start: overwrite every geometry-compatible tensor from a
  /// serialized checkpoint (ActorCritic::loadCompatible) before
  /// training. \returns the number of tensors transferred (0 =
  /// malformed blob, net untouched). Call before the first update;
  /// the Adam state is unaffected (it references the live tensors).
  size_t warmStartFrom(std::istream &IS);
  size_t warmStartFrom(const std::string &Blob);

  /// Arms cooperative cancellation (not owned; null disarms): the
  /// trainer checkpoints before every update and once per optimization
  /// epoch, and playGreedy() checkpoints per step. A tripped token
  /// unwinds with support::CancelledError. Rollout-internal
  /// checkpoints come from RolloutConfig::Cancel — set it on the
  /// runner too (core::Optimizer does) for per-slot granularity
  /// inside a collect. Call before train() from the driving thread.
  void setCancel(const support::CancelToken *Token) { Cancel = Token; }

  ActorCritic &net() { return Net; }
  const ActorCritic &net() const { return Net; }
  RolloutRunner &runner() { return *Runner; }

  /// Episodic returns, slot-major per update (all of slot 0's
  /// completions, then slot 1's, ...; completion order within a slot).
  /// This is the deterministic ordering the worker-invariance contract
  /// requires — the Figure 8 series.
  const std::vector<double> &episodicReturns() const {
    return EpisodeReturns;
  }

  /// Deterministic greedy rollout ("inference mode", §5.7): plays one
  /// episode on \p E with argmax actions; returns the actions taken.
  std::vector<unsigned> playGreedy(Env &E, unsigned MaxSteps);

private:
  std::unique_ptr<RolloutRunner> OwnedRunner; ///< Env-pointer ctor only.
  RolloutRunner *Runner;
  PpoConfig Config;
  Rng SampleRng; ///< Net init + minibatch shuffling (not action sampling).
  ActorCritic Net;
  Adam Optimizer;

  std::vector<double> EpisodeReturns;
  unsigned StepsDone = 0;
  const support::CancelToken *Cancel = nullptr; ///< Not owned.
};

} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_PPO_H
