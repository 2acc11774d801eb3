//===- rl/RolloutRunner.cpp --------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/RolloutRunner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace cuasmrl;
using namespace cuasmrl::rl;

namespace {

/// Samples from the masked softmax and records the sample's log-prob.
unsigned sampleCategorical(const std::vector<float> &Logits, Rng &R,
                           float &LogProbOut) {
  float Max = *std::max_element(Logits.begin(), Logits.end());
  std::vector<double> Probs(Logits.size());
  double Z = 0.0;
  for (size_t I = 0; I < Logits.size(); ++I) {
    Probs[I] = std::exp(static_cast<double>(Logits[I]) - Max);
    Z += Probs[I];
  }
  for (double &P : Probs)
    P /= Z;
  unsigned Action = static_cast<unsigned>(R.categorical(Probs));
  LogProbOut =
      static_cast<float>(Logits[Action] - Max - std::log(Z));
  return Action;
}

} // namespace

RolloutRunner::RolloutRunner(std::vector<Env *> E, RolloutConfig C)
    : Envs(std::move(E)), Config(C) {
  assert(!Envs.empty() && "need at least one environment");
  SlotRngs.reserve(Envs.size());
  CurrentObs.resize(Envs.size());
  RunningReturn.assign(Envs.size(), 0.0);
  for (size_t I = 0; I < Envs.size(); ++I) {
    // Slot streams must be well-separated functions of (Seed, I) alone.
    SlotRngs.emplace_back(mixSeed(Config.Seed, I));
    CurrentObs[I] = Envs[I]->reset();
  }
  if (Config.Workers > 1)
    Pool = std::make_unique<support::ThreadPool>(Config.Workers);
}

RolloutRunner::RolloutRunner(std::vector<std::unique_ptr<Env>> E,
                             RolloutConfig C)
    : RolloutRunner(
          [&E] {
            std::vector<Env *> Raw;
            Raw.reserve(E.size());
            for (const std::unique_ptr<Env> &P : E)
              Raw.push_back(P.get());
            return Raw;
          }(),
          C) {
  Owned = std::move(E);
}

void RolloutRunner::padMaskToNet(std::vector<uint8_t> &Mask,
                                 size_t NetActions) {
  assert(Mask.size() <= NetActions && "env action space exceeds the net");
  bool AnyLegal = std::any_of(Mask.begin(), Mask.end(),
                              [](uint8_t M) { return M != 0; });
  // All-masked fallback: uniform over the env's REAL actions only —
  // the padding below stays zero, so the sample can't leave the env's
  // action space even in the fallback.
  if (!AnyLegal)
    Mask.assign(Mask.size(), 1);
  Mask.resize(NetActions, 0);
}

void RolloutRunner::collectSlot(const ActorCritic &Net, unsigned Steps,
                                size_t Slot, Trajectory &Out) {
  // Per-slot cancellation checkpoint (the serving layer's deadline
  // granularity inside a rollout).
  if (Config.Cancel)
    Config.Cancel->checkpoint();
  Env &E = *Envs[Slot];
  Out.Steps.resize(Steps);

  for (unsigned Step = 0; Step < Steps; ++Step) {
    Transition &T = Out.Steps[Step];
    T.Obs = CurrentObs[Slot];
    T.Mask = E.actionMask();
    padMaskToNet(T.Mask, Net.config().Actions);

    ActorCritic::Output Fwd = Net.forward({{T.Obs, T.Mask}});
    T.Action =
        sampleCategorical(Fwd.MaskedLogits.data(), SlotRngs[Slot], T.LogProb);
    T.Value = Fwd.Value.item();

    EnvStep Res = E.step(T.Action);
    T.Reward = static_cast<float>(Res.Reward);
    T.Done = Res.Done;
    RunningReturn[Slot] += Res.Reward;
    if (Res.Done) {
      Out.CompletedReturns.push_back(RunningReturn[Slot]);
      RunningReturn[Slot] = 0.0;
      CurrentObs[Slot] = E.reset();
    } else {
      CurrentObs[Slot] = std::move(Res.Obs);
    }
  }

  Out.BootstrapObs = CurrentObs[Slot];
  Out.BootstrapMask = E.actionMask();
  padMaskToNet(Out.BootstrapMask, Net.config().Actions);
}

TrajectoryBatch RolloutRunner::collect(const ActorCritic &Net,
                                       unsigned Steps) {
  TrajectoryBatch Batch;
  Batch.Trajectories.resize(Envs.size());
  if (Pool) {
    Pool->parallelFor(Envs.size(), [&](size_t Slot) {
      collectSlot(Net, Steps, Slot, Batch.Trajectories[Slot]);
    });
  } else {
    for (size_t Slot = 0; Slot < Envs.size(); ++Slot)
      collectSlot(Net, Steps, Slot, Batch.Trajectories[Slot]);
  }
  return Batch;
}
