//===- rl/Ppo.cpp ----------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/Ppo.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

using namespace cuasmrl;
using namespace cuasmrl::rl;

Env::~Env() = default;

namespace {

/// A constant (gradient-free) 1-D tensor.
Tensor constant(const std::vector<float> &Values) {
  return Tensor::fromVector(Values, {Values.size()});
}

NetConfig netConfigFor(RolloutRunner &Runner, const PpoConfig &Config) {
  // Geometry over the WHOLE pool, not env 0: a mixed-kernel pool needs
  // the max row count and max action count (smaller envs pad their
  // masks; the forward pass derives rows per observation). The feature
  // width is the one dimension that must agree — it is baked into the
  // conv weights (conditioned embeddings share it via the operand-slot
  // padding target).
  NetConfig NC;
  NC.Features = Runner.env(0).obsFeatures();
  for (size_t I = 0; I < Runner.numEnvs(); ++I) {
    Env &E = Runner.env(I);
    assert(E.obsFeatures() == NC.Features &&
           "mixed-kernel pools must share one embedding feature width");
    NC.Length = std::max(NC.Length, E.obsRows());
    NC.Actions = std::max<size_t>(NC.Actions, E.actionCount());
  }
  NC.Channels = Config.Channels;
  NC.Hidden = Config.Hidden;
  return NC;
}

std::unique_ptr<RolloutRunner> makeRunner(std::vector<Env *> Envs,
                                          const PpoConfig &Config) {
  RolloutConfig RC;
  RC.Seed = Config.Seed;
  return std::make_unique<RolloutRunner>(std::move(Envs), RC);
}

} // namespace

PpoTrainer::PpoTrainer(std::vector<Env *> Envs, PpoConfig C)
    : OwnedRunner(makeRunner(std::move(Envs), C)), Runner(OwnedRunner.get()),
      Config(C), SampleRng(C.Seed), Net(netConfigFor(*Runner, C), SampleRng),
      Optimizer(Net.parameters(), C.Lr) {
  // RolloutLen == 0 would make train() spin forever on an empty batch;
  // MiniBatches == 0 would divide by zero in updateFromBatch().
  Config.RolloutLen = std::max(1u, Config.RolloutLen);
  Config.MiniBatches = std::max(1u, Config.MiniBatches);
}

PpoTrainer::PpoTrainer(RolloutRunner &R, PpoConfig C)
    : Runner(&R), Config(C), SampleRng(C.Seed),
      Net(netConfigFor(*Runner, C), SampleRng),
      Optimizer(Net.parameters(), C.Lr) {
  Config.RolloutLen = std::max(1u, Config.RolloutLen);
  Config.MiniBatches = std::max(1u, Config.MiniBatches);
}

UpdateStats PpoTrainer::update() {
  return updateFromBatch(Runner->collect(Net, Config.RolloutLen));
}

UpdateStats PpoTrainer::updateFromBatch(const TrajectoryBatch &Batch) {
  const std::vector<Trajectory> &Trajs = Batch.Trajectories;
  const size_t NumTrajs = Trajs.size();
  assert(NumTrajs > 0 && "empty trajectory batch");
  assert(Batch.totalSteps() > 0 && "zero-step trajectory batch");

  for (const Trajectory &Traj : Trajs)
    for (double Return : Traj.CompletedReturns)
      EpisodeReturns.push_back(Return);
  StepsDone += static_cast<unsigned>(Batch.totalSteps());

  // ---- GAE ------------------------------------------------------------------
  // Per-trajectory and order-free: each trajectory's advantages depend
  // only on its own transitions and bootstrap value (batching-invariant
  // reduction — slot membership in a larger batch changes nothing).
  std::vector<std::vector<float>> Adv(NumTrajs), Ret(NumTrajs);
  for (size_t J = 0; J < NumTrajs; ++J) {
    const Trajectory &Traj = Trajs[J];
    const size_t T = Traj.Steps.size();
    Adv[J].resize(T);
    Ret[J].resize(T);
    float NextValue =
        Net.forward({{Traj.BootstrapObs, Traj.BootstrapMask}}).Value.item();
    float Gae = 0.0f;
    for (size_t Step = T; Step-- > 0;) {
      const Transition &S = Traj.Steps[Step];
      float VNext = Step + 1 < T ? Traj.Steps[Step + 1].Value : NextValue;
      float NonTerminal = S.Done ? 0.0f : 1.0f;
      float Delta = S.Reward +
                    static_cast<float>(Config.Gamma) * VNext * NonTerminal -
                    S.Value;
      Gae = Delta + static_cast<float>(Config.Gamma * Config.GaeLambda) *
                        NonTerminal * Gae;
      Adv[J][Step] = Gae;
      Ret[J][Step] = Gae + S.Value;
    }
  }

  // ---- optimization ----------------------------------------------------------
  std::vector<std::pair<size_t, size_t>> Index;
  Index.reserve(Batch.totalSteps());
  for (size_t J = 0; J < NumTrajs; ++J)
    for (size_t Step = 0; Step < Trajs[J].Steps.size(); ++Step)
      Index.push_back({J, Step});

  if (Config.AnnealLr) {
    double Frac = 1.0 - static_cast<double>(StepsDone) /
                            std::max(1u, Config.TotalSteps);
    Optimizer.setLr(Config.Lr * std::max(0.05, Frac));
  }

  double SumPolicyLoss = 0, SumValueLoss = 0, SumEntropy = 0, SumKl = 0,
         SumClip = 0;
  size_t BatchCount = 0;

  size_t BatchSize = Index.size();
  size_t MbSize = std::max<size_t>(1, BatchSize / Config.MiniBatches);
  for (unsigned Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    // Per-epoch cancellation checkpoint (the serving layer's deadline
    // granularity inside an optimization phase).
    if (Cancel)
      Cancel->checkpoint();
    SampleRng.shuffle(Index);
    for (size_t Start = 0; Start < BatchSize; Start += MbSize) {
      size_t End = std::min(BatchSize, Start + MbSize);
      size_t Count = End - Start;

      // Advantage normalization within the minibatch.
      double Mean = 0, Var = 0;
      for (size_t I = Start; I < End; ++I)
        Mean += Adv[Index[I].first][Index[I].second];
      Mean /= Count;
      for (size_t I = Start; I < End; ++I) {
        double D = Adv[Index[I].first][Index[I].second] - Mean;
        Var += D * D;
      }
      double Std = std::sqrt(Var / Count) + 1e-8;

      // The minibatch as one graph, samples in shuffled order; the
      // per-sample constants enter as constant tensors.
      std::vector<const Transition *> Samples;
      std::vector<ActorCritic::Input> Inputs;
      std::vector<size_t> Actions;
      std::vector<float> NegOldLogProb, Advantage, NegReturn, NegOldValue,
          OldValueMinusReturn;
      Inputs.reserve(Count);
      for (size_t I = Start; I < End; ++I) {
        const Transition &S = Trajs[Index[I].first].Steps[Index[I].second];
        Samples.push_back(&S);
        float A = static_cast<float>(
            Config.NormAdvantage
                ? (Adv[Index[I].first][Index[I].second] - Mean) / Std
                : Adv[Index[I].first][Index[I].second]);
        float R = Ret[Index[I].first][Index[I].second];
        Inputs.push_back({S.Obs, S.Mask});
        Actions.push_back(S.Action);
        NegOldLogProb.push_back(-S.LogProb);
        Advantage.push_back(A);
        NegReturn.push_back(-R);
        NegOldValue.push_back(-S.Value);
        OldValueMinusReturn.push_back(S.Value - R);
      }

      ActorCritic::Output Out = Net.forward(Inputs);
      Tensor LogP = logSoftmax(Out.MaskedLogits);
      Tensor NewLogProb = gather(LogP, Actions);
      Tensor Ratio = expT(
          add(NewLogProb, constant(NegOldLogProb))); // exp(new - old).

      // Clipped surrogate objective.
      Tensor AdvT = constant(Advantage);
      Tensor Surr1 = mul(Ratio, AdvT);
      Tensor Surr2 =
          mul(clampRange(Ratio, 1.0f - static_cast<float>(Config.ClipCoef),
                         1.0f + static_cast<float>(Config.ClipCoef)),
              AdvT);
      Tensor PolicyLoss = neg(minElem(Surr1, Surr2));

      // Value loss, optionally clipped around the old value.
      Tensor VDiff = add(Out.Value, constant(NegReturn));
      Tensor VLoss = mul(VDiff, VDiff);
      if (Config.ClipVLoss) {
        Tensor VClipped =
            add(clampRange(add(Out.Value, constant(NegOldValue)),
                           -static_cast<float>(Config.ClipCoef),
                           static_cast<float>(Config.ClipCoef)),
                constant(OldValueMinusReturn));
        Tensor VLossClipped = mul(VClipped, VClipped);
        // max(a, b) = -min(-a, -b).
        VLoss = neg(minElem(neg(VLoss), neg(VLossClipped)));
      }

      // Entropy of the masked categorical.
      Tensor Probs = expT(LogP);
      Tensor Entropy = neg(rowSums(mul(Probs, LogP)));

      Tensor SampleLoss = add(
          PolicyLoss,
          add(scalarMul(VLoss, static_cast<float>(Config.VfCoef) * 0.5f),
              scalarMul(Entropy, -static_cast<float>(Config.EntCoef))));
      Tensor Loss =
          scalarMul(sumT(SampleLoss), 1.0f / static_cast<float>(Count));
      Optimizer.zeroGrad();
      Loss.backward();
      clipGradNorm(Net.parameters(), Config.MaxGradNorm);
      Optimizer.step();

      // Diagnostics.
      double KlAccum = 0, ClipAccum = 0, EntAccum = 0, PlAccum = 0,
             VlAccum = 0;
      for (size_t J = 0; J < Count; ++J) {
        double RatioVal = Ratio.data()[J];
        double LogRatio = NewLogProb.data()[J] - Samples[J]->LogProb;
        KlAccum += (RatioVal - 1.0) - LogRatio;
        ClipAccum += std::fabs(RatioVal - 1.0) > Config.ClipCoef;
        EntAccum += Entropy.data()[J];
        PlAccum += PolicyLoss.data()[J];
        VlAccum += VLoss.data()[J];
      }

      SumPolicyLoss += PlAccum / Count;
      SumValueLoss += VlAccum / Count;
      SumEntropy += EntAccum / Count;
      SumKl += KlAccum / Count;
      SumClip += ClipAccum / Count;
      ++BatchCount;
    }
  }

  UpdateStats Stats;
  Stats.StepsDone = StepsDone;
  Stats.PolicyLoss = SumPolicyLoss / BatchCount;
  Stats.ValueLoss = SumValueLoss / BatchCount;
  Stats.Entropy = SumEntropy / BatchCount;
  Stats.ApproxKl = SumKl / BatchCount;
  Stats.ClipFraction = SumClip / BatchCount;
  if (!EpisodeReturns.empty()) {
    size_t Window = std::min<size_t>(EpisodeReturns.size(), 16);
    double Sum = 0;
    for (size_t I = EpisodeReturns.size() - Window;
         I < EpisodeReturns.size(); ++I)
      Sum += EpisodeReturns[I];
    Stats.MeanEpisodicReturn = Sum / Window;
  }
  return Stats;
}

std::vector<UpdateStats> PpoTrainer::train() {
  std::vector<UpdateStats> Series;
  while (StepsDone < Config.TotalSteps) {
    if (Cancel)
      Cancel->checkpoint();
    Series.push_back(update());
  }
  return Series;
}

std::vector<UpdateStats> PpoTrainer::trainOn(RolloutRunner &R,
                                             unsigned Steps) {
  std::vector<UpdateStats> Series;
  const unsigned Target = StepsDone + std::max(1u, Steps);
  while (StepsDone < Target) {
    if (Cancel)
      Cancel->checkpoint();
    Series.push_back(updateFromBatch(R.collect(Net, Config.RolloutLen)));
  }
  return Series;
}

size_t PpoTrainer::warmStartFrom(std::istream &IS) {
  return Net.loadCompatible(IS);
}

size_t PpoTrainer::warmStartFrom(const std::string &Blob) {
  std::istringstream IS(Blob);
  return Net.loadCompatible(IS);
}

std::vector<unsigned> PpoTrainer::playGreedy(Env &E, unsigned MaxSteps) {
  std::vector<unsigned> Actions;
  std::vector<float> Obs = E.reset();
  for (unsigned Step = 0; Step < MaxSteps; ++Step) {
    if (Cancel)
      Cancel->checkpoint();
    std::vector<uint8_t> Mask = E.actionMask();
    if (std::none_of(Mask.begin(), Mask.end(),
                     [](uint8_t M) { return M != 0; }))
      break;
    // Pad up to the net's action count (mixed-kernel nets): padded
    // logits sit at the mask fill value, below every legal action.
    RolloutRunner::padMaskToNet(Mask, Net.config().Actions);
    ActorCritic::Output Out = Net.forward({{Obs, Mask}});
    const std::vector<float> &Logits = Out.MaskedLogits.data();
    unsigned Action = static_cast<unsigned>(std::distance(
        Logits.begin(), std::max_element(Logits.begin(), Logits.end())));
    Actions.push_back(Action);
    EnvStep Res = E.step(Action);
    if (Res.Done)
      break;
    Obs = std::move(Res.Obs);
  }
  return Actions;
}
