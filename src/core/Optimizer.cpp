//===- core/Optimizer.cpp ----------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "core/Optimizer.h"

#include "analysis/OperandTable.h"
#include "core/GameEnvAdapter.h"
#include "support/Logging.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

using namespace cuasmrl;
using namespace cuasmrl::core;

Optimizer::Optimizer(OptimizeConfig C) : Config(std::move(C)) {
  if (Config.Game.Measure.RepeatIters == 0)
    throw std::invalid_argument(
        "OptimizeConfig::Game.Measure.RepeatIters must be at least 1");
}

namespace {

/// The post-training tail of one workload: best-schedule selection
/// across \p Adapters, the deterministic greedy replay (§5.7),
/// measurement-cost accounting and the probabilistic test — all scoped
/// to ONE workload's game pool.
void finishWorkload(const OptimizeConfig &Config, gpusim::Gpu &Device,
                    const kernels::BuiltKernel &Kernel,
                    rl::PpoTrainer &Trainer,
                    const std::vector<GameEnvAdapter *> &Adapters,
                    gpusim::MeasurementCache *SharedCache, Rng &DataRng,
                    const support::CancelToken *Cancel,
                    OptimizeResult &Result) {
  // Best schedule across every game (the paper deploys the best cubin
  // found "throughout the assembly game", §4.2).
  env::AssemblyGame *BestGame = &Adapters.front()->game();
  for (GameEnvAdapter *A : Adapters)
    if (A->game().bestTimeUs() < BestGame->bestTimeUs())
      BestGame = &A->game();
  Result.TritonUs = BestGame->initialTimeUs();
  Result.OptimizedUs = BestGame->bestTimeUs();
  Result.OptimizedProg = BestGame->best();

  // Deterministic inference replay for the §5.7 move traces.
  BestGame->setTraceRecording(Config.Game.RecordTrace);
  GameEnvAdapter Probe(*BestGame);
  Trainer.playGreedy(Probe, Config.Game.EpisodeLength);
  Result.Trace = BestGame->trace();
  if (BestGame->bestTimeUs() < Result.OptimizedUs) {
    Result.OptimizedUs = BestGame->bestTimeUs();
    Result.OptimizedProg = BestGame->best();
  }

  // Measurement-cost accounting (§7) — after the replay so its cache
  // traffic and simulations are included.
  for (GameEnvAdapter *A : Adapters) {
    Result.KernelExecutions += A->game().measurementsTaken();
    Result.SimulatedRuns += A->game().simulatedRuns();
    // Per-stage simulator counters; summed across games the total is
    // independent of which sibling ran a shared-cache measurement.
    Result.RolloutCounters += A->game().simCounters();
  }
  if (SharedCache)
    SharedCache->accumulate(Result.RolloutCounters);

  // Between-stage checkpoint before the verification rounds.
  if (Cancel)
    Cancel->checkpoint();

  // Probabilistic testing of the winning schedule (§4.1).
  Result.Verified =
      triton::probabilisticTest(Device, Kernel, Kernel.Prog,
                                Result.OptimizedProg, Config.ProbTestRounds,
                                DataRng);
}

} // namespace

triton::AutotuneOptions Optimizer::autotuneOptions() const {
  triton::AutotuneOptions O;
  O.Measure = Config.AutotuneMeasure;
  O.Workers = Config.AutotuneWorkers;
  O.BaseSeed = Config.AutotuneSeed;
  return O;
}

OptimizeResult Optimizer::optimize(gpusim::Gpu &Device,
                                   kernels::WorkloadKind Kind,
                                   const kernels::WorkloadShape &Shape,
                                   Rng &DataRng,
                                   const support::CancelToken *Cancel,
                                   const std::string *WarmStartPolicy,
                                   const std::string &GpuType) const {
  MultiOptimizeResult Multi =
      runWorkflow(Device, {{Kind, Shape}}, Config.ConditionEmbedding,
                  DataRng, Cancel, WarmStartPolicy, GpuType);
  // One workload: the joint training series is its own.
  OptimizeResult Result = std::move(Multi.Results.front());
  Result.Training = std::move(Multi.Training);
  Result.EpisodeReturns = std::move(Multi.EpisodeReturns);
  return Result;
}

MultiOptimizeResult
Optimizer::optimizeMany(gpusim::Gpu &Device,
                        const std::vector<WorkloadRequest> &Requests,
                        Rng &DataRng, const support::CancelToken *Cancel,
                        const std::string *WarmStartPolicy,
                        const std::string &GpuType) const {
  return runWorkflow(Device, Requests, /*Conditioned=*/true, DataRng, Cancel,
                     WarmStartPolicy, GpuType);
}

MultiOptimizeResult
Optimizer::runWorkflow(gpusim::Gpu &Device,
                       const std::vector<WorkloadRequest> &Requests,
                       bool Conditioned, Rng &DataRng,
                       const support::CancelToken *Cancel,
                       const std::string *WarmStartPolicy,
                       const std::string &GpuType) const {
  MultiOptimizeResult Multi;
  Multi.Results.resize(Requests.size());
  if (Requests.empty())
    return Multi;

  // Level 1 per request: kernel-configuration search (§3.1) — the
  // configurations can be worth up to 2x and completely change the
  // SASS the agent sees — then compile at the winner and intercept the
  // cubin.
  triton::AutotuneOptions TunerOpts = autotuneOptions();
  TunerOpts.Cancel = Cancel;
  const triton::Autotuner Tuner(TunerOpts);

  struct BuiltReq {
    size_t Req;
    triton::CompiledKernel Kernel;
  };
  std::vector<BuiltReq> Built;
  for (size_t I = 0; I < Requests.size(); ++I) {
    triton::AutotuneResult Tuned =
        Tuner.tune(Device, Requests[I].Kind, Requests[I].Shape);
    if (!Tuned.Valid) {
      // No candidate fit the shape (or every measurement faulted):
      // there is no meaningful configuration to compile, so exclude the
      // request from training and surface the failure in place.
      Multi.Results[I].AutotuneValid = false;
      continue;
    }
    // Between-stage checkpoint: don't start compiling a cubin nobody
    // will wait for.
    if (Cancel)
      Cancel->checkpoint();
    Multi.Results[I].BestConfig = Tuned.Best;
    Built.push_back({I, triton::compileKernel(Device, Requests[I].Kind,
                                              Requests[I].Shape, Tuned.Best,
                                              DataRng)});
  }
  if (Built.empty())
    return Multi;

  // Curriculum order: smallest compiled program first (easier games
  // earlier), request index as the deterministic tie-break.
  std::sort(Built.begin(), Built.end(),
            [](const BuiltReq &A, const BuiltReq &B) {
              size_t SA = A.Kernel.Runtime.Prog.size();
              size_t SB = B.Kernel.Runtime.Prog.size();
              return SA != SB ? SA < SB : A.Req < B.Req;
            });
  for (const BuiltReq &B : Built)
    Multi.Curriculum.push_back(B.Req);

  // The conditioned embedding pads every workload's operand features to
  // the pool maximum so every observation shares one feature width.
  size_t OperandSlots = 0;
  if (Conditioned)
    for (const BuiltReq &B : Built)
      OperandSlots = std::max(
          OperandSlots,
          analysis::OperandTable::build(B.Kernel.Runtime.Prog).maxOperands());

  // Level 2: the assembly game (§3.3). One env pool per workload of
  // NumEnvs games sharing that workload's schedule->latency cache.
  const unsigned PerWorkload = std::max(1u, Config.NumEnvs);
  const size_t TotalEnvs = PerWorkload * Built.size();
  unsigned Workers =
      support::ThreadPool::resolveWorkerCount(Config.RolloutWorkers,
                                              TotalEnvs);

  struct WorkloadPool {
    size_t Req;
    triton::CompiledKernel *Kernel; ///< Into Built (stable after sort).
    std::shared_ptr<gpusim::MeasurementCache> Cache;
    std::vector<GameEnvAdapter *> Adapters;
  };
  std::vector<std::unique_ptr<rl::Env>> Envs; ///< Curriculum order.
  std::vector<WorkloadPool> Pools;
  for (BuiltReq &B : Built) {
    WorkloadPool P;
    P.Req = B.Req;
    P.Kernel = &B.Kernel;
    if (Config.Game.CacheMeasurements)
      P.Cache = std::make_shared<gpusim::MeasurementCache>(
          Config.Game.Measure.Seed);
    for (unsigned E = 0; E < PerWorkload; ++E) {
      env::GameConfig GC = Config.Game;
      GC.SharedCache = P.Cache;
      // Training rollouts never read the §5.7 trace (playGreedy resets
      // the winning game before replaying); skip the per-step string
      // rendering and re-enable recording just for the replay.
      GC.RecordTrace = false;
      // Private whenever sibling games exist — not just when threaded:
      // siblings sharing one device would see each other's cache/memory
      // state, making measurements depend on the (worker-count-shaped)
      // interleaving and breaking the stats-identical-for-any-Workers
      // contract.
      GC.PrivateDevice = TotalEnvs > 1;
      if (Conditioned) {
        env::WorkloadContext Ctx;
        Ctx.Kind = Requests[B.Req].Kind;
        Ctx.Shape = Requests[B.Req].Shape;
        Ctx.GpuType = GpuType;
        Ctx.OperandSlots = OperandSlots;
        GC.Context = Ctx;
      }
      auto Adapter = std::make_unique<GameEnvAdapter>(
          std::make_unique<env::AssemblyGame>(Device, B.Kernel.Runtime,
                                              GC));
      P.Adapters.push_back(Adapter.get());
      Envs.push_back(std::move(Adapter));
    }
    Pools.push_back(std::move(P));
  }

  std::vector<rl::Env *> AllEnvs;
  for (const std::unique_ptr<rl::Env> &E : Envs)
    AllEnvs.push_back(E.get());

  rl::RolloutConfig RC;
  RC.Workers = Workers;
  RC.Seed = Config.Ppo.Seed;
  RC.Cancel = Cancel;

  // The trainer's net is sized from the FULL mixed pool (max rows, max
  // actions, the shared feature width) — phase runners over subsets
  // then fit by construction.
  rl::RolloutRunner FullRunner(AllEnvs, RC);
  rl::PpoTrainer Trainer(FullRunner, Config.Ppo);
  Trainer.setCancel(Cancel);
  if (WarmStartPolicy && !WarmStartPolicy->empty())
    Multi.WarmStartTensors = Trainer.warmStartFrom(*WarmStartPolicy);

  // Curriculum phases: phase p trains on the cumulative pool of the
  // p+1 smallest workloads; the step budget splits evenly with the
  // remainder on the final (full-pool) phase. Each phase gets a fresh
  // runner — construction resets its envs and re-derives the per-slot
  // Rng streams from (Seed, slot), so the whole schedule is a pure
  // function of the request set and seeds, worker count aside.
  const size_t Phases = Pools.size();
  const unsigned Total = Config.Ppo.TotalSteps;
  const unsigned PerPhase = static_cast<unsigned>(Total / Phases);
  for (size_t P = 0; P < Phases; ++P) {
    const bool Final = P + 1 == Phases;
    unsigned PhaseSteps =
        Final ? Total - PerPhase * static_cast<unsigned>(Phases - 1)
              : PerPhase;
    if (PhaseSteps == 0)
      continue;
    std::vector<rl::Env *> PhaseEnvs(
        AllEnvs.begin(),
        AllEnvs.begin() + static_cast<long>((P + 1) * PerWorkload));
    rl::RolloutRunner PhaseRunner(PhaseEnvs, RC);
    std::vector<rl::UpdateStats> Series =
        Trainer.trainOn(PhaseRunner, PhaseSteps);
    Multi.Training.insert(Multi.Training.end(), Series.begin(),
                          Series.end());
  }
  Multi.EpisodeReturns = Trainer.episodicReturns();

  std::ostringstream Blob;
  Trainer.net().save(Blob);
  Multi.PolicyBlob = Blob.str();

  // Per-workload tail: best schedule, greedy replay, accounting,
  // probabilistic test, then substitution of the optimized kernel
  // section back into the binary.
  for (WorkloadPool &P : Pools) {
    OptimizeResult &R = Multi.Results[P.Req];
    finishWorkload(Config, Device, P.Kernel->Runtime, Trainer, P.Adapters,
                   P.Cache.get(), DataRng, Cancel, R);
    R.PolicyBlob = Multi.PolicyBlob;
    R.WarmStartTensors = Multi.WarmStartTensors;
    R.Kernel = std::move(*P.Kernel);
    if (R.Verified)
      triton::substituteSchedule(R.Kernel, R.OptimizedProg);
  }
  return Multi;
}

std::vector<triton::AutotuneResult>
Optimizer::autotuneAll(const gpusim::Gpu &Device,
                       const std::vector<triton::SweepRequest> &Requests,
                       triton::DeployCache *Deploy,
                       const std::string &GpuType,
                       DeployStats *Stats) const {
  std::vector<triton::AutotuneResult> Results =
      triton::Autotuner(autotuneOptions()).sweepAll(Device, Requests);

  if (Deploy) {
    for (size_t I = 0; I < Requests.size(); ++I) {
      const triton::AutotuneResult &R = Results[I];
      if (!R.Valid)
        continue; // Nothing meaningful to persist.
      // Compile the winner on a private device copy with a seed fixed
      // by (AutotuneSeed, request index) — the Rng only randomizes
      // buffer contents, so the persisted cubin is byte-identical
      // regardless — and store it under a key that pins GPU, workload,
      // shape and config.
      gpusim::Gpu Local(Device);
      Rng DataRng(mixSeed(Config.AutotuneSeed, I));
      triton::CompiledKernel Compiled = triton::compileKernel(
          Local, Requests[I].Kind, Requests[I].Shape, R.Best, DataRng);
      std::string Key = triton::DeployCache::makeKey(
          GpuType,
          triton::Autotuner::requestKey(Requests[I].Kind, Requests[I].Shape),
          R.Best.str());
      if (Stats)
        ++Stats->Attempted;
      if (Deploy->store(Key, Compiled.Binary)) {
        if (Stats)
          ++Stats->Stored;
      } else {
        // A dropped winner means deployment quietly falls back to
        // training — always say so, and let batch callers count it.
        logWarn("autotuneAll: failed to persist winner cubin for key '" +
                Key + "' (unwritable deploy directory?)");
        if (Stats)
          ++Stats->Failures;
      }
    }
  }
  return Results;
}
