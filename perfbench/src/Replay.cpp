//===- perfbench/src/Replay.cpp - Traced replay and warm-path probes -------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer measurements, all taken from the
/// benchmark's own files around calls into each module's public
/// functions: a replay of every cold job (autotune, compile, env
/// steps/resets/masks, rollout collection, PPO update, greedy replay,
/// probabilistic test with its oracle and timed simulator runs, deploy
/// store), and probes of the warm path (net round trip, in-process
/// submit, deploy-cache load, cubin deserialize/disassemble, response
/// encode/decode).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/GameEnvAdapter.h"
#include "cubin/Cubin.h"
#include "rl/Ppo.h"
#include "rl/RolloutRunner.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "triton/Autotuner.h"
#include "triton/DeployCache.h"
#include "triton/Pipeline.h"

#include <optional>
#include <sstream>
#include <stdexcept>

using namespace cuasmrl;
using namespace perfbench;

namespace {

/// Times every call the rollout engine and the greedy replay make into
/// the assembly game. lockstep() stays null, so the runner steps the
/// single env through step(), which the LockstepEnv contract makes
/// bit-identical to the split path the optimizer takes.
class TimedEnv final : public rl::Env {
public:
  TimedEnv(rl::Env &Inner, Tracer &T) : Inner(Inner), T(T) {}
  std::vector<float> reset() override {
    ScopedSpan S(T, "env.reset");
    return Inner.reset();
  }
  rl::EnvStep step(unsigned Action) override {
    ScopedSpan S(T, "env.step");
    return Inner.step(Action);
  }
  std::vector<uint8_t> actionMask() override {
    ScopedSpan S(T, "env.mask");
    return Inner.actionMask();
  }
  unsigned actionCount() const override { return Inner.actionCount(); }
  size_t obsRows() const override { return Inner.obsRows(); }
  size_t obsFeatures() const override { return Inner.obsFeatures(); }

private:
  rl::Env &Inner;
  Tracer &T;
};

/// triton::probabilisticTest, call for call, with the oracle and the
/// timed simulator runs in spans of their own.
bool probtestTraced(Tracer &T, gpusim::Gpu &Device,
                    const kernels::BuiltKernel &Runtime,
                    const sass::Program &Original,
                    const sass::Program &Candidate, unsigned Rounds,
                    Rng &DataRng, uint64_t &TimedIssued) {
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    const uint64_t RoundSeed = DataRng.next();
    Rng RefStream(RoundSeed);
    Runtime.randomizeInputs(Device, RefStream);
    gpusim::RunResult Ref;
    {
      ScopedSpan S(T, "gpusim.sim_oracle");
      Ref = Device.run(Original, Runtime.Launch, gpusim::RunMode::Oracle);
    }
    if (!Ref.Valid)
      return false;
    const std::vector<uint32_t> Expect = Runtime.readOutput(Device);
    Rng CandStream(RoundSeed);
    Runtime.randomizeInputs(Device, CandStream);
    gpusim::RunResult Got;
    {
      ScopedSpan S(T, "gpusim.sim_timed");
      Got = Device.run(Candidate, Runtime.Launch, gpusim::RunMode::Timed);
    }
    TimedIssued += Got.Counters.IssuedInstrs;
    if (!Got.Valid || Runtime.readOutput(Device) != Expect)
      return false;
  }
  return true;
}

/// The warm start OptimizationService::runJob picks: the key's own
/// stored policy, else the nearest stored shape of the same kind.
std::optional<std::string> warmStart(const serve::PolicyStore *Shelf,
                                     const KeySpec &K, std::string &From) {
  if (!Shelf)
    return std::nullopt;
  if (std::optional<std::string> Own = Shelf->load(K.Key)) {
    From = K.Key;
    return Own;
  }
  return Shelf->nearest(kGpuType, K.Kind, K.Shape, K.Key, &From);
}

/// The service's job for \p K, as OptimizationService::runJob sets it
/// up (private device copy, data stream mixSeed(seed, fnv1a64(key)),
/// warm start from the shelf) and core::Optimizer::optimize computes
/// it, with a span around every call into a layer.
ReplayOutcome replayJob(Tracer &T, uint64_t RequestId,
                        const gpusim::Gpu &Proto, const KeySpec &K,
                        const core::OptimizeConfig &C,
                        const serve::PolicyStore *Shelf,
                        triton::DeployCache &Store) {
  if (C.NumEnvs != 1 || C.ConditionEmbedding)
    throw std::runtime_error("replay covers the single-env optimizer path");
  ReplayOutcome Out;
  core::OptimizeResult &Result = Out.Result;
  gpusim::Gpu Local(Proto);
  Rng DataRng(mixSeed(kServiceSeed, fnv1a64(K.Key)));
  std::string WarmKey;
  const std::optional<std::string> Warm = warmStart(Shelf, K, WarmKey);

  const int64_t Start = Tracer::nowNs();
  {
    ScopedSpan Root(T, "core.optimize", RequestId);
    triton::AutotuneOptions AO;
    AO.Measure = C.AutotuneMeasure;
    AO.Workers = C.AutotuneWorkers;
    AO.BaseSeed = C.AutotuneSeed;
    triton::Autotuner Tuner(AO);
    triton::AutotuneResult Tuned;
    {
      ScopedSpan S(T, "triton.autotune");
      Tuned = Tuner.tune(static_cast<const gpusim::Gpu &>(Local), K.Kind,
                         K.Shape);
    }
    Out.AutotuneCandidates = Tuned.Sweep.size();
    if (!Tuned.Valid) {
      Result.AutotuneValid = false;
    } else {
      triton::CompiledKernel Compiled;
      {
        ScopedSpan S(T, "triton.compile");
        Compiled = triton::compileKernel(Local, K.Kind, K.Shape, Tuned.Best,
                                         DataRng);
      }
      std::shared_ptr<gpusim::MeasurementCache> Cache;
      std::unique_ptr<core::GameEnvAdapter> Adapter;
      std::unique_ptr<TimedEnv> Env;
      std::unique_ptr<rl::RolloutRunner> Runner;
      std::unique_ptr<rl::PpoTrainer> Trainer;
      {
        ScopedSpan S(T, "core.setup");
        if (C.Game.CacheMeasurements)
          Cache = std::make_shared<gpusim::MeasurementCache>(
              C.Game.Measure.Seed);
        env::GameConfig GC = C.Game;
        GC.SharedCache = Cache;
        GC.RecordTrace = false;
        GC.PrivateDevice = false;
        Adapter = std::make_unique<core::GameEnvAdapter>(
            std::make_unique<env::AssemblyGame>(Local, Compiled.Runtime, GC));
        Env = std::make_unique<TimedEnv>(*Adapter, T);
        rl::RolloutConfig RC;
        RC.Workers =
            support::ThreadPool::resolveWorkerCount(C.RolloutWorkers, 1);
        RC.Seed = C.Ppo.Seed;
        Runner = std::make_unique<rl::RolloutRunner>(
            std::vector<rl::Env *>{Env.get()}, RC);
        Trainer = std::make_unique<rl::PpoTrainer>(*Runner, C.Ppo);
        if (Warm && !Warm->empty())
          Result.WarmStartTensors = Trainer->warmStartFrom(*Warm);
      }
      // PpoTrainer::train(), split at its two layer calls.
      const unsigned Len = std::max(1u, C.Ppo.RolloutLen);
      unsigned StepsDone = 0;
      while (StepsDone < C.Ppo.TotalSteps) {
        rl::TrajectoryBatch Batch;
        {
          ScopedSpan S(T, "rl.collect");
          Batch = Runner->collect(Trainer->net(), Len);
        }
        StepsDone += static_cast<unsigned>(Batch.totalSteps());
        ScopedSpan S(T, "rl.update");
        Result.Training.push_back(Trainer->updateFromBatch(Batch));
      }
      Result.EpisodeReturns = Trainer->episodicReturns();

      env::AssemblyGame &Game = Adapter->game();
      Result.TritonUs = Game.initialTimeUs();
      Result.OptimizedUs = Game.bestTimeUs();
      Result.OptimizedProg = Game.best();
      {
        ScopedSpan S(T, "rl.greedy");
        Game.setTraceRecording(C.Game.RecordTrace);
        core::GameEnvAdapter Probe(Game);
        TimedEnv TimedProbe(Probe, T);
        Trainer->playGreedy(TimedProbe, C.Game.EpisodeLength);
      }
      Result.Trace = Game.trace();
      if (Game.bestTimeUs() < Result.OptimizedUs) {
        Result.OptimizedUs = Game.bestTimeUs();
        Result.OptimizedProg = Game.best();
      }
      Result.KernelExecutions += Game.measurementsTaken();
      Result.RolloutCounters += Game.simCounters();
      if (Cache)
        Cache->accumulate(Result.RolloutCounters);
      {
        ScopedSpan S(T, "triton.probtest");
        Result.Verified = probtestTraced(
            T, Local, Compiled.Runtime, Compiled.Runtime.Prog,
            Result.OptimizedProg, C.ProbTestRounds, DataRng,
            Out.TimedIssuedInstrs);
      }
      {
        ScopedSpan S(T, "core.finish");
        std::ostringstream Blob;
        Trainer->net().save(Blob);
        Result.PolicyBlob = Blob.str();
        Result.BestConfig = Tuned.Best;
        Result.Kernel = std::move(Compiled);
        if (Result.Verified)
          triton::substituteSchedule(Result.Kernel, Result.OptimizedProg);
      }
    }
  }
  Out.OptimizeMs = double(Tracer::nowNs() - Start) / 1e6;
  if (Result.WarmStartTensors > 0)
    Out.WarmStartedFrom = WarmKey;
  if (Result.AutotuneValid) {
    ScopedSpan S(T, "triton.deploy_store", RequestId);
    Store.store(K.Key, Result.Kernel.Binary);
  }
  return Out;
}

/// The wire summary of the service's response for the replayed key.
net::WireResponse replayAsWire(const ReplayOutcome &R, const std::string &Key) {
  serve::OptimizeResponse Resp;
  Resp.St = serve::OptimizeResponse::Status::Optimized;
  Resp.Key = Key;
  Resp.Result = R.Result;
  Resp.Binary = R.Result.Kernel.Binary;
  Resp.WarmStartedFrom = R.WarmStartedFrom;
  Resp.Persisted = R.Result.AutotuneValid && R.Result.Verified;
  return net::summarizeResponse(Resp);
}

template <typename Fn> double timedUs(Tracer &T, const char *Name, Fn &&F) {
  const int64_t Start = Tracer::nowNs();
  {
    ScopedSpan S(T, Name);
    F();
  }
  return double(Tracer::nowNs() - Start) / 1e3;
}

} // namespace

void perfbench::replayColdJobs(RunData &D, const gpusim::Gpu &Proto,
                               const core::OptimizeConfig &Job,
                               const std::string &TmpRoot) {
  if (D.Replays.empty())
    return;
  TempDir StoreDir(TmpRoot);
  triton::DeployCache Store(StoreDir.sub("store"));
  uint64_t RequestId = 1;
  for (const ReplayTarget &R : D.Replays) {
    ReplayOutcome Out = replayJob(D.Trace, RequestId++, Proto, R.Key, Job,
                                  D.Shelf.get(), Store);
    if (!wireIdentical(replayAsWire(Out, R.Key.Key), R.Reference))
      D.ReplayIdentical = false;
    D.QueueWaitMs.push_back(R.Reference.WallMs - Out.OptimizeMs);
    D.Replayed.push_back(std::move(Out));
  }

  // The cheapest job once more through the library's own untraced path:
  // the tracing overhead, and a check of the replay against it.
  size_t Cheapest = 0;
  for (size_t I = 1; I < D.Replayed.size(); ++I)
    if (D.Replayed[I].OptimizeMs < D.Replayed[Cheapest].OptimizeMs)
      Cheapest = I;
  const KeySpec &K = D.Replays[Cheapest].Key;
  std::string WarmKey;
  const std::optional<std::string> Warm = warmStart(D.Shelf.get(), K, WarmKey);
  const core::Optimizer Opt(Job);
  gpusim::Gpu Local(Proto);
  Rng DataRng(mixSeed(kServiceSeed, fnv1a64(K.Key)));
  const Clock::time_point Start = Clock::now();
  const core::OptimizeResult Direct =
      Opt.optimize(Local, K.Kind, K.Shape, DataRng, nullptr,
                   Warm ? &*Warm : nullptr, kGpuType);
  const double DirectMs = msBetween(Start, Clock::now());
  const core::OptimizeResult &Traced = D.Replayed[Cheapest].Result;
  D.DirectIdentical = Direct.AutotuneValid == Traced.AutotuneValid &&
                      Direct.Verified == Traced.Verified &&
                      Direct.TritonUs == Traced.TritonUs &&
                      Direct.OptimizedUs == Traced.OptimizedUs &&
                      Direct.Training.size() == Traced.Training.size() &&
                      Direct.KernelExecutions == Traced.KernelExecutions &&
                      sameCubin(Direct.Kernel.Binary, Traced.Kernel.Binary);
  D.OverheadShare = D.Replayed[Cheapest].OptimizeMs / DirectMs - 1.0;
}

void perfbench::probeWarmPath(RunData &D, Rig &R, const std::string &DeployDir,
                              const std::vector<KeySpec> &Deployed,
                              unsigned Iters) {
  if (Deployed.empty()) {
    D.ProbesOk = false;
    return;
  }
  Tracer &T = D.Trace;
  triton::DeployCache Cache(DeployDir);
  Clock::time_point PrevDone = Clock::now();
  for (unsigned I = 0; I < Iters; ++I) {
    const KeySpec &K = Deployed[I % Deployed.size()];
    const serve::OptimizeRequest Req = K.request(true);

    D.LatenessMs.push_back(msBetween(PrevDone, Clock::now()));
    std::optional<net::WireResponse> Wire;
    D.CallUs.push_back(timedUs(T, "net.call", [&] {
      Expected<net::WireResponse> W = R.Client->call(Req);
      if (W)
        Wire = std::move(*W);
    }));
    PrevDone = Clock::now();
    D.Fail.record(Wire ? classify(RequestClass::Lookup, *Wire, K.Key)
                       : Verdict::TransportError);

    serve::ResponsePtr InProc;
    D.SubmitUs.push_back(timedUs(T, "serve.submit", [&] {
      InProc = R.Service.submit(Req).Response.get();
    }));
    std::optional<cubin::CubinFile> Loaded;
    D.LoadUs.push_back(
        timedUs(T, "triton.deploy_load", [&] { Loaded = Cache.load(K.Key); }));
    if (!InProc || InProc->St != serve::OptimizeResponse::Status::LookupHit ||
        !Loaded) {
      D.ProbesOk = false;
      continue;
    }
    const std::vector<uint8_t> Bytes = Loaded->serialize();
    bool Ok = true;
    D.DeserializeUs.push_back(timedUs(T, "cubin.deserialize", [&] {
      Ok = Ok && static_cast<bool>(cubin::CubinFile::deserialize(Bytes));
    }));
    D.DisassembleUs.push_back(timedUs(T, "cubin.disassemble", [&] {
      Ok = Ok && static_cast<bool>(cubin::disassemble(*Loaded));
    }));
    std::vector<uint8_t> Frame;
    D.EncodeUs.push_back(timedUs(T, "net.encode", [&] {
      Frame = net::encodeResponseFrame(net::summarizeResponse(*InProc), I + 1);
    }));
    D.DecodeUs.push_back(timedUs(T, "net.decode", [&] {
      Ok = Ok && Frame.size() >= net::kHeaderSize &&
           static_cast<bool>(net::decodeHeader(Frame.data(), Frame.size())) &&
           static_cast<bool>(net::decodeResponsePayload(
               Frame.data() + net::kHeaderSize,
               Frame.size() - net::kHeaderSize));
    }));
    D.ProbesOk = D.ProbesOk && Ok;
  }
}
