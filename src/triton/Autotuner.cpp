//===- triton/Autotuner.cpp -----------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "triton/Autotuner.h"

#include "kernels/Generators.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

using namespace cuasmrl;
using namespace cuasmrl::triton;

Autotuner::Autotuner(AutotuneOptions O) : Options(std::move(O)) {}

std::string Autotuner::requestKey(kernels::WorkloadKind Kind,
                                  const kernels::WorkloadShape &S) {
  return kernels::workloadName(Kind) + "/" + std::to_string(S.B) + "x" +
         std::to_string(S.M) + "x" + std::to_string(S.N) + "x" +
         std::to_string(S.K) + "/" + std::to_string(S.NHead) + "x" +
         std::to_string(S.SeqLen) + "x" + std::to_string(S.DHead) + "/" +
         std::to_string(S.Rows) + "x" + std::to_string(S.Cols);
}

TunedConfig Autotuner::measureCandidate(const gpusim::Gpu &Device,
                                        kernels::WorkloadKind Kind,
                                        const kernels::WorkloadShape &Shape,
                                        const kernels::TileConfig &Config,
                                        uint64_t Seed) const {
  // Private device copy: the builder allocates buffers and the
  // simulator mutates memory/cache state, so concurrent candidates must
  // not share a Gpu — and a per-candidate copy also makes the
  // measurement independent of sweep order for Workers == 1.
  gpusim::Gpu Local(Device);
  Rng CandRng(Seed);
  kernels::BuiltKernel K =
      kernels::buildKernel(Local, Kind, Shape, Config,
                           kernels::ScheduleStyle::TritonO3, CandRng);
  gpusim::MeasureConfig MC = Options.Measure;
  if (MC.MaxBlocks == 0)
    MC.MaxBlocks = Local.residentBlocks(K.Launch);
  // Independent per-candidate noise stream, pure in (BaseSeed, request,
  // candidate index) like the data stream.
  MC.Seed = mixSeed(Seed, 0x6d656173756e6f69ull);
  // The -O3 schedule honours every dependency, so it cannot race.
  gpusim::Measurement M =
      measureKernel(Local, K.Prog, K.Launch, MC, /*RaceFree=*/true);

  TunedConfig T;
  T.Config = Config;
  T.Valid = M.Valid;
  T.MeanUs = M.MeanUs;
  return T;
}

AutotuneResult Autotuner::tune(const gpusim::Gpu &Device,
                               kernels::WorkloadKind Kind,
                               const kernels::WorkloadShape &Shape) const {
  return sweepAll(Device, {{Kind, Shape}}).front();
}

std::vector<AutotuneResult>
Autotuner::sweepAll(const gpusim::Gpu &Device,
                    const std::vector<SweepRequest> &Requests) const {
  // Flatten every (request, fitting candidate) pair into one task list:
  // candidates of different workloads interleave freely across the
  // pool (no per-request barrier).
  struct Task {
    size_t Req;
    size_t Cand;
    kernels::TileConfig Config;
    uint64_t Seed;
  };
  std::vector<AutotuneResult> Out(Requests.size());
  std::vector<Task> Tasks;
  for (size_t I = 0; I < Requests.size(); ++I) {
    // The (kind, shape) identity folds into every candidate's seed.
    uint64_t ReqSeed = mixSeed(
        Options.BaseSeed,
        fnv1a64(requestKey(Requests[I].Kind, Requests[I].Shape)));
    size_t Cand = 0;
    for (const kernels::TileConfig &C :
         kernels::candidateConfigs(Requests[I].Kind)) {
      if (!kernels::configFits(Requests[I].Kind, Requests[I].Shape, C))
        continue;
      Tasks.push_back({I, Cand, C, mixSeed(ReqSeed, Cand)});
      ++Cand;
    }
    Out[I].Sweep.resize(Cand);
  }

  auto RunTask = [&](size_t T) {
    const Task &K = Tasks[T];
    // Per-candidate cancellation checkpoint: a shed/timed-out job
    // abandons the sweep here (parallelFor rethrows on the caller
    // thread).
    if (Options.Cancel)
      Options.Cancel->checkpoint();
    // Distinct slots per task: no synchronization needed, and slot
    // order (candidate enumeration order) fixes the result layout
    // independent of completion order.
    Out[K.Req].Sweep[K.Cand] =
        measureCandidate(Device, Requests[K.Req].Kind, Requests[K.Req].Shape,
                         K.Config, K.Seed);
  };
  unsigned Workers =
      support::ThreadPool::resolveWorkerCount(Options.Workers, Tasks.size());
  if (Workers > 1 && Tasks.size() > 1) {
    support::ThreadPool Pool(Workers);
    Pool.parallelFor(Tasks.size(), [&](size_t T) { RunTask(T); });
  } else {
    for (size_t T = 0; T < Tasks.size(); ++T)
      RunTask(T);
  }

  // Reduce winners in candidate order (worker-count independent).
  for (AutotuneResult &R : Out) {
    R.BestUs = 1e30;
    for (const TunedConfig &T : R.Sweep) {
      if (T.Valid && T.MeanUs < R.BestUs) {
        R.BestUs = T.MeanUs;
        R.Best = T.Config;
        R.Valid = true;
      }
    }
  }
  return Out;
}
