//===- triton/Autotuner.cpp -----------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "triton/Autotuner.h"

#include "kernels/Generators.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <thread>

using namespace cuasmrl;
using namespace cuasmrl::triton;

namespace {

/// FNV-1a over the request key: folds the (kind, shape) identity into
/// the per-candidate seed derivation.
uint64_t hashKey(const std::string &Key) { return fnv1a64(Key); }

} // namespace

Autotuner::Autotuner(AutotuneOptions O) : Options(std::move(O)) {}

Autotuner::Autotuner(gpusim::MeasureConfig M) {
  Options.Measure = M;
}

std::string Autotuner::requestKey(kernels::WorkloadKind Kind,
                                  const kernels::WorkloadShape &S) {
  return kernels::workloadName(Kind) + "/" + std::to_string(S.B) + "x" +
         std::to_string(S.M) + "x" + std::to_string(S.N) + "x" +
         std::to_string(S.K) + "/" + std::to_string(S.NHead) + "x" +
         std::to_string(S.SeqLen) + "x" + std::to_string(S.DHead) + "/" +
         std::to_string(S.Rows) + "x" + std::to_string(S.Cols);
}

const AutotuneResult *
Autotuner::cached(kernels::WorkloadKind Kind,
                  const kernels::WorkloadShape &Shape) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Cache.find(requestKey(Kind, Shape));
  if (It == Cache.end() || !It->second.Ready)
    return nullptr;
  return &It->second.Result;
}

uint64_t Autotuner::sweepsPerformed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Sweeps;
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
  gpusim::Measurement M = measureKernel(Local, K.Prog, K.Launch, MC);

  TunedConfig T;
  T.Config = Config;
  T.Valid = M.Valid;
  T.MeanUs = M.MeanUs;
  return T;
}

AutotuneResult Autotuner::tune(const gpusim::Gpu &Device,
                               kernels::WorkloadKind Kind,
                               const kernels::WorkloadShape &Shape) {
  return sweepAll(Device, {{Kind, Shape}}).front();
}

std::vector<AutotuneResult>
Autotuner::sweepAll(const gpusim::Gpu &Device,
                    const std::vector<SweepRequest> &Requests) {
  const size_t N = Requests.size();
  std::vector<AutotuneResult> Out(N);
  std::vector<std::string> Keys(N);
  for (size_t I = 0; I < N; ++I)
    Keys[I] = requestKey(Requests[I].Kind, Requests[I].Shape);
  std::vector<char> Resolved(N, 0);

  // Each pass claims every unresolved key nobody owns, sweeps the
  // claimed ones in a single cross-request fan-out, then waits for the
  // keys other threads (or earlier duplicates in this batch) own.
  // Another pass runs only when a wait found its key reclaimed (the
  // sweeper threw) or a duplicate resolved, so the loop terminates.
  for (;;) {
    std::vector<size_t> Owned;   ///< Batch index that claimed each key.
    std::vector<size_t> Waiting; ///< Keys in flight on another thread.
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      std::map<std::string, size_t> ClaimedHere;
      for (size_t I = 0; I < N; ++I) {
        if (Resolved[I])
          continue;
        if (ClaimedHere.count(Keys[I]))
          continue; // Duplicate request: resolves from the cache next pass.
        auto It = Cache.find(Keys[I]);
        if (It != Cache.end()) {
          if (It->second.Ready) {
            Out[I] = It->second.Result;
            Resolved[I] = 1;
          } else {
            Waiting.push_back(I);
          }
          continue;
        }
        Cache.emplace(Keys[I], Slot());
        ClaimedHere.emplace(Keys[I], I);
        Owned.push_back(I);
      }
    }
    if (Owned.empty() && Waiting.empty())
      break;

    if (!Owned.empty()) {
      // Flatten every (request, fitting candidate) pair into one task
      // list: candidates of different workloads interleave freely
      // across the pool (no per-request barrier).
      struct Task {
        size_t Req;
        size_t Cand;
        kernels::TileConfig Config;
        uint64_t Seed;
      };
      std::vector<Task> Tasks;
      // Everything between claiming the keys and publishing runs under
      // the release-on-throw guard below — a throw anywhere here (task
      // construction included) must reclaim the keys, never poison
      // them.
      try {
        for (size_t I : Owned) {
          uint64_t ReqSeed = mixSeed(Options.BaseSeed, hashKey(Keys[I]));
          size_t Cand = 0;
          for (const kernels::TileConfig &C :
               kernels::candidateConfigs(Requests[I].Kind)) {
            if (!kernels::configFits(Requests[I].Kind, Requests[I].Shape, C))
              continue;
            Tasks.push_back({I, Cand, C, mixSeed(ReqSeed, Cand)});
            ++Cand;
          }
          Out[I] = AutotuneResult();
          Out[I].Sweep.resize(Cand);
        }

        auto RunTask = [&](size_t T) {
          const Task &K = Tasks[T];
          // Per-candidate cancellation checkpoint: a shed/timed-out
          // job abandons the sweep here (the catch below reclaims the
          // claimed keys; parallelFor rethrows on the caller thread).
          if (Options.Cancel)
            Options.Cancel->checkpoint();
          // Distinct slots per task: no synchronization needed, and
          // slot order (candidate enumeration order) fixes the result
          // layout independent of completion order.
          Out[K.Req].Sweep[K.Cand] = measureCandidate(
              Device, Requests[K.Req].Kind, Requests[K.Req].Shape,
              K.Config, K.Seed);
        };
        unsigned Workers = support::ThreadPool::resolveWorkerCount(
            Options.Workers, Tasks.size());
        if (Workers > 1 && Tasks.size() > 1) {
          support::ThreadPool Pool(Workers);
          Pool.parallelFor(Tasks.size(),
                           [&](size_t T) { RunTask(T); });
        } else {
          for (size_t T = 0; T < Tasks.size(); ++T)
            RunTask(T);
        }
      } catch (...) {
        // Release the claimed keys so waiters (and retries) can
        // re-sweep — a key is never poisoned, like MeasurementCache.
        {
          std::lock_guard<std::mutex> Lock(Mutex);
          for (size_t I : Owned)
            Cache.erase(Keys[I]);
        }
        Published.notify_all();
        throw;
      }

      // Reduce winners in candidate order (worker-count independent)
      // and publish.
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        for (size_t I : Owned) {
          AutotuneResult &R = Out[I];
          R.BestUs = 1e30;
          for (const TunedConfig &T : R.Sweep) {
            if (T.Valid && T.MeanUs < R.BestUs) {
              R.BestUs = T.MeanUs;
              R.Best = T.Config;
              R.Valid = true;
            }
          }
          Slot &S = Cache[Keys[I]];
          S.Result = R;
          S.Ready = true;
          Resolved[I] = 1;
          ++Sweeps;
        }
      }
      Published.notify_all();
    }

    for (size_t I : Waiting) {
      std::unique_lock<std::mutex> Lock(Mutex);
      Published.wait(Lock, [&] {
        auto It = Cache.find(Keys[I]);
        return It == Cache.end() || It->second.Ready;
      });
      auto It = Cache.find(Keys[I]);
      if (It != Cache.end() && It->second.Ready) {
        Out[I] = It->second.Result;
        Resolved[I] = 1;
      }
      // Reclaimed (sweeper threw): the next pass claims it ourselves.
    }
  }
  return Out;
}
