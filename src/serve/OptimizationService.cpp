//===- serve/OptimizationService.cpp -----------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "serve/OptimizationService.h"

#include "support/FileLock.h"
#include "support/Logging.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <type_traits>

using namespace cuasmrl;
using namespace cuasmrl::serve;

namespace {

/// Completion callbacks run on service-internal threads (or inside
/// admit() for lookup hits); an escaping exception would leak the
/// Outstanding count or terminate the process via the ThreadPool
/// contract, so it is contained and logged instead — the response
/// itself is already published through the future.
void invokeGuarded(const std::function<void(const OptimizeResponse &)> &Cb,
                   const OptimizeResponse &Resp) {
  try {
    Cb(Resp);
  } catch (const std::exception &E) {
    logWarn(std::string("OptimizationService: completion callback threw: ") +
            E.what());
  } catch (...) {
    logWarn("OptimizationService: completion callback threw");
  }
}

double elapsedMs(const support::Clock &C, support::Clock::TimePoint Since) {
  return std::chrono::duration<double, std::milli>(C.now() - Since).count();
}

/// Digest of every result-relevant OptimizeConfig field
/// (core::visitResultFields). Doubles render as hexfloat, so two
/// configs digest equal iff the values are bit-comparable, with no
/// decimal rounding; integers and bools render in decimal; each stall
/// table entry renders as "key=cycles". Two requests with different
/// tables must never share a job or a deployed cubin.
std::string configDigest(const core::OptimizeConfig &C) {
  std::string Raw;
  Raw.reserve(256);
  core::visitResultFields(C, [&Raw](const auto &V) {
    using T = std::decay_t<decltype(V)>;
    if constexpr (std::is_same_v<T, analysis::StallTable>) {
      for (const auto &[Key, Cycles] : V.entries()) {
        Raw += Key;
        Raw += '=';
        Raw += std::to_string(uint64_t(Cycles));
        Raw += ',';
      }
    } else if constexpr (std::is_same_v<T, double>) {
      char Buf[48];
      std::snprintf(Buf, sizeof(Buf), "%a,", V);
      Raw += Buf;
    } else {
      static_assert(std::is_unsigned_v<T>, "unhandled config field type");
      Raw += std::to_string(uint64_t(V));
      Raw += ',';
    }
  });
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), "cfg%016llx",
                static_cast<unsigned long long>(fnv1a64(Raw)));
  return Hex;
}

/// The one place a request key is built: requestKey() and admit() both
/// come here, so a key from the stored default digest cannot drift
/// from the public function's.
std::string keyFor(const OptimizeRequest &R, const std::string &Digest) {
  return triton::DeployCache::makeKey(
      R.GpuType, triton::Autotuner::requestKey(R.Kind, R.Shape), Digest);
}

std::shared_future<ResponsePtr> readyFuture(ResponsePtr Resp) {
  std::promise<ResponsePtr> P;
  P.set_value(std::move(Resp));
  return P.get_future().share();
}

/// Every rejection resolves the ticket's future with a ready
/// Status::Rejected response instead of leaving it invalid — a caller
/// that waits on any ticket's future gets a clean outcome, never a
/// block-forever (or UB) on a defaulted shared_future.
std::shared_future<ResponsePtr> rejectedFuture(std::string Key,
                                               std::string Why,
                                               double WallMs) {
  auto Resp = std::make_shared<OptimizeResponse>();
  Resp->St = OptimizeResponse::Status::Rejected;
  Resp->Key = std::move(Key);
  Resp->Error = std::move(Why);
  Resp->WallMs = WallMs;
  return readyFuture(std::move(Resp));
}

} // namespace

std::string
OptimizationService::requestKey(const OptimizeRequest &R,
                                const core::OptimizeConfig &Defaults) {
  return keyFor(R, configDigest(R.Config ? *R.Config : Defaults));
}

OptimizationService::OptimizationService(const gpusim::Gpu &Proto,
                                         ServiceConfig C)
    : Config(std::move(C)), DefaultsDigest(configDigest(Config.Defaults)),
      Prototype(Proto),
      Workers(support::ThreadPool::resolveWorkerCount(Config.Workers)),
      Clk(Config.ClockSrc ? Config.ClockSrc : &support::Clock::real()),
      Queue(JobQueue::Options{Config.MaxQueued, Clk, Config.AgingInterval,
                              Config.AgingStep}) {
  if (!Config.DeployDir.empty()) {
    Deploy = std::make_unique<triton::DeployCache>(Config.DeployDir);
    Deploy->setFaultInjector(Config.Faults);
    // Seed the near-miss index from whatever the directory already
    // deploys (meta sidecars); no lock needed before construction ends.
    Index.loadFrom(*Deploy);
  }
  if (!Config.PolicyDir.empty())
    Policies = std::make_unique<PolicyStore>(Config.PolicyDir);
  if (claimsActive()) {
    ClaimToken = support::FileLock::makeToken();
    Heartbeat = std::thread([this] { heartbeatLoop(); });
  }
  Pool = std::make_unique<support::ThreadPool>(Workers);
  if (!Config.StartPaused)
    start();
}

OptimizationService::~OptimizationService() { shutdown(); }

void OptimizationService::start() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Started || ShutDown)
    return;
  Started = true;
  // The workers are long-running pool tasks: each loops popping jobs
  // until the queue closes. The pool is sized exactly to them, so
  // nothing else may be submitted to it.
  for (unsigned W = 0; W < Workers; ++W)
    Pool->submit([this] { workerLoop(); });
}

void OptimizationService::workerLoop() {
  while (std::optional<JobQueue::Popped> P = Queue.pop()) {
    // Defense in depth: the task lambda already contains every
    // exception (runJob's try spans the whole job body), but a throw
    // escaping here would kill the process via the ThreadPool contract
    // — so the worker loop itself never lets one through.
    try {
      P->Fn(P->Fate);
    } catch (const std::exception &E) {
      logWarn(std::string("OptimizationService: job task escaped: ") +
              E.what());
    } catch (...) {
      logWarn("OptimizationService: job task escaped");
    }
  }
}

Ticket OptimizationService::submit(
    const OptimizeRequest &R,
    std::function<void(const OptimizeResponse &)> OnComplete) {
  return admit(R, std::move(OnComplete), /*Blocking=*/true);
}

Ticket OptimizationService::trySubmit(
    const OptimizeRequest &R,
    std::function<void(const OptimizeResponse &)> OnComplete) {
  return admit(R, std::move(OnComplete), /*Blocking=*/false);
}

ResponsePtr OptimizationService::resolveLookup(const std::string &Key,
                                               cubin::CubinFile File,
                                               double WallMs) {
  auto Resp = std::make_shared<OptimizeResponse>();
  Resp->St = OptimizeResponse::Status::LookupHit;
  Resp->Key = Key;
  Resp->Binary = std::move(File);
  Resp->Persisted = true; // It came from the cache, so it is in it.
  Resp->WallMs = WallMs;
  return Resp;
}

std::optional<cubin::CubinFile>
OptimizationService::loadWithRetry(const std::string &Key) {
  if (!Deploy)
    return std::nullopt;
  for (unsigned Attempt = 1;; ++Attempt) {
    if (std::optional<cubin::CubinFile> File = Deploy->load(Key))
      return File;
    if (!Deploy->contains(Key))
      return std::nullopt; // Genuine miss: nothing to retry.
    // Present but unloadable: a corrupt read (or the injector's
    // cache-load-corrupt site). Back off and re-read.
    if (Attempt >= Config.Retry.MaxAttempts) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.RetryExhausted;
      return std::nullopt; // Give up on the lookup: re-optimize.
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.LoadRetries;
    }
    Clk->sleepFor(support::backoffDelay(Config.Retry, Attempt, Config.Seed,
                                        fnv1a64(Key)));
  }
}

void OptimizationService::resolveUnrun(const JobPtr &Job,
                                       OptimizeResponse::Status St,
                                       const std::string &Error) {
  OptimizeResponse Resp;
  Resp.St = St;
  Resp.Key = Job->Key;
  Resp.Error = Error;
  Resp.WallMs = elapsedMs(*Clk, Job->Admitted);
  finishJob(Job, std::move(Resp));
}

Ticket OptimizationService::admit(const OptimizeRequest &R,
                                  Callback OnComplete, bool Blocking) {
  const support::Clock::TimePoint Admitted = Clk->now();
  // Only a request that overrides the config pays for a digest.
  std::string Key =
      keyFor(R, R.Config ? configDigest(*R.Config) : DefaultsDigest);
  Ticket Tk;
  Tk.Key = Key;

  // Effective deadline: the request's own timeout, else the service
  // default, else none. (A negative timeout yields a deadline already
  // in the past; the queue sheds it on the first pop.)
  std::optional<support::Clock::TimePoint> Deadline;
  const std::chrono::milliseconds Timeout =
      R.Timeout.count() != 0 ? R.Timeout : Config.DefaultTimeout;
  if (Timeout.count() != 0)
    Deadline = Admitted + Timeout;

  // 1. Deploy-cache lookup (§4.2: "it invokes a lookup process instead
  //    of training"). The load runs before any lock is taken — slow
  //    filesystem I/O must never stall admissions or job completion —
  //    and a miss costs one failed open. An unloadable-but-present key
  //    (corrupt read) is retried under the service policy, then falls
  //    through to the optimize path instead of failing the request.
  std::optional<cubin::CubinFile> Deployed = loadWithRetry(Key);

  // Near-miss preload: on a miss, find and load the nearest deployed
  // sibling before taking the lock (same no-I/O-under-lock rule).
  std::optional<std::pair<std::string, cubin::CubinFile>> Near;
  if (!Deployed && Deploy && Config.EnableNearMiss && R.AllowDegraded) {
    std::string NearKey;
    {
      std::lock_guard<std::mutex> IdxLock(IndexMutex);
      if (const DeployedEntry *E =
              Index.nearest(R.GpuType, R.Kind, R.Shape, Key))
        NearKey = E->Key;
    }
    if (!NearKey.empty())
      if (std::optional<cubin::CubinFile> File = Deploy->load(NearKey))
        Near.emplace(std::move(NearKey), *std::move(File));
  }

  std::unique_lock<std::mutex> Lock(Mutex);
  if (!Accepting) {
    ++Counters.Rejected;
    Lock.unlock();
    Tk.Response = rejectedFuture(Key, "service is draining or shut down",
                                 elapsedMs(*Clk, Admitted));
    return Tk;
  }

  if (Deployed) {
    // The request stays Outstanding until its callback returned, so
    // drain() and shutdown() never outrun a hit callback either.
    ++Counters.Submitted;
    ++Counters.LookupHits;
    ++Outstanding;
    Lock.unlock();
    ResponsePtr Resp =
        resolveLookup(Key, *std::move(Deployed), elapsedMs(*Clk, Admitted));
    if (OnComplete)
      invokeGuarded(OnComplete, *Resp);
    {
      std::lock_guard<std::mutex> StatLock(Mutex);
      --Outstanding;
      Quiesced.notify_all();
    }
    Tk.How = Admission::LookupHit;
    Tk.Response = readyFuture(std::move(Resp));
    return Tk;
  }

  // 2. Single-flight attach: an identical key is already queued or
  //    running — share its job instead of re-optimizing. Attaching
  //    beats degrading: the exact answer is already on its way.
  auto It = InFlight.find(Key);
  if (It != InFlight.end()) {
    JobPtr Job = It->second;
    if (OnComplete)
      Job->Callbacks.push_back(std::move(OnComplete));
    ++Counters.Submitted;
    ++Counters.Merged;
    Tk.How = Admission::Attached;
    Tk.Response = Job->Future;
    return Tk;
  }

  // 3./4. A new job either way. A near-miss serves the nearest
  // deployed sibling to the submitter right now and runs the exact-
  // shape job in the background; otherwise the submitter waits on the
  // job itself.
  auto Job = std::make_shared<JobState>();
  Job->Request = R;
  Job->Key = Key;
  Job->Admitted = Admitted;
  Job->Background = Near.has_value();
  if (!Job->Background) {
    // A background upgrade carries no deadline: its submitter already
    // holds the degraded answer, so the upgrade should land no matter
    // how long it takes.
    Job->Deadline = Deadline;
    if (Deadline)
      Job->Cancel.setDeadline(*Clk, *Deadline);
  }
  Job->Future = Job->Promise.get_future().share();
  const bool HasOwnCallback =
      static_cast<bool>(OnComplete) && !Job->Background;
  if (HasOwnCallback)
    Job->Callbacks.push_back(OnComplete);
  InFlight.emplace(Key, Job);
  ++Outstanding;
  ++Counters.Submitted;
  ++Counters.Enqueued;
  ++Counters.QueuedNow;
  if (Job->Background) {
    ++Counters.DegradedHits;
    ++Outstanding; // Once more, for the degraded answer's window below.
  }
  Lock.unlock();

  // The push happens outside the service lock: a blocking push parks
  // this thread until a worker pops (backpressure), and holding the
  // lock there would deadlock the workers' finishJob().
  JobQueue::Task Task = [this, Job](TaskFate Fate) {
    switch (Fate) {
    case TaskFate::Run:
      runJob(Job);
      break;
    case TaskFate::Cancelled:
      resolveUnrun(Job, OptimizeResponse::Status::Cancelled,
                   "service shut down before the job ran");
      break;
    case TaskFate::Expired:
      resolveUnrun(Job, OptimizeResponse::Status::DeadlineExceeded,
                   "deadline expired before the job started");
      break;
    }
  };
  bool Pushed = Blocking ? Queue.push(Task, R.Priority, Job->Deadline)
                         : Queue.tryPush(Task, R.Priority, Job->Deadline);

  if (Job->Background) {
    if (!Pushed) {
      // Queue full or racing shutdown: the degraded answer still
      // serves (that is the whole point of degradation under
      // pressure); only the background upgrade is abandoned. Resolve
      // its future as Cancelled for any attacher that slipped in.
      OptimizeResponse Bg;
      Bg.St = OptimizeResponse::Status::Cancelled;
      Bg.Key = Key;
      Bg.Error =
          Blocking ? "service shut down during admission" : "queue full";
      Bg.WallMs = elapsedMs(*Clk, Admitted);
      std::vector<Callback> Cbs;
      {
        std::lock_guard<std::mutex> StatLock(Mutex);
        InFlight.erase(Key);
        Cbs = std::move(Job->Callbacks);
        --Counters.QueuedNow;
        --Counters.Enqueued;
      }
      publish(Job, std::make_shared<const OptimizeResponse>(std::move(Bg)),
              std::move(Cbs));
    }
    auto Resp = std::make_shared<OptimizeResponse>();
    Resp->St = OptimizeResponse::Status::Degraded;
    Resp->Key = Key;
    Resp->Binary = std::move(Near->second);
    Resp->DegradedFrom = std::move(Near->first);
    Resp->Persisted = false; // The exact key is not deployed (yet).
    Resp->WallMs = elapsedMs(*Clk, Admitted);
    ResponsePtr Shared = std::move(Resp);
    if (OnComplete)
      invokeGuarded(OnComplete, *Shared);
    {
      std::lock_guard<std::mutex> StatLock(Mutex);
      --Outstanding;
      Quiesced.notify_all();
    }
    Tk.How = Admission::NearMiss;
    Tk.Response = readyFuture(std::move(Shared));
    return Tk;
  }

  if (!Pushed) {
    // Queue full (trySubmit) or closed by a racing shutdown. The job
    // was visible for attaching for a moment, so resolve its future
    // as Cancelled for any attacher — but not for the submitter, who
    // learns the outcome from the Rejected ticket (a rejected
    // admission never fires the submitter's own callback).
    OptimizeResponse Resp;
    Resp.St = OptimizeResponse::Status::Cancelled;
    Resp.Error =
        Blocking ? "service shut down during admission" : "queue full";
    Resp.Key = Key;
    Resp.WallMs = elapsedMs(*Clk, Admitted);
    std::vector<Callback> Cbs;
    {
      std::lock_guard<std::mutex> StatLock(Mutex);
      InFlight.erase(Key);
      Cbs = std::move(Job->Callbacks);
      if (HasOwnCallback) // (A copy of OnComplete went in first.)
        Cbs.erase(Cbs.begin());
      --Counters.QueuedNow;
      --Counters.Submitted;
      --Counters.Enqueued;
      ++Counters.Rejected;
    }
    publish(Job, std::make_shared<const OptimizeResponse>(std::move(Resp)),
            std::move(Cbs));
    Tk.How = Admission::Rejected;
    Tk.Response = rejectedFuture(
        Key, Blocking ? "service shut down during admission" : "queue full",
        elapsedMs(*Clk, Admitted));
    return Tk;
  }
  Tk.How = Admission::Enqueued;
  Tk.Response = Job->Future;
  return Tk;
}

void OptimizationService::runJob(const JobPtr &Job) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    --Counters.QueuedNow;
    ++Counters.RunningNow;
    Job->Running = true;
  }

  const std::string &Key = Job->Key;
  support::FaultInjector *Faults = Config.Faults;
  OptimizeResponse Resp;
  Resp.Key = Key;
  // Claim bookkeeping spans the retry loop: a transient retry re-runs
  // the try body but must neither re-claim a key it already holds nor
  // re-count the optimize run.
  bool Claimed = false;
  bool RunCounted = false;
  // The whole job body — optimizer construction included — runs under
  // the try: anything a job throws becomes a Failed response on that
  // key only, never a dead worker (the ThreadPool submit() contract)
  // and never a stuck single-flight entry.
  for (unsigned Attempt = 1;; ++Attempt) {
    try {
      // Cross-process single-flight first: claim the key, or adopt
      // the winner another process deployed while we waited on its
      // claim — an adopted job is a lookup, not an optimize run.
      if (claimsActive() && !Claimed) {
        if (!acquireClaimOrAdopt(Job, Resp))
          break; // Resp is a LookupHit on the other process's cubin.
        Claimed = true;
      }
      if (!RunCounted) {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Counters.OptimizeRuns;
        RunCounted = true;
      }
      if (Faults) {
        // Injected slowness next: a planned delay models a job that
        // outlives its deadline — which the checkpoint right after
        // then trips, at any worker count, because the job's own
        // sleep is what moves the (fake) clock past its deadline.
        if (uint64_t Delay = Faults->delayMs("job-slow:" + Key))
          Clk->sleepFor(std::chrono::milliseconds(Delay));
      }
      Job->Cancel.checkpoint();
      if (Faults) {
        if (Faults->shouldFail("job-transient:" + Key))
          throw support::TransientError("injected transient job fault");
        if (Faults->shouldFail("job-throw:" + Key))
          throw std::runtime_error("injected job fault");
      }

      // The determinism contract: a private pristine device per job
      // and a data stream derived purely from (service seed, request
      // key) — the response never depends on which worker ran the
      // job, what ran before it, or how many workers exist. Warm
      // starts add the policy-store contents at job start to that
      // function (see ServiceConfig::PolicyDir).
      const core::OptimizeConfig &EffConfig =
          Job->Request.Config ? *Job->Request.Config : Config.Defaults;
      const core::Optimizer Opt(EffConfig);
      gpusim::Gpu Local(Prototype);
      Rng DataRng(mixSeed(Config.Seed, fnv1a64(Key)));

      // Warm start: the stored policy for this exact key (e.g. the
      // cubin store failed last time, or the key was trained under
      // PersistPolicies on another instance), else the nearest trained
      // shape of the same (GpuType, kind).
      std::optional<std::string> WarmBlob;
      std::string WarmKey;
      if (Policies) {
        if ((WarmBlob = Policies->load(Key)))
          WarmKey = Key;
        else
          WarmBlob = Policies->nearest(Job->Request.GpuType,
                                       Job->Request.Kind,
                                       Job->Request.Shape, Key, &WarmKey);
      }

      core::OptimizeResult Result = Opt.optimize(
          Local, Job->Request.Kind, Job->Request.Shape, DataRng,
          &Job->Cancel, WarmBlob ? &*WarmBlob : nullptr,
          Job->Request.GpuType);
      Resp.St = OptimizeResponse::Status::Optimized;
      Resp.Result = std::move(Result);
      Resp.Binary = Resp.Result.Kernel.Binary;
      if (Resp.Result.WarmStartTensors > 0)
        Resp.WarmStartedFrom = std::move(WarmKey);
      break;
    } catch (const support::CancelledError &) {
      Resp.St = OptimizeResponse::Status::DeadlineExceeded;
      Resp.Error = "deadline exceeded (cancelled at a checkpoint)";
      break;
    } catch (const support::TransientError &E) {
      if (Attempt >= Config.Retry.MaxAttempts) {
        {
          std::lock_guard<std::mutex> Lock(Mutex);
          ++Counters.RetryExhausted;
        }
        Resp.St = OptimizeResponse::Status::Failed;
        Resp.Error =
            std::string("transient failure, retries exhausted: ") + E.what();
        break;
      }
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Counters.JobRetries;
      }
      Clk->sleepFor(support::backoffDelay(Config.Retry, Attempt,
                                          Config.Seed, fnv1a64(Key)));
    } catch (const std::exception &E) {
      Resp.St = OptimizeResponse::Status::Failed;
      Resp.Error = E.what();
      break;
    } catch (...) {
      Resp.St = OptimizeResponse::Status::Failed;
      Resp.Error = "unknown exception";
      break;
    }
  }

  // §4.2 write-back: only a verified winner is deployable. Store
  // failures retry under the service policy; a final failure is
  // surfaced (Persisted stays false, stats count it) — never silently
  // dropped.
  if (Resp.St == OptimizeResponse::Status::Optimized && Deploy &&
      Resp.Result.AutotuneValid && Resp.Result.Verified) {
    for (unsigned Attempt = 1;; ++Attempt) {
      if (Deploy->store(Key, Resp.Binary)) {
        Resp.Persisted = true;
        break;
      }
      if (Attempt >= Config.Retry.MaxAttempts) {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Counters.RetryExhausted;
        break;
      }
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Counters.StoreRetries;
      }
      Clk->sleepFor(support::backoffDelay(Config.Retry, Attempt,
                                          Config.Seed, fnv1a64(Key)));
    }
    if (Resp.Persisted) {
      // Publish the shape sidecar so this key can serve future
      // near-miss lookups (and survive a service restart).
      DeployedEntry Entry;
      Entry.GpuType = Job->Request.GpuType;
      Entry.Kind = Job->Request.Kind;
      Entry.Shape = Job->Request.Shape;
      Entry.Key = Key;
      Deploy->storeMeta(Key, encodeDeployMeta(Entry));
      std::lock_guard<std::mutex> IdxLock(IndexMutex);
      Index.add(std::move(Entry));
    } else {
      logWarn("OptimizationService: failed to persist winner for key '" +
              Key + "'");
    }
  }

  // Policy write-back: every successfully trained policy is a future
  // warm-start source — even when the schedule failed verification
  // (the policy's quality is independent of one schedule's
  // probabilistic test).
  if (Resp.St == OptimizeResponse::Status::Optimized && Policies &&
      Config.PersistPolicies && Resp.Result.AutotuneValid &&
      !Resp.Result.PolicyBlob.empty()) {
    DeployedEntry Entry;
    Entry.GpuType = Job->Request.GpuType;
    Entry.Kind = Job->Request.Kind;
    Entry.Shape = Job->Request.Shape;
    Entry.Key = Key;
    const bool Stored = Policies->store(Key, Resp.Result.PolicyBlob, Entry);
    if (!Stored)
      logWarn("OptimizationService: failed to persist policy for key '" +
              Key + "'");
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stored)
      ++Counters.PolicyStores;
    else
      ++Counters.PolicyStoreFailures;
  }

  if (Resp.St == OptimizeResponse::Status::Optimized &&
      Resp.Result.WarmStartTensors > 0) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.WarmStarts;
    Counters.WarmStartTensors += Resp.Result.WarmStartTensors;
  }

  // The claim releases only after the persist attempt: a waiter that
  // sees it clear must find either the deployed cubin (adopt) or no
  // claim at all (re-claim and optimize itself).
  if (Claimed)
    releaseClaim(claimPathFor(Key));

  Resp.WallMs = elapsedMs(*Clk, Job->Admitted);
  finishJob(Job, std::move(Resp));
}

std::string
OptimizationService::claimPathFor(const std::string &Key) const {
  return Config.DeployDir + "/.claims/" + Key + ".lock";
}

bool OptimizationService::acquireClaimOrAdopt(const JobPtr &Job,
                                              OptimizeResponse &Resp) {
  const std::string Path = claimPathFor(Job->Key);
  bool WaitCounted = false;
  while (true) {
    // The winner may have deployed the key between this job's
    // admission-time lookup and now (or while we polled its claim):
    // adopt its cubin instead of re-optimizing.
    if (Deploy->contains(Job->Key)) {
      if (std::optional<cubin::CubinFile> File = loadWithRetry(Job->Key)) {
        Resp.St = OptimizeResponse::Status::LookupHit;
        Resp.Binary = *std::move(File);
        Resp.Persisted = true;
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Counters.ClaimHits;
        return false;
      }
    }
    if (support::FileLock::tryClaim(Path, ClaimToken)) {
      std::lock_guard<std::mutex> Lock(ClaimMutex);
      HeldClaims.push_back(Path);
      return true;
    }
    // Somebody else owns the claim. Break it when its heartbeat went
    // stale (crashed owner), otherwise wait our turn.
    if (support::FileLock::breakStale(Path, Config.ClaimStaleAfter)) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.ClaimBreaks;
      continue;
    }
    if (!WaitCounted) {
      WaitCounted = true;
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.ClaimWaits;
    }
    // Deadline expiry while parked on another process's claim surfaces
    // here as CancelledError — runJob's catch turns it into a
    // DeadlineExceeded response exactly like a mid-job expiry.
    Job->Cancel.checkpoint();
    Clk->sleepFor(Config.ClaimPollInterval);
  }
}

void OptimizationService::releaseClaim(const std::string &Path) {
  {
    std::lock_guard<std::mutex> Lock(ClaimMutex);
    HeldClaims.erase(std::remove(HeldClaims.begin(), HeldClaims.end(), Path),
                     HeldClaims.end());
  }
  support::FileLock::release(Path, ClaimToken);
}

void OptimizationService::heartbeatLoop() {
  std::chrono::milliseconds Interval = Config.ClaimHeartbeat.count() > 0
                                           ? Config.ClaimHeartbeat
                                           : Config.ClaimStaleAfter / 4;
  if (Interval.count() <= 0)
    Interval = std::chrono::milliseconds(1);
  std::unique_lock<std::mutex> Lock(ClaimMutex);
  while (!StopHeartbeat) {
    ClaimCv.wait_for(Lock, Interval, [this] { return StopHeartbeat; });
    if (StopHeartbeat)
      return;
    std::vector<std::string> Held = HeldClaims;
    Lock.unlock();
    for (const std::string &Path : Held)
      support::FileLock::refresh(Path, ClaimToken);
    Lock.lock();
  }
}

void OptimizationService::publish(const JobPtr &Job, ResponsePtr Resp,
                                  std::vector<Callback> Cbs) {
  // Future first (waiters see the result before callbacks run), then
  // the callbacks — both outside the lock so neither can deadlock the
  // service. Only then does the job stop being Outstanding: drain()
  // and shutdown() must never return while a callback is in flight.
  Job->Promise.set_value(Resp);
  for (Callback &Cb : Cbs)
    invokeGuarded(Cb, *Resp);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    --Outstanding;
    Quiesced.notify_all();
  }
}

void OptimizationService::finishJob(const JobPtr &Job, OptimizeResponse R) {
  auto Resp = std::make_shared<const OptimizeResponse>(std::move(R));
  std::vector<Callback> Cbs;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    InFlight.erase(Job->Key);
    Cbs = std::move(Job->Callbacks);
    if (Job->Running)
      --Counters.RunningNow;
    else
      --Counters.QueuedNow;
    Counters.TotalJobWallMs += Resp->WallMs;
    switch (Resp->St) {
    case OptimizeResponse::Status::Optimized:
      ++Counters.Completed;
      Counters.TrainingUpdates += Resp->Result.Training.size();
      Counters.Counters += Resp->Result.RolloutCounters;
      if (Resp->Persisted) {
        ++Counters.PersistStores;
        if (Job->Background)
          ++Counters.NearMissUpgrades; // The degraded key is now exact.
      } else if (Deploy && Resp->Result.AutotuneValid &&
                 Resp->Result.Verified) {
        ++Counters.PersistFailures; // Attempted and dropped.
      }
      break;
    case OptimizeResponse::Status::Failed:
      ++Counters.Failed;
      break;
    case OptimizeResponse::Status::Cancelled:
      ++Counters.Cancelled;
      break;
    case OptimizeResponse::Status::DeadlineExceeded:
      ++Counters.DeadlineExceeded;
      // Job->Running distinguishes shed-in-queue from cancelled-at-a-
      // checkpoint; their SUM is worker-count invariant (which side of
      // the split a given expiry lands on depends on pop timing).
      if (Job->Running)
        ++Counters.ExpiredMidJob;
      else
        ++Counters.ExpiredInQueue;
      break;
    case OptimizeResponse::Status::LookupHit:
      // Reached only via cross-process claim adoption (accounted in
      // ClaimHits); front-door hits resolve inside admit().
      break;
    case OptimizeResponse::Status::Degraded:
      break; // Immediate admissions never reach finishJob.
    case OptimizeResponse::Status::Rejected:
      break; // Rejections resolve inside admit(); never a job.
    }
  }
  publish(Job, std::move(Resp), std::move(Cbs));
}

void OptimizationService::drain() {
  start(); // A paused service would never quiesce.
  std::unique_lock<std::mutex> Lock(Mutex);
  if (ShutDown)
    return;
  Accepting = false;
  Quiesced.wait(Lock,
                [this] { return InFlight.empty() && Outstanding == 0; });
  if (!ShutDown) // A shutdown() racing the wait wins: stay closed.
    Accepting = true;
}

void OptimizationService::shutdown() {
  // Serialized: a second concurrent shutdown() (or the destructor
  // after an explicit one) blocks until the first completes, then
  // runs through the already-quiesced state as a no-op.
  std::lock_guard<std::mutex> ShutdownLock(ShutdownMutex);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Accepting = false;
    ShutDown = true;
  }
  // Close the queue: workers wake, drain nothing further, and exit;
  // never-started jobs come back for explicit cancellation so every
  // outstanding future resolves.
  std::vector<JobQueue::Task> Unstarted = Queue.close();
  for (JobQueue::Task &Task : Unstarted)
    Task(TaskFate::Cancelled);
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Quiesced.wait(Lock,
                  [this] { return InFlight.empty() && Outstanding == 0; });
  }
  Pool.reset(); // Joins the (now exiting) worker loops.
  if (Heartbeat.joinable()) {
    // After the pool joined no job holds a claim; stop the heartbeat.
    {
      std::lock_guard<std::mutex> Lock(ClaimMutex);
      StopHeartbeat = true;
    }
    ClaimCv.notify_all();
    Heartbeat.join();
  }
}

bool OptimizationService::accepting() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Accepting;
}

ServiceStats OptimizationService::stats() const {
  // The directory enumeration happens before taking the service lock:
  // a slow filesystem must not stall admissions or job completion.
  uint64_t Deployed = Deploy ? Deploy->keys().size() : 0;
  uint64_t Fired = Config.Faults ? Config.Faults->totalFired() : 0;
  std::lock_guard<std::mutex> Lock(Mutex);
  ServiceStats Snapshot = Counters;
  Snapshot.DeployedKeys = Deployed;
  Snapshot.FaultsInjected = Fired;
  return Snapshot;
}
