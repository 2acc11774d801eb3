//===- serve/OptimizationService.h - Concurrent optimization server (§4.2) ---===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §4.2 deployment workflow as a server: "offline search, online
/// lookup". An OptimizationService accepts OptimizeRequests — (GPU
/// type, workload kind, shape, optional OptimizeConfig overrides,
/// priority) — and resolves each one through the front door in order:
///
///   1. Lookup hit: the request key is already in the DeployCache →
///      the stored cubin is returned immediately, zero training.
///   2. Attach: an identical key is already queued or running → the
///      request joins that job (single-flight, as MeasurementCache
///      runs one simulation per schedule) and shares its response.
///   3. Near miss (optional): the key misses but another shape of the
///      same (GpuType, kind) is deployed → the nearest one is served
///      immediately as Status::Degraded while the exact-shape job runs
///      in the background and upgrades the cache.
///   4. Enqueue: a full hierarchical Optimizer::optimize() job enters
///      the bounded priority queue; a worker drives it and the
///      verified winner is persisted back through the DeployCache so
///      every later request for the key is a lookup.
///
/// Failure handling (the hardening contract): each request may carry a
/// deadline — expired-in-queue entries are shed without running,
/// mid-job expiry trips a CancelToken the Optimizer polls at
/// cooperative checkpoints (per autotune candidate, per rollout slot,
/// per PPO epoch), both resolving as Status::DeadlineExceeded.
/// Transient cache-store/load failures and TransientError jobs are
/// retried under ServiceConfig::Retry with seeded-jittered exponential
/// backoff. A job that throws resolves that key's response (submitter
/// AND attached waiters) as Status::Failed — never a dead worker,
/// never a stuck single-flight key. Every such event lands in a
/// ServiceStats counter.
///
/// Determinism contract: a request's response payload is a pure
/// function of (prototype device, ServiceConfig::Seed, request key).
/// Every job runs on a private copy of the prototype Gpu with a data
/// Rng derived from (Seed, key), so responses are bit-identical for
/// any worker count — the same contract the rollout engine and the
/// autotune sweep engine honor. Worker count and priorities change
/// wall-clock and completion order only.
///
/// Thread-safety contract: every public member may be called
/// concurrently from any number of threads. submit() blocks while the
/// queue is at ServiceConfig::MaxQueued (backpressure); trySubmit()
/// rejects instead. Completion callbacks run on the worker thread
/// that finished the job (on the submitting thread for immediate
/// lookup hits, and on the thread driving shutdown() for cancelled
/// jobs); they must not call back into the service except stats(),
/// and should not throw — an escaping exception is contained and
/// logged, never re-thrown.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_SERVE_OPTIMIZATIONSERVICE_H
#define CUASMRL_SERVE_OPTIMIZATIONSERVICE_H

#include "core/Optimizer.h"
#include "serve/DeployIndex.h"
#include "serve/JobQueue.h"
#include "serve/PolicyStore.h"
#include "support/Cancellation.h"
#include "support/Clock.h"
#include "support/FaultInjector.h"
#include "support/Retry.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

namespace cuasmrl {
namespace serve {

/// One optimization request (the service's unit of admission).
struct OptimizeRequest {
  kernels::WorkloadKind Kind = kernels::WorkloadKind::Softmax;
  kernels::WorkloadShape Shape;
  /// The paper keys deployed cubins by GPU type first (§4.2).
  std::string GpuType = "A100-SIM";
  /// Overrides for this request; nullopt = ServiceConfig::Defaults.
  /// Every result-relevant field participates in the request key, so
  /// two requests with different effective configs never share a job
  /// or a deployed cubin (wall-clock-only knobs — RolloutWorkers,
  /// AutotuneWorkers — are excluded from the key by design).
  std::optional<core::OptimizeConfig> Config;
  /// Higher pops first; FIFO within one priority. An attaching
  /// duplicate inherits the original job's priority.
  int Priority = 0;
  /// Per-request deadline measured from admission; 0 = none (then
  /// ServiceConfig::DefaultTimeout applies). A request whose deadline
  /// passes resolves as Status::DeadlineExceeded: shed from the queue
  /// if it never started, cancelled at the next cooperative checkpoint
  /// if mid-job.
  std::chrono::milliseconds Timeout{0};
  /// Opt-out of near-miss degradation for this request: when false, a
  /// cache miss always waits for the exact-shape job.
  bool AllowDegraded = true;
};

/// Everything a resolved request carries.
struct OptimizeResponse {
  enum class Status {
    Optimized, ///< A full optimize job ran; Result is populated.
    LookupHit, ///< Served from the DeployCache; zero training.
    Degraded,  ///< Cache miss served from the nearest deployed shape
               ///< (same GpuType and kind) while the exact-shape job
               ///< upgrades the cache in the background.
    Cancelled, ///< Shut down (or queue closed) before the job ran.
    DeadlineExceeded, ///< Deadline passed: shed in queue or cancelled
                      ///< at a cooperative checkpoint mid-job.
    Failed,    ///< The job threw (or exhausted its retries); see Error.
    Rejected,  ///< Never admitted: the service was draining/shut down,
               ///< or the queue was full (trySubmit); see Error. The
               ///< ticket's future is already resolved with this
               ///< response, so a caller that .get()s it never blocks.
  };
  Status St = Status::Failed;
  std::string Key; ///< The deploy-cache key the request resolved to.
  /// The winner binary: the deployed cubin on a lookup hit, the
  /// optimized (substituted) binary after a successful job — or, on a
  /// Degraded response, the nearest deployed cubin (see DegradedFrom).
  cubin::CubinFile Binary;
  /// Full optimize() output (Status::Optimized only).
  core::OptimizeResult Result;
  /// True when this job's verified winner reached the DeployCache.
  bool Persisted = false;
  /// Status::Degraded only: the deploy-cache key actually served.
  std::string DegradedFrom;
  /// Status::Optimized only: the policy-store key training warm-
  /// started from (empty = cold start; Result.WarmStartTensors counts
  /// the transferred tensors).
  std::string WarmStartedFrom;
  std::string Error;
  double WallMs = 0.0; ///< Admission-to-resolution wall time.
};

using ResponsePtr = std::shared_ptr<const OptimizeResponse>;

/// How the front door resolved an admission (the §4.2 three-way split).
enum class Admission {
  LookupHit, ///< Resolved immediately from the DeployCache.
  Attached,  ///< Joined an in-flight job for the same key.
  Enqueued,  ///< A new optimize job entered the queue.
  NearMiss,  ///< Served degraded from the nearest deployed shape; the
             ///< exact-shape job was enqueued in the background.
  Rejected,  ///< Queue full (trySubmit) or service no longer accepting.
};

/// Handle returned per request.
struct Ticket {
  Admission How = Admission::Rejected;
  std::string Key;
  /// Resolves when the request does. A Rejected ticket's future is
  /// already resolved with a Status::Rejected response whose Error
  /// says why (draining vs. queue full) — waiting on it returns
  /// immediately instead of blocking forever.
  std::shared_future<ResponsePtr> Response;
  bool valid() const { return How != Admission::Rejected; }
};

/// Aggregate service counters (one consistent snapshot).
struct ServiceStats {
  uint64_t Submitted = 0;   ///< Admitted requests (hits + merges + jobs).
  uint64_t Rejected = 0;    ///< Backpressure / not-accepting rejections.
  uint64_t LookupHits = 0;  ///< Requests served straight from the cache.
  uint64_t Merged = 0;      ///< Single-flight attaches to in-flight jobs.
  uint64_t Enqueued = 0;    ///< New optimize jobs admitted.
  uint64_t QueuedNow = 0;   ///< Jobs admitted but not yet started.
  uint64_t RunningNow = 0;  ///< Jobs currently on a worker.
  uint64_t Completed = 0;   ///< Optimize jobs finished successfully.
  uint64_t Failed = 0;      ///< Optimize jobs that threw.
  uint64_t Cancelled = 0;   ///< Jobs cancelled by shutdown().
  uint64_t OptimizeRuns = 0;    ///< Optimizer::optimize() invocations.
  uint64_t TrainingUpdates = 0; ///< PPO updates across all jobs.
  uint64_t PersistStores = 0;   ///< Winners persisted to the cache.
  uint64_t PersistFailures = 0; ///< DeployCache::store() failures.
  uint64_t DeadlineExceeded = 0; ///< Requests resolved past deadline.
  uint64_t ExpiredInQueue = 0;   ///< ...of which shed before starting.
  uint64_t ExpiredMidJob = 0;    ///< ...of which cancelled mid-job.
  uint64_t DegradedHits = 0;     ///< Near-miss responses served.
  uint64_t NearMissUpgrades = 0; ///< Background jobs that upgraded a
                                 ///< degraded key to an exact deploy.
  uint64_t WarmStarts = 0;       ///< Jobs that transferred >= 1 tensor
                                 ///< from a stored policy.
  uint64_t WarmStartTensors = 0; ///< ...tensors transferred in total.
  uint64_t PolicyStores = 0;     ///< Trained policies persisted.
  uint64_t PolicyStoreFailures = 0; ///< PolicyStore::store() failures.
  uint64_t ClaimWaits = 0;  ///< Jobs that found another process's
                            ///< claim on their key and waited.
  uint64_t ClaimHits = 0;   ///< ...of which were then served from the
                            ///< cubin that process deployed.
  uint64_t ClaimBreaks = 0; ///< Stale (abandoned) claims broken.
  uint64_t JobRetries = 0;       ///< Transient job errors retried.
  uint64_t StoreRetries = 0;     ///< DeployCache::store retries.
  uint64_t LoadRetries = 0;      ///< DeployCache::load retries.
  uint64_t RetryExhausted = 0;   ///< Retry loops that ran out of
                                 ///< attempts (job, store, or load).
  uint64_t FaultsInjected = 0;   ///< FaultInjector faults fired (0
                                 ///< without an injector).
  double TotalJobWallMs = 0.0;  ///< Summed per-job wall time.
  /// Rollout counter aggregate summed over all jobs: measurement-cache
  /// accounting plus the per-stage simulator counters (warp select /
  /// fetch / execute / writeback) of every reward measurement.
  gpusim::PerfCounters Counters;
  /// Keys currently deployed (DeployCache enumeration; 0 without one).
  uint64_t DeployedKeys = 0;
};

/// Enumerates every scalar ServiceStats field as (name, reference) —
/// uint64 counters plus the double wall-time accumulator; the nested
/// PerfCounters aggregate is deliberately excluded (walk it with
/// gpusim::visitCounters). The stats subsystem's serializer and
/// parser both use this list, so a field added here round-trips
/// automatically.
template <typename S, typename Fn> void visitServiceCounters(S &Stats,
                                                             Fn &&F) {
  F("Submitted", Stats.Submitted);
  F("Rejected", Stats.Rejected);
  F("LookupHits", Stats.LookupHits);
  F("Merged", Stats.Merged);
  F("Enqueued", Stats.Enqueued);
  F("QueuedNow", Stats.QueuedNow);
  F("RunningNow", Stats.RunningNow);
  F("Completed", Stats.Completed);
  F("Failed", Stats.Failed);
  F("Cancelled", Stats.Cancelled);
  F("OptimizeRuns", Stats.OptimizeRuns);
  F("TrainingUpdates", Stats.TrainingUpdates);
  F("PersistStores", Stats.PersistStores);
  F("PersistFailures", Stats.PersistFailures);
  F("DeadlineExceeded", Stats.DeadlineExceeded);
  F("ExpiredInQueue", Stats.ExpiredInQueue);
  F("ExpiredMidJob", Stats.ExpiredMidJob);
  F("DegradedHits", Stats.DegradedHits);
  F("NearMissUpgrades", Stats.NearMissUpgrades);
  F("WarmStarts", Stats.WarmStarts);
  F("WarmStartTensors", Stats.WarmStartTensors);
  F("PolicyStores", Stats.PolicyStores);
  F("PolicyStoreFailures", Stats.PolicyStoreFailures);
  F("ClaimWaits", Stats.ClaimWaits);
  F("ClaimHits", Stats.ClaimHits);
  F("ClaimBreaks", Stats.ClaimBreaks);
  F("JobRetries", Stats.JobRetries);
  F("StoreRetries", Stats.StoreRetries);
  F("LoadRetries", Stats.LoadRetries);
  F("RetryExhausted", Stats.RetryExhausted);
  F("FaultsInjected", Stats.FaultsInjected);
  F("TotalJobWallMs", Stats.TotalJobWallMs);
  F("DeployedKeys", Stats.DeployedKeys);
}

/// Service configuration.
struct ServiceConfig {
  /// Optimizer workers; 0 = hardware concurrency. A wall-clock knob
  /// only: responses are bit-identical for every value.
  unsigned Workers = 1;
  /// Queue bound for backpressure; 0 = unbounded.
  size_t MaxQueued = 0;
  /// Root of every per-job data-Rng stream (see the determinism
  /// contract in the file comment).
  uint64_t Seed = 7;
  /// Deploy-cache directory; empty disables lookup and persistence
  /// (every admission becomes attach-or-enqueue).
  std::string DeployDir;
  /// Effective config for requests that carry no override.
  core::OptimizeConfig Defaults;
  /// When true, admitted jobs wait until start() — batch admission
  /// with deterministic priority ordering (and the hook the tests and
  /// benches use to fix the admission pattern before any job runs).
  bool StartPaused = false;
  /// Time source for deadlines, backoff sleeps, and wall-time stats;
  /// null = support::Clock::real(). Tests inject a FakeClock so
  /// deadline and retry behavior is instant and bit-deterministic.
  support::Clock *ClockSrc = nullptr;
  /// Deterministic fault injector wired behind the service and its
  /// DeployCache; null disables every site. Not owned; must outlive
  /// the service.
  support::FaultInjector *Faults = nullptr;
  /// Backoff policy shared by the store/load/transient-job retry loops.
  support::RetryPolicy Retry;
  /// Deadline applied to requests whose Timeout is 0; 0 = none.
  std::chrono::milliseconds DefaultTimeout{0};
  /// Master switch for near-miss degradation (per-request opt-out via
  /// OptimizeRequest::AllowDegraded).
  bool EnableNearMiss = true;
  /// Policy-checkpoint directory; empty disables warm starts entirely.
  /// When set, a cache-miss job initializes training from the stored
  /// policy nearest its shape (same GpuType and kind; its own key's
  /// policy wins when present) instead of a fresh orthogonal init.
  ///
  /// Determinism caveat: warm starts make a job's response a pure
  /// function of (prototype device, Seed, request key, POLICY-STORE
  /// CONTENTS AT JOB START). With a fixed store (PersistPolicies =
  /// false, or no two jobs of the same kind in flight) responses stay
  /// bit-identical for any worker count; with concurrent same-kind
  /// jobs persisting policies, completion order feeds later jobs
  /// different (better-trained) starting points by design.
  std::string PolicyDir;
  /// Persist each successful job's trained policy back to PolicyDir
  /// so later near-shape jobs warm-start from it. Turn off to serve
  /// from a fixed pre-trained shelf (bit-deterministic responses).
  bool PersistPolicies = true;
  /// Queue-aging knobs (see JobQueue::Options): every AgingInterval of
  /// wait raises a queued job's effective priority by AgingStep, so
  /// low-priority work cannot starve behind a hot key. 0 disables.
  std::chrono::milliseconds AgingInterval{0};
  int AgingStep = 1;
  /// Cross-process single-flight over a shared DeployDir: before
  /// running a cache-miss job, the worker claims
  /// `<DeployDir>/.claims/<key>.lock` (support::FileLock). Losing the
  /// race means another process is already optimizing the key; the
  /// worker waits for that claim to clear and serves the winner's
  /// deployed cubin instead of duplicating the job. Requires a
  /// DeployDir; off by default (in-process single-flight needs no
  /// files). Claim heartbeats are wall-clock file mtimes, so staleness
  /// runs on real time even under a FakeClock (see FileLock.h).
  bool CrossProcessClaims = false;
  /// A claim whose heartbeat is older than this is presumed abandoned
  /// (crashed owner) and broken by the next waiter.
  std::chrono::milliseconds ClaimStaleAfter{10000};
  /// Waiter poll cadence while another process holds a claim.
  std::chrono::milliseconds ClaimPollInterval{20};
  /// Heartbeat cadence for claims this service holds; 0 derives
  /// ClaimStaleAfter / 4.
  std::chrono::milliseconds ClaimHeartbeat{0};
};

/// The optimization server.
class OptimizationService {
public:
  explicit OptimizationService(const gpusim::Gpu &Prototype,
                               ServiceConfig Config);
  /// Equivalent to shutdown().
  ~OptimizationService();

  OptimizationService(const OptimizationService &) = delete;
  OptimizationService &operator=(const OptimizationService &) = delete;

  /// Admits \p R, blocking while the queue is full. \p OnComplete
  /// (optional) fires exactly once with the response for every
  /// admitted request, and never for a Rejected ticket (the rejection
  /// IS the outcome). \returns a Rejected ticket only when the
  /// service is draining or shut down.
  Ticket submit(const OptimizeRequest &R,
                std::function<void(const OptimizeResponse &)> OnComplete =
                    nullptr);

  /// Non-blocking admission: a full queue yields Admission::Rejected
  /// instead of waiting (lookup hits and attaches never consume queue
  /// space, so they always succeed while the service accepts work).
  Ticket trySubmit(const OptimizeRequest &R,
                   std::function<void(const OptimizeResponse &)> OnComplete =
                       nullptr);

  /// Releases the workers of a StartPaused service. Idempotent; a
  /// service constructed with StartPaused = false is already started.
  void start();

  /// Stops admission, waits until every admitted job resolved, then
  /// accepts again. (A paused service is started first — drain would
  /// otherwise never terminate.)
  void drain();

  /// Stops admission permanently: queued-but-unstarted jobs resolve
  /// as Status::Cancelled, running jobs finish, workers exit.
  /// Idempotent.
  void shutdown();

  /// One consistent counter snapshot.
  ServiceStats stats() const;

  /// Whether admissions are currently accepted (false while draining
  /// or after shutdown). Advisory — a submit can still race a drain —
  /// but lets front doors (net::Server) distinguish "service closing"
  /// from "queue full" when mapping a Rejected ticket to a status.
  bool accepting() const;

  /// The deploy-cache key \p R resolves to under \p Defaults — pure;
  /// exposed so offline producers (e.g. Optimizer::autotuneAll-style
  /// pre-population) can target the exact key the service will look
  /// up.
  static std::string requestKey(const OptimizeRequest &R,
                                const core::OptimizeConfig &Defaults);

  unsigned workerCount() const { return Workers; }

private:
  using Callback = std::function<void(const OptimizeResponse &)>;

  struct JobState {
    OptimizeRequest Request;
    std::string Key;
    support::Clock::TimePoint Admitted;
    /// Absolute deadline (from Timeout or DefaultTimeout); nullopt =
    /// none. Mirrored into Cancel and the queue entry.
    std::optional<support::Clock::TimePoint> Deadline;
    /// Cooperative cancellation handle threaded through the Optimizer;
    /// armed (deadline set) before the job is shared with the queue.
    support::CancelToken Cancel;
    /// True for the exact-shape job behind a near-miss response: its
    /// submitter was already answered (Status::Degraded), so it owns
    /// no submitter callback — but later attachers may add theirs.
    bool Background = false;
    std::promise<ResponsePtr> Promise;
    std::shared_future<ResponsePtr> Future;
    std::vector<Callback> Callbacks;
    bool Running = false; ///< Guarded by the service mutex.
  };
  using JobPtr = std::shared_ptr<JobState>;

  Ticket admit(const OptimizeRequest &R, Callback OnComplete,
               bool Blocking);
  void workerLoop();
  void runJob(const JobPtr &Job);
  /// Resolves \p Job without running it (queue shed / shutdown):
  /// builds a response of \p St and routes it through finishJob.
  void resolveUnrun(const JobPtr &Job, OptimizeResponse::Status St,
                    const std::string &Error);
  /// Exact-key load with corrupt-retry: backs off and re-reads while
  /// load() fails but the key is present (deserialize failure — the
  /// injector's cache-load-corrupt site). nullopt = genuine miss or
  /// retries exhausted.
  std::optional<cubin::CubinFile> loadWithRetry(const std::string &Key);
  /// Publishes \p R as \p Job's response: fulfills the future, fires
  /// the callbacks, erases the in-flight entry, updates counters.
  void finishJob(const JobPtr &Job, OptimizeResponse R);
  /// The single copy of the resolution ordering invariant: future
  /// first, then callbacks, both outside the lock; the job stops
  /// being Outstanding only after the last callback returned.
  void publish(const JobPtr &Job, ResponsePtr Resp,
               std::vector<Callback> Cbs);
  /// \p File by value: the hit path moves the freshly loaded cubin
  /// straight into the response (no second deep copy).
  ResponsePtr resolveLookup(const std::string &Key, cubin::CubinFile File,
                            double WallMs);

  /// Cross-process claims (ServiceConfig::CrossProcessClaims).
  bool claimsActive() const {
    return Config.CrossProcessClaims && Deploy != nullptr;
  }
  std::string claimPathFor(const std::string &Key) const;
  /// Claims \p Job's key for this process, or adopts the winner: when
  /// another process holds the claim, polls until either the key
  /// appears in the DeployCache (\p Resp becomes a LookupHit; returns
  /// false) or the claim clears (re-tries the claim; stale claims are
  /// broken). \returns true once this process owns the claim. Runs
  /// inside runJob's try: deadline expiry surfaces as CancelledError.
  bool acquireClaimOrAdopt(const JobPtr &Job, OptimizeResponse &Resp);
  void releaseClaim(const std::string &Path);
  void heartbeatLoop();

  ServiceConfig Config;
  /// configDigest(Config.Defaults), taken once: the key of every
  /// request without its own Config is built from it.
  const std::string DefaultsDigest;
  gpusim::Gpu Prototype; ///< Pristine device every job copies.
  std::unique_ptr<triton::DeployCache> Deploy; ///< Null when disabled.
  std::unique_ptr<PolicyStore> Policies;       ///< Null when disabled.
  unsigned Workers;
  support::Clock *Clk; ///< Declared before Queue: its Options use it.

  JobQueue Queue;
  std::unique_ptr<support::ThreadPool> Pool;

  /// Near-miss index over the DeployCache's meta sidecars; guarded by
  /// its own mutex so degraded lookups never contend with the main
  /// admission lock.
  mutable std::mutex IndexMutex;
  DeployIndex Index;

  mutable std::mutex Mutex;
  std::mutex ShutdownMutex; ///< Serializes concurrent shutdown() calls.
  std::condition_variable Quiesced; ///< Signals drain()/shutdown().
  std::unordered_map<std::string, JobPtr> InFlight;
  /// Jobs admitted whose futures/callbacks have not yet fully
  /// resolved. InFlight empties when a job's result is decided;
  /// Outstanding only drops once its waiters were notified — drain()
  /// and shutdown() wait on the latter so no callback can outlive
  /// them.
  uint64_t Outstanding = 0;
  bool Accepting = true;
  bool Started = false;
  bool ShutDown = false;
  ServiceStats Counters; ///< Guarded by Mutex (QueuedNow/RunningNow live).

  /// Cross-process claim state. Held claims are refreshed (mtime
  /// heartbeat) by a dedicated thread on real wall time — file mtimes
  /// are wall-clock, so heartbeats must not route through a FakeClock.
  std::string ClaimToken;
  std::mutex ClaimMutex;
  std::condition_variable ClaimCv;
  std::vector<std::string> HeldClaims; ///< Guarded by ClaimMutex.
  bool StopHeartbeat = false;          ///< Guarded by ClaimMutex.
  std::thread Heartbeat;
};

} // namespace serve
} // namespace cuasmrl

#endif // CUASMRL_SERVE_OPTIMIZATIONSERVICE_H
