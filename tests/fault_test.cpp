//===- tests/fault_test.cpp - robustness: deadlines, faults, degradation -----===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardening contract of the serving stack: fake-clock deadlines
/// (expire-in-queue vs expire-mid-job), cooperative cancellation with a
/// bounded checkpoint latency, seeded retry/backoff sequences,
/// deterministic fault injection (a thrown job fails its response, not
/// the worker pool; attached waiters get the error too), orphan-tmp
/// sweeping, and near-miss graceful degradation with background cache
/// upgrade. The capstone scenario replays one injected fault schedule
/// at 1, 2, and 4 workers and requires identical statuses and counters
/// (modulo wall time and the in-queue/mid-job expiry split).
///
//===----------------------------------------------------------------------===//

#include "core/Optimizer.h"
#include "serve/DeployIndex.h"
#include "serve/OptimizationService.h"
#include "support/Cancellation.h"
#include "support/Clock.h"
#include "support/FaultInjector.h"
#include "support/Retry.h"
#include "triton/DeployCache.h"
#include "triton/Pipeline.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

using namespace cuasmrl;
using namespace cuasmrl::kernels;
using namespace cuasmrl::serve;

namespace {

/// The serve_test tiny configuration: real training, sub-second jobs.
core::OptimizeConfig tinyConfig() {
  core::OptimizeConfig C;
  C.Ppo.TotalSteps = 32;
  C.Ppo.RolloutLen = 16;
  C.Ppo.MiniBatches = 2;
  C.Ppo.Epochs = 2;
  C.Ppo.Channels = 4;
  C.Ppo.Hidden = 16;
  C.Game.EpisodeLength = 8;
  C.Game.Measure.WarmupIters = 1;
  C.Game.Measure.RepeatIters = 1;
  C.Game.Measure.NoiseStddev = 0.001;
  C.AutotuneMeasure.WarmupIters = 1;
  C.AutotuneMeasure.RepeatIters = 1;
  C.AutotuneMeasure.NoiseStddev = 0.0;
  C.ProbTestRounds = 1;
  return C;
}

OptimizeRequest softmaxRequest(unsigned Rows) {
  OptimizeRequest R;
  R.Kind = WorkloadKind::Softmax;
  R.Shape = testShape(WorkloadKind::Softmax);
  R.Shape.Rows = Rows;
  return R;
}

cubin::CubinFile smallCubin() {
  gpusim::Gpu Device;
  Rng DataRng(3);
  triton::CompiledKernel K = triton::compileKernel(
      Device, WorkloadKind::Softmax, testShape(WorkloadKind::Softmax),
      candidateConfigs(WorkloadKind::Softmax).front(), DataRng);
  return K.Binary;
}

} // namespace

//===----------------------------------------------------------------------===//
// FakeClock
//===----------------------------------------------------------------------===//

TEST(FakeClockTest, AdvancesOnlyExplicitly) {
  support::FakeClock Clock;
  support::Clock::TimePoint T0 = Clock.now();
  EXPECT_EQ(Clock.now(), T0);
  Clock.advance(std::chrono::milliseconds(250));
  EXPECT_EQ(Clock.now() - T0, std::chrono::milliseconds(250));
}

TEST(FakeClockTest, SleepForAdvancesSharedTime) {
  support::FakeClock Clock;
  support::Clock::TimePoint T0 = Clock.now();
  Clock.sleepFor(std::chrono::milliseconds(75));
  EXPECT_EQ(Clock.now() - T0, std::chrono::milliseconds(75));
}

TEST(FakeClockTest, RealClockIsMonotonic) {
  support::Clock &C = support::Clock::real();
  support::Clock::TimePoint A = C.now();
  support::Clock::TimePoint B = C.now();
  EXPECT_LE(A, B);
}

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

TEST(CancelTokenTest, ManualCancelTripsCheckpoint) {
  support::CancelToken Token;
  EXPECT_FALSE(Token.cancelled());
  EXPECT_NO_THROW(Token.checkpoint());
  Token.cancel();
  EXPECT_TRUE(Token.cancelled());
  EXPECT_THROW(Token.checkpoint(), support::CancelledError);
  EXPECT_EQ(Token.checkpointsPassed(), 2u);
}

TEST(CancelTokenTest, DeadlineAgainstFakeClockTrips) {
  support::FakeClock Clock;
  support::CancelToken Token;
  Token.setDeadline(Clock, Clock.now() + std::chrono::milliseconds(50));
  EXPECT_FALSE(Token.cancelled());
  Clock.advance(std::chrono::milliseconds(49));
  EXPECT_FALSE(Token.cancelled());
  Clock.advance(std::chrono::milliseconds(1));
  EXPECT_TRUE(Token.cancelled());
  EXPECT_THROW(Token.checkpoint(), support::CancelledError);
}

TEST(CancelTokenTest, PreCancelledOptimizeStopsAtFirstCheckpoint) {
  gpusim::Gpu Device;
  Rng DataRng(3);
  const core::Optimizer Opt(tinyConfig());
  support::CancelToken Token;
  Token.cancel();
  EXPECT_THROW(Opt.optimize(Device, WorkloadKind::Softmax,
                            testShape(WorkloadKind::Softmax), DataRng,
                            &Token),
               support::CancelledError);
  // Cancellation latency is bounded in checkpoints, not wall time: a
  // pre-cancelled token must stop the run at the very first poll (the
  // first autotune candidate), before any training happens.
  EXPECT_EQ(Token.checkpointsPassed(), 1u);
}

//===----------------------------------------------------------------------===//
// Retry policy
//===----------------------------------------------------------------------===//

TEST(RetryPolicyTest, ExponentialWithoutJitter) {
  support::RetryPolicy P;
  P.BaseDelay = std::chrono::milliseconds(10);
  P.Multiplier = 2.0;
  P.Jitter = 0.0;
  P.MaxDelay = std::chrono::milliseconds(2000);
  EXPECT_EQ(support::backoffDelay(P, 1, 7, 1).count(), 10);
  EXPECT_EQ(support::backoffDelay(P, 2, 7, 1).count(), 20);
  EXPECT_EQ(support::backoffDelay(P, 3, 7, 1).count(), 40);
}

TEST(RetryPolicyTest, ClampsToMaxDelay) {
  support::RetryPolicy P;
  P.BaseDelay = std::chrono::milliseconds(100);
  P.Multiplier = 10.0;
  P.Jitter = 0.0;
  P.MaxDelay = std::chrono::milliseconds(500);
  EXPECT_EQ(support::backoffDelay(P, 4, 7, 1).count(), 500);
}

TEST(RetryPolicyTest, JitterIsSeededAndBounded) {
  support::RetryPolicy P; // Jitter = 0.5 by default.
  for (unsigned Attempt = 1; Attempt <= 5; ++Attempt) {
    auto A = support::backoffDelay(P, Attempt, 7, 42);
    auto B = support::backoffDelay(P, Attempt, 7, 42);
    EXPECT_EQ(A.count(), B.count()); // Bit-reproducible.
    double Exp = 10.0;
    for (unsigned I = 1; I < Attempt; ++I)
      Exp *= 2.0;
    EXPECT_GE(A.count(), static_cast<int64_t>(Exp * 0.5) - 1);
    EXPECT_LE(A.count(), static_cast<int64_t>(Exp * 1.5) + 1);
  }
  // Distinct keys de-correlate (not all attempts collide).
  bool Differs = false;
  for (unsigned Attempt = 1; Attempt <= 5 && !Differs; ++Attempt)
    Differs = support::backoffDelay(P, Attempt, 7, 1) !=
              support::backoffDelay(P, Attempt, 7, 2);
  EXPECT_TRUE(Differs);
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, PlannedScheduleIsExactThenSucceeds) {
  support::FaultInjector F;
  F.plan("site:a", {1, 0, 1});
  EXPECT_TRUE(F.shouldFail("site:a"));
  EXPECT_FALSE(F.shouldFail("site:a"));
  EXPECT_TRUE(F.shouldFail("site:a"));
  EXPECT_FALSE(F.shouldFail("site:a")); // Beyond the schedule: succeed.
  EXPECT_EQ(F.checks("site:a"), 4u);
  EXPECT_EQ(F.fired("site:a"), 2u);
  EXPECT_EQ(F.totalFired(), 2u);
  EXPECT_FALSE(F.shouldFail("site:other")); // Unplanned sites succeed.
}

TEST(FaultInjectorTest, RateIsDeterministicInSeed) {
  auto Sequence = [](uint64_t Seed) {
    support::FaultInjector F(Seed);
    F.setRate("cache-", 0.5);
    std::vector<bool> Out;
    for (int I = 0; I < 32; ++I)
      Out.push_back(F.shouldFail("cache-store-fail:k"));
    return Out;
  };
  EXPECT_EQ(Sequence(7), Sequence(7));
  EXPECT_NE(Sequence(7), Sequence(8));
  // Prefix match: an unrelated site never fails.
  support::FaultInjector F(7);
  F.setRate("cache-", 1.0);
  EXPECT_TRUE(F.shouldFail("cache-store-fail:k"));
  EXPECT_FALSE(F.shouldFail("job-throw:k"));
}

TEST(FaultInjectorTest, PlannedDelaysPopInOrder) {
  support::FaultInjector F;
  F.planDelay("job-slow:k", {100, 50});
  EXPECT_EQ(F.delayMs("job-slow:k"), 100u);
  EXPECT_EQ(F.delayMs("job-slow:k"), 50u);
  EXPECT_EQ(F.delayMs("job-slow:k"), 0u); // Exhausted.
  EXPECT_EQ(F.delayMs("job-slow:other"), 0u);
  EXPECT_EQ(F.totalFired(), 0u); // Delays are not failures.
}

//===----------------------------------------------------------------------===//
// DeployCache fault sites + orphan sweep
//===----------------------------------------------------------------------===//

TEST(DeployCacheFaultTest, StoreFailSiteFailsWithoutPartialState) {
  test::TempDir Tmp;
  const std::string Dir = Tmp.sub("deploy");
  triton::DeployCache Cache(Dir);
  support::FaultInjector F;
  Cache.setFaultInjector(&F);
  F.plan("cache-store-fail:k", {1});

  cubin::CubinFile Bin = smallCubin();
  EXPECT_FALSE(Cache.store("k", Bin));
  EXPECT_FALSE(Cache.contains("k")); // No file, no tmp debris.
  EXPECT_TRUE(!std::filesystem::exists(Dir) ||
              std::filesystem::is_empty(Dir));
  EXPECT_TRUE(Cache.store("k", Bin)); // Schedule exhausted: succeeds.
  EXPECT_TRUE(Cache.contains("k"));
}

TEST(DeployCacheFaultTest, LoadCorruptSiteLooksLikeDeserializeFailure) {
  test::TempDir Dir;
  triton::DeployCache Cache(Dir.path());
  support::FaultInjector F;
  Cache.setFaultInjector(&F);
  ASSERT_TRUE(Cache.store("k", smallCubin()));

  F.plan("cache-load-corrupt:k", {1});
  // The shape the service's load-retry path keys on: the key is
  // present (contains() true) but the read comes back unusable.
  EXPECT_FALSE(Cache.load("k").has_value());
  EXPECT_TRUE(Cache.contains("k"));
  EXPECT_TRUE(Cache.load("k").has_value()); // Next read is clean.
}

TEST(DeployCacheOrphanTest, ConstructionSweepsStaleTmpSiblings) {
  test::TempDir Dir;
  {
    triton::DeployCache Cache(Dir.path());
    ASSERT_TRUE(Cache.store("keep", smallCubin()));
  }
  // Plant the debris a crashed writer would leave: tmp siblings that
  // never reached their rename.
  std::ofstream(Dir.path() + "/keep.cubin.tmp.1234.7") << "torn write";
  std::ofstream(Dir.path() + "/gone.cubin.tmp.99.1") << "torn write";

  triton::DeployCache Cache(Dir.path()); // The ctor sweep runs here.
  std::vector<std::string> Names;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir.path()))
    Names.push_back(Entry.path().filename().string());
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0], "keep.cubin");
  EXPECT_TRUE(Cache.load("keep").has_value()); // The real file survived.
}

//===----------------------------------------------------------------------===//
// DeployIndex (near-miss metadata)
//===----------------------------------------------------------------------===//

TEST(DeployIndexTest, MetaSidecarRoundTrips) {
  DeployedEntry E;
  E.GpuType = "A100-SIM";
  E.Kind = WorkloadKind::FlashAttention;
  E.Shape = testShape(WorkloadKind::FlashAttention);
  E.Key = "some-key";
  std::optional<DeployedEntry> Back =
      parseDeployMeta(encodeDeployMeta(E), "some-key");
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->GpuType, E.GpuType);
  EXPECT_EQ(Back->Kind, E.Kind);
  EXPECT_EQ(Back->Shape.SeqLen, E.Shape.SeqLen);
  EXPECT_EQ(Back->Key, "some-key");
  EXPECT_FALSE(parseDeployMeta("not a sidecar", "k").has_value());
}

TEST(DeployIndexTest, NearestIsScaleRelativeAndExcludesSelf) {
  auto Entry = [](unsigned Rows, const std::string &Key) {
    DeployedEntry E;
    E.GpuType = "A100-SIM";
    E.Kind = WorkloadKind::Softmax;
    E.Shape = testShape(WorkloadKind::Softmax);
    E.Shape.Rows = Rows;
    E.Key = Key;
    return E;
  };
  DeployIndex Index;
  Index.add(Entry(512, "k512"));
  Index.add(Entry(4096, "k4096"));

  WorkloadShape Probe = testShape(WorkloadKind::Softmax);
  Probe.Rows = 600;
  const DeployedEntry *Near =
      Index.nearest("A100-SIM", WorkloadKind::Softmax, Probe, "");
  ASSERT_NE(Near, nullptr);
  EXPECT_EQ(Near->Key, "k512");
  Probe.Rows = 3000;
  Near = Index.nearest("A100-SIM", WorkloadKind::Softmax, Probe, "");
  ASSERT_NE(Near, nullptr);
  EXPECT_EQ(Near->Key, "k4096");
  // Exclusion: the exact key that missed never serves itself.
  Near = Index.nearest("A100-SIM", WorkloadKind::Softmax, Probe, "k4096");
  ASSERT_NE(Near, nullptr);
  EXPECT_EQ(Near->Key, "k512");
  // Kind and GPU gates.
  EXPECT_EQ(Index.nearest("A100-SIM", WorkloadKind::Bmm, Probe, ""),
            nullptr);
  EXPECT_EQ(Index.nearest("H100-SIM", WorkloadKind::Softmax, Probe, ""),
            nullptr);
}

//===----------------------------------------------------------------------===//
// Service: deadlines
//===----------------------------------------------------------------------===//

TEST(ServiceDeadlineTest, ExpiresInQueueBeforeStart) {
  support::FakeClock Clock;
  gpusim::Gpu Device;
  ServiceConfig SC;
  SC.Workers = 1;
  SC.Defaults = tinyConfig();
  SC.StartPaused = true;
  SC.ClockSrc = &Clock;
  OptimizationService Service(Device, SC);

  OptimizeRequest R = softmaxRequest(512);
  R.Timeout = std::chrono::milliseconds(50);
  Ticket T = Service.submit(R);
  ASSERT_EQ(T.How, Admission::Enqueued);
  Clock.advance(std::chrono::milliseconds(100)); // Past the deadline.
  Service.start();

  ResponsePtr Resp = T.Response.get();
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::DeadlineExceeded);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.DeadlineExceeded, 1u);
  EXPECT_EQ(S.ExpiredInQueue, 1u);
  EXPECT_EQ(S.ExpiredMidJob, 0u);
  EXPECT_EQ(S.OptimizeRuns, 0u); // Shed: the job never ran.
  Service.shutdown();
}

TEST(ServiceDeadlineTest, ExpiresMidJobAtNextCheckpoint) {
  support::FakeClock Clock;
  support::FaultInjector Faults;
  gpusim::Gpu Device;
  ServiceConfig SC;
  SC.Workers = 1;
  SC.Defaults = tinyConfig();
  SC.ClockSrc = &Clock;
  SC.Faults = &Faults;
  OptimizationService Service(Device, SC);

  OptimizeRequest R = softmaxRequest(512);
  R.Timeout = std::chrono::milliseconds(50);
  std::string Key = OptimizationService::requestKey(R, SC.Defaults);
  // The job's own injected slowness moves the fake clock past its own
  // deadline — at any worker count — and the next checkpoint trips.
  Faults.planDelay("job-slow:" + Key, {100});

  ResponsePtr Resp = Service.submit(R).Response.get();
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::DeadlineExceeded);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.DeadlineExceeded, 1u);
  EXPECT_EQ(S.ExpiredMidJob, 1u);
  EXPECT_EQ(S.ExpiredInQueue, 0u);
  EXPECT_EQ(S.OptimizeRuns, 1u); // It started, then was cancelled.
  EXPECT_EQ(S.Completed, 0u);
  Service.shutdown();
}

TEST(ServiceDeadlineTest, PastDeadlineIsShedOnFirstPop) {
  support::FakeClock Clock;
  gpusim::Gpu Device;
  ServiceConfig SC;
  SC.Workers = 1;
  SC.Defaults = tinyConfig();
  SC.ClockSrc = &Clock;
  OptimizationService Service(Device, SC);

  OptimizeRequest R = softmaxRequest(512);
  R.Timeout = std::chrono::milliseconds(-1); // Already in the past.
  ResponsePtr Resp = Service.submit(R).Response.get();
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::DeadlineExceeded);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.ExpiredInQueue, 1u);
  EXPECT_EQ(S.OptimizeRuns, 0u);
  Service.shutdown();
}

//===----------------------------------------------------------------------===//
// Service: retry/backoff
//===----------------------------------------------------------------------===//

namespace {

/// One service over a fake clock and injector, one worker.
struct FaultHarness {
  test::TempDir Dir;
  support::FakeClock Clock;
  support::FaultInjector Faults;
  gpusim::Gpu Device;
  ServiceConfig SC;
  std::unique_ptr<OptimizationService> Service;

  explicit FaultHarness(bool WithCache = true) {
    SC.Workers = 1;
    SC.Defaults = tinyConfig();
    SC.ClockSrc = &Clock;
    SC.Faults = &Faults;
    SC.Retry.BaseDelay = std::chrono::milliseconds(1);
    if (WithCache)
      SC.DeployDir = Dir.path();
    Service = std::make_unique<OptimizationService>(Device, SC);
  }
  std::string key(const OptimizeRequest &R) const {
    return OptimizationService::requestKey(R, SC.Defaults);
  }
};

} // namespace

TEST(ServiceRetryTest, StoreRetriesThenPersists) {
  FaultHarness H;
  OptimizeRequest R = softmaxRequest(512);
  H.Faults.plan("cache-store-fail:" + H.key(R), {1, 1});

  ResponsePtr Resp = H.Service->submit(R).Response.get();
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::Optimized);
  EXPECT_TRUE(Resp->Persisted); // Third attempt landed.
  ServiceStats S = H.Service->stats();
  EXPECT_EQ(S.StoreRetries, 2u);
  EXPECT_EQ(S.PersistStores, 1u);
  EXPECT_EQ(S.PersistFailures, 0u);
  EXPECT_EQ(S.RetryExhausted, 0u);
  EXPECT_EQ(S.FaultsInjected, 2u);
  H.Service->shutdown();
}

TEST(ServiceRetryTest, StoreRetriesExhaustSurfaceAsPersistFailure) {
  FaultHarness H;
  OptimizeRequest R = softmaxRequest(512);
  H.Faults.plan("cache-store-fail:" + H.key(R), {1, 1, 1});

  ResponsePtr Resp = H.Service->submit(R).Response.get();
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::Optimized);
  EXPECT_FALSE(Resp->Persisted);
  ServiceStats S = H.Service->stats();
  EXPECT_EQ(S.StoreRetries, 2u); // MaxAttempts = 3: two backoffs.
  EXPECT_EQ(S.PersistStores, 0u);
  EXPECT_EQ(S.PersistFailures, 1u);
  EXPECT_EQ(S.RetryExhausted, 1u);
  H.Service->shutdown();
}

TEST(ServiceRetryTest, TransientJobErrorRetriesThenSucceeds) {
  FaultHarness H;
  OptimizeRequest R = softmaxRequest(512);
  H.Faults.plan("job-transient:" + H.key(R), {1, 0});

  ResponsePtr Resp = H.Service->submit(R).Response.get();
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::Optimized);
  ServiceStats S = H.Service->stats();
  EXPECT_EQ(S.JobRetries, 1u);
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_EQ(S.Failed, 0u);
  H.Service->shutdown();
}

TEST(ServiceRetryTest, TransientJobErrorExhaustsToFailed) {
  FaultHarness H;
  OptimizeRequest R = softmaxRequest(512);
  H.Faults.plan("job-transient:" + H.key(R), {1, 1, 1});

  ResponsePtr Resp = H.Service->submit(R).Response.get();
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::Failed);
  EXPECT_NE(Resp->Error.find("retries exhausted"), std::string::npos);
  ServiceStats S = H.Service->stats();
  EXPECT_EQ(S.JobRetries, 2u);
  EXPECT_EQ(S.RetryExhausted, 1u);
  EXPECT_EQ(S.Failed, 1u);
  H.Service->shutdown();
}

TEST(ServiceRetryTest, CorruptLoadRetriesThenServesHit) {
  FaultHarness H;
  OptimizeRequest R = softmaxRequest(512);
  ResponsePtr First = H.Service->submit(R).Response.get();
  ASSERT_TRUE(First->Persisted);

  H.Faults.plan("cache-load-corrupt:" + H.key(R), {1});
  Ticket T = H.Service->submit(R);
  EXPECT_EQ(T.How, Admission::LookupHit); // The retry rescued the hit.
  EXPECT_EQ(T.Response.get()->St, OptimizeResponse::Status::LookupHit);
  ServiceStats S = H.Service->stats();
  EXPECT_EQ(S.LoadRetries, 1u);
  EXPECT_EQ(S.LookupHits, 1u);
  EXPECT_EQ(S.OptimizeRuns, 1u); // Only the first submit trained.
  H.Service->shutdown();
}

TEST(ServiceRetryTest, TrailingBytesTakeTheCorruptReadPath) {
  // A deployed cubin with a byte appended is no hit: every read of it
  // is a corrupt read, so the lookup retries, gives up and re-optimizes.
  // The new store replaces the bad file, and the next lookup hits.
  FaultHarness H;
  OptimizeRequest R = softmaxRequest(512);
  ResponsePtr First = H.Service->submit(R).Response.get();
  ASSERT_TRUE(First->Persisted);
  {
    std::ofstream OS(H.Dir.path() + "/" + H.key(R) + ".cubin",
                     std::ios::binary | std::ios::app);
    OS.put('\0');
  }

  Ticket T = H.Service->submit(R);
  EXPECT_EQ(T.How, Admission::Enqueued);
  ResponsePtr Second = T.Response.get();
  EXPECT_EQ(Second->St, OptimizeResponse::Status::Optimized);
  EXPECT_TRUE(Second->Persisted);
  EXPECT_EQ(Second->Binary.serialize(), First->Binary.serialize());
  ServiceStats S = H.Service->stats();
  EXPECT_EQ(S.LoadRetries, H.SC.Retry.MaxAttempts - 1);
  EXPECT_EQ(S.RetryExhausted, 1u);
  EXPECT_EQ(S.LookupHits, 0u);
  EXPECT_EQ(S.OptimizeRuns, 2u);

  EXPECT_EQ(H.Service->submit(R).How, Admission::LookupHit);
  H.Service->shutdown();
}

//===----------------------------------------------------------------------===//
// Service: fault containment
//===----------------------------------------------------------------------===//

TEST(ServiceFaultTest, ThrownJobFailsAllWaitersAndFreesTheKey) {
  support::FakeClock Clock;
  support::FaultInjector Faults;
  gpusim::Gpu Device;
  ServiceConfig SC;
  SC.Workers = 1;
  SC.Defaults = tinyConfig();
  SC.StartPaused = true; // Admit both requests before any job runs.
  SC.ClockSrc = &Clock;
  SC.Faults = &Faults;
  OptimizationService Service(Device, SC);

  OptimizeRequest R = softmaxRequest(512);
  std::string Key = OptimizationService::requestKey(R, SC.Defaults);
  Faults.plan("job-throw:" + Key, {1});

  std::vector<OptimizeResponse::Status> Seen;
  std::mutex SeenMutex;
  auto Record = [&](const OptimizeResponse &Resp) {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    Seen.push_back(Resp.St);
  };
  Ticket T1 = Service.submit(R, Record);
  Ticket T2 = Service.submit(R, Record); // Attaches to T1's job.
  ASSERT_EQ(T2.How, Admission::Attached);
  Service.start();

  // The submitter AND the attached waiter both get the error.
  EXPECT_EQ(T1.Response.get()->St, OptimizeResponse::Status::Failed);
  EXPECT_EQ(T2.Response.get()->St, OptimizeResponse::Status::Failed);
  Service.drain();
  {
    std::lock_guard<std::mutex> Lock(SeenMutex);
    ASSERT_EQ(Seen.size(), 2u);
    EXPECT_EQ(Seen[0], OptimizeResponse::Status::Failed);
    EXPECT_EQ(Seen[1], OptimizeResponse::Status::Failed);
  }

  // The key is not poisoned and the worker survived: a resubmit runs a
  // fresh job (the fault schedule is exhausted) and completes.
  Ticket T3 = Service.submit(R);
  EXPECT_EQ(T3.How, Admission::Enqueued);
  EXPECT_EQ(T3.Response.get()->St, OptimizeResponse::Status::Optimized);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_EQ(S.Merged, 1u);
  Service.shutdown();
}

//===----------------------------------------------------------------------===//
// Service: graceful degradation
//===----------------------------------------------------------------------===//

TEST(ServiceDegradedTest, NearMissServesNearestThenUpgrades) {
  FaultHarness H;
  // Deploy the near-miss source shape.
  OptimizeRequest Seed = softmaxRequest(512);
  ASSERT_TRUE(H.Service->submit(Seed).Response.get()->Persisted);

  OptimizeRequest R = softmaxRequest(1024);
  Ticket T = H.Service->submit(R);
  EXPECT_EQ(T.How, Admission::NearMiss);
  ResponsePtr Resp = T.Response.get(); // Resolved immediately.
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::Degraded);
  EXPECT_EQ(Resp->Key, H.key(R));
  EXPECT_EQ(Resp->DegradedFrom, H.key(Seed));
  EXPECT_FALSE(Resp->Persisted);

  // The background exact-shape job upgrades the cache: the same
  // request is a plain lookup hit afterwards.
  H.Service->drain();
  Ticket Again = H.Service->submit(R);
  EXPECT_EQ(Again.How, Admission::LookupHit);
  ServiceStats S = H.Service->stats();
  EXPECT_EQ(S.DegradedHits, 1u);
  EXPECT_EQ(S.NearMissUpgrades, 1u);
  EXPECT_EQ(S.Completed, 2u); // The seed job and the background job.
  EXPECT_EQ(S.LookupHits, 1u);
  H.Service->shutdown();
}

TEST(ServiceDegradedTest, RequestFlagOptsOut) {
  FaultHarness H;
  OptimizeRequest Seed = softmaxRequest(512);
  ASSERT_TRUE(H.Service->submit(Seed).Response.get()->Persisted);

  OptimizeRequest R = softmaxRequest(1024);
  R.AllowDegraded = false;
  Ticket T = H.Service->submit(R);
  EXPECT_EQ(T.How, Admission::Enqueued);
  EXPECT_EQ(T.Response.get()->St, OptimizeResponse::Status::Optimized);
  EXPECT_EQ(H.Service->stats().DegradedHits, 0u);
  H.Service->shutdown();
}

TEST(ServiceDegradedTest, IndexRebuildsFromSidecarsAcrossRestart) {
  test::TempDir Dir;
  gpusim::Gpu Device;
  ServiceConfig SC;
  SC.Workers = 1;
  SC.Defaults = tinyConfig();
  SC.DeployDir = Dir.path();
  OptimizeRequest Seed = softmaxRequest(512);
  {
    OptimizationService Service(Device, SC);
    ASSERT_TRUE(Service.submit(Seed).Response.get()->Persisted);
    Service.shutdown();
  }
  // A fresh service instance over the same directory reloads the meta
  // sidecars — near-miss serving survives restarts.
  OptimizationService Service(Device, SC);
  OptimizeRequest R = softmaxRequest(1024);
  Ticket T = Service.submit(R);
  EXPECT_EQ(T.How, Admission::NearMiss);
  EXPECT_EQ(T.Response.get()->DegradedFrom,
            OptimizationService::requestKey(Seed, SC.Defaults));
  Service.shutdown();
}

//===----------------------------------------------------------------------===//
// The acceptance scenario: one fault schedule, every worker count
//===----------------------------------------------------------------------===//

namespace {

struct ScenarioOutcome {
  std::map<std::string, double> Stats;
  OptimizeResponse::Status NearSt, StoreSt, ThrowSt, SlowSt;
  bool StorePersisted = false;
  std::string DegradedFrom;
  Admission ExactAfter = Admission::Rejected;
  uint64_t ExpiredInQueue = 0, ExpiredMidJob = 0, DeadlineExceeded = 0;
  double TotalJobWallMs = 0.0;
};

ScenarioOutcome runFaultSchedule(unsigned Workers) {
  test::TempDir Dir;
  support::FakeClock Clock;
  support::FaultInjector Faults(/*Seed=*/42);
  gpusim::Gpu Device;
  ServiceConfig SC;
  SC.Workers = Workers;
  SC.Defaults = tinyConfig();
  SC.DeployDir = Dir.path();
  SC.ClockSrc = &Clock;
  SC.Faults = &Faults;
  SC.Retry.BaseDelay = std::chrono::milliseconds(1);
  OptimizationService Service(Device, SC);
  auto Key = [&](const OptimizeRequest &R) {
    return OptimizationService::requestKey(R, SC.Defaults);
  };

  // Phase 0: deploy the shape the near-miss request degrades onto.
  OptimizeRequest Seed = softmaxRequest(512);
  Service.submit(Seed);
  Service.drain();

  // Phase 1: the faulty mixed stream. The near-miss request goes first
  // so its index consultation sees exactly one deployed shape at any
  // worker count.
  OptimizeRequest NearR = softmaxRequest(768);
  OptimizeRequest StoreR = softmaxRequest(1024);
  StoreR.AllowDegraded = false;
  OptimizeRequest ThrowR;
  ThrowR.Kind = WorkloadKind::RmsNorm;
  ThrowR.Shape = testShape(WorkloadKind::RmsNorm);
  ThrowR.AllowDegraded = false;
  OptimizeRequest SlowR = softmaxRequest(2048);
  SlowR.AllowDegraded = false;
  SlowR.Timeout = std::chrono::milliseconds(50);

  Faults.plan("cache-store-fail:" + Key(StoreR), {1, 1});
  Faults.plan("job-throw:" + Key(ThrowR), {1});
  Faults.planDelay("job-slow:" + Key(SlowR), {100});

  Ticket TN = Service.submit(NearR);
  Ticket TS = Service.submit(StoreR);
  Ticket TT = Service.submit(ThrowR);
  Ticket TL = Service.submit(SlowR);
  Service.drain();

  ScenarioOutcome Out;
  Out.NearSt = TN.Response.get()->St;
  Out.DegradedFrom = TN.Response.get()->DegradedFrom;
  Out.StoreSt = TS.Response.get()->St;
  Out.StorePersisted = TS.Response.get()->Persisted;
  Out.ThrowSt = TT.Response.get()->St;
  Out.SlowSt = TL.Response.get()->St;
  Out.ExactAfter = Service.submit(softmaxRequest(768)).How;
  Service.drain();

  ServiceStats S = Service.stats();
  Out.ExpiredInQueue = S.ExpiredInQueue;
  Out.ExpiredMidJob = S.ExpiredMidJob;
  Out.DeadlineExceeded = S.DeadlineExceeded;
  Out.TotalJobWallMs = S.TotalJobWallMs;
  visitServiceCounters(S, [&](const char *Name, const auto &Value) {
    Out.Stats[Name] = static_cast<double>(Value);
  });
  // Wall time and the two sides of the expiry split are the only
  // legitimately worker-count-dependent numbers: which side a given
  // expiry lands on is pop timing. Their SUM is checked instead.
  Out.Stats.erase("TotalJobWallMs");
  Out.Stats.erase("ExpiredInQueue");
  Out.Stats.erase("ExpiredMidJob");
  Service.shutdown();
  return Out;
}

} // namespace

TEST(ServiceFaultScheduleTest, DeterministicAcrossWorkerCounts) {
  ScenarioOutcome W1 = runFaultSchedule(1);

  // Every request resolved with exactly the status its fault schedule
  // dictates — no hang, no lost worker, no stuck key.
  EXPECT_EQ(W1.NearSt, OptimizeResponse::Status::Degraded);
  EXPECT_FALSE(W1.DegradedFrom.empty());
  EXPECT_EQ(W1.StoreSt, OptimizeResponse::Status::Optimized);
  EXPECT_TRUE(W1.StorePersisted); // Two failures, third store landed.
  EXPECT_EQ(W1.ThrowSt, OptimizeResponse::Status::Failed);
  EXPECT_EQ(W1.SlowSt, OptimizeResponse::Status::DeadlineExceeded);
  EXPECT_EQ(W1.ExactAfter, Admission::LookupHit); // Upgrade landed.

  // Counters match the schedule exactly.
  EXPECT_EQ(W1.Stats.at("StoreRetries"), 2.0);
  EXPECT_EQ(W1.Stats.at("DegradedHits"), 1.0);
  EXPECT_EQ(W1.Stats.at("NearMissUpgrades"), 1.0);
  EXPECT_EQ(W1.Stats.at("Failed"), 1.0);
  EXPECT_EQ(W1.Stats.at("DeadlineExceeded"), 1.0);
  EXPECT_EQ(W1.Stats.at("FaultsInjected"), 3.0); // 2 store + 1 throw.
  EXPECT_EQ(W1.Stats.at("Completed"), 3.0); // Seed, store-retry, upgrade.
  EXPECT_EQ(W1.Stats.at("RetryExhausted"), 0.0);
  EXPECT_EQ(W1.ExpiredInQueue + W1.ExpiredMidJob, W1.DeadlineExceeded);

  for (unsigned Workers : {2u, 4u}) {
    ScenarioOutcome W = runFaultSchedule(Workers);
    EXPECT_EQ(W.NearSt, W1.NearSt) << Workers;
    EXPECT_EQ(W.DegradedFrom, W1.DegradedFrom) << Workers;
    EXPECT_EQ(W.StoreSt, W1.StoreSt) << Workers;
    EXPECT_EQ(W.ThrowSt, W1.ThrowSt) << Workers;
    EXPECT_EQ(W.SlowSt, W1.SlowSt) << Workers;
    EXPECT_EQ(W.ExactAfter, W1.ExactAfter) << Workers;
    EXPECT_EQ(W.ExpiredInQueue + W.ExpiredMidJob, W.DeadlineExceeded)
        << Workers;
    // Bit-identical counters at every worker count.
    EXPECT_EQ(W.Stats, W1.Stats) << "workers=" << Workers;
  }
}
