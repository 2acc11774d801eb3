//===- tests/serve_test.cpp - optimization service / job queue tests ---------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service contract (§4.2 as a server): bit-identical responses
/// for any worker count, single-flight deduplication, lookup hits that
/// short-circuit training, priority ordering, bounded-queue
/// backpressure, persist-failure surfacing, and clean drain/shutdown.
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Server.h"
#include "serve/JobQueue.h"
#include "serve/OptimizationService.h"
#include "support/Clock.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

using namespace cuasmrl;
using namespace cuasmrl::kernels;
using namespace cuasmrl::serve;

//===----------------------------------------------------------------------===//
// JobQueue
//===----------------------------------------------------------------------===//

namespace {

/// A task that appends \p Id to \p Order when run (not cancelled/shed).
JobQueue::Task recorder(std::vector<int> &Order, int Id) {
  return [&Order, Id](TaskFate Fate) {
    if (Fate == TaskFate::Run)
      Order.push_back(Id);
  };
}

} // namespace

TEST(JobQueueTest, PopsByPriorityThenFifo) {
  JobQueue Q;
  std::vector<int> Order;
  ASSERT_TRUE(Q.push(recorder(Order, 0), /*Priority=*/0));
  ASSERT_TRUE(Q.push(recorder(Order, 1), /*Priority=*/5));
  ASSERT_TRUE(Q.push(recorder(Order, 2), /*Priority=*/5));
  ASSERT_TRUE(Q.push(recorder(Order, 3), /*Priority=*/1));
  EXPECT_EQ(Q.size(), 4u);
  for (int I = 0; I < 4; ++I) {
    std::optional<JobQueue::Popped> T = Q.pop();
    ASSERT_TRUE(T.has_value());
    EXPECT_EQ(T->Fate, TaskFate::Run);
    T->Fn(T->Fate);
  }
  // Priority 5 first (FIFO within: 1 before 2), then 1, then 0.
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(JobQueueTest, TryPushRejectsWhenFull) {
  JobQueue Q(/*Bound=*/2);
  std::vector<int> Order;
  EXPECT_TRUE(Q.tryPush(recorder(Order, 0), 0));
  EXPECT_TRUE(Q.tryPush(recorder(Order, 1), 0));
  EXPECT_FALSE(Q.tryPush(recorder(Order, 2), 0));
  EXPECT_EQ(Q.size(), 2u);
}

TEST(JobQueueTest, BlockingPushWaitsForSpace) {
  JobQueue Q(/*Bound=*/1);
  std::vector<int> Order;
  ASSERT_TRUE(Q.push(recorder(Order, 0), 0));
  std::atomic<bool> Pushed{false};
  std::thread Producer([&] {
    EXPECT_TRUE(Q.push([&Pushed](TaskFate) { Pushed = true; }, 0));
  });
  // The consumer frees the slot; both tasks must come through.
  std::optional<JobQueue::Popped> A = Q.pop();
  ASSERT_TRUE(A.has_value());
  std::optional<JobQueue::Popped> B = Q.pop();
  ASSERT_TRUE(B.has_value());
  Producer.join();
  A->Fn(A->Fate);
  B->Fn(B->Fate);
  EXPECT_TRUE(Pushed.load());
}

TEST(JobQueueTest, CloseReturnsUnstartedTasksAndWakesEveryone) {
  JobQueue Q(/*Bound=*/2);
  std::vector<int> Order;
  ASSERT_TRUE(Q.push(recorder(Order, 0), 0));
  ASSERT_TRUE(Q.push(recorder(Order, 1), 7));
  // A producer blocked on the bound and a consumer blocked later must
  // both wake when the queue closes.
  std::thread Producer([&] { EXPECT_FALSE(Q.push(recorder(Order, 2), 0)); });
  std::vector<JobQueue::Task> Remaining = Q.close();
  Producer.join();
  EXPECT_TRUE(Q.closed());
  // Pop order: the priority-7 task first. Cancellation skips the body.
  ASSERT_GE(Remaining.size(), 2u);
  std::atomic<int> Cancelled{0};
  for (JobQueue::Task &T : Remaining) {
    T(TaskFate::Cancelled);
    ++Cancelled;
  }
  EXPECT_TRUE(Order.empty());
  EXPECT_EQ(Q.pop(), std::nullopt);
  EXPECT_FALSE(Q.push(recorder(Order, 9), 0));
  EXPECT_TRUE(Q.close().empty()); // Idempotent.
}

//===----------------------------------------------------------------------===//
// OptimizationService
//===----------------------------------------------------------------------===//

namespace {

/// A small, fast optimize configuration: enough PPO to produce real
/// training series, small enough that a job takes well under a second.
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

ServiceConfig tinyService(unsigned Workers, std::string DeployDir = "") {
  ServiceConfig C;
  C.Workers = Workers;
  C.Seed = 11;
  C.DeployDir = std::move(DeployDir);
  C.Defaults = tinyConfig();
  return C;
}

OptimizeRequest request(WorkloadKind Kind, int Priority = 0) {
  OptimizeRequest R;
  R.Kind = Kind;
  R.Shape = testShape(Kind);
  R.Priority = Priority;
  return R;
}

/// Everything response equality means for the determinism contract.
void expectResponsesIdentical(const OptimizeResponse &A,
                              const OptimizeResponse &B) {
  EXPECT_EQ(A.St, B.St);
  EXPECT_EQ(A.Key, B.Key);
  EXPECT_EQ(A.Result.TritonUs, B.Result.TritonUs);
  EXPECT_EQ(A.Result.OptimizedUs, B.Result.OptimizedUs);
  EXPECT_EQ(A.Result.Verified, B.Result.Verified);
  EXPECT_EQ(A.Result.OptimizedProg.str(), B.Result.OptimizedProg.str());
  EXPECT_EQ(A.Result.EpisodeReturns, B.Result.EpisodeReturns);
  ASSERT_EQ(A.Result.Training.size(), B.Result.Training.size());
  for (size_t I = 0; I < A.Result.Training.size(); ++I) {
    EXPECT_EQ(A.Result.Training[I].PolicyLoss, B.Result.Training[I].PolicyLoss);
    EXPECT_EQ(A.Result.Training[I].ValueLoss, B.Result.Training[I].ValueLoss);
    EXPECT_EQ(A.Result.Training[I].Entropy, B.Result.Training[I].Entropy);
  }
  EXPECT_EQ(A.Binary.serialize(), B.Binary.serialize());
}

} // namespace

TEST(ServeTest, ResponsesBitIdenticalAcrossWorkerCounts) {
  gpusim::Gpu Device;
  std::vector<OptimizeRequest> Requests = {
      request(WorkloadKind::Softmax), request(WorkloadKind::RmsNorm)};

  std::vector<std::vector<ResponsePtr>> PerWorkerCount;
  for (unsigned Workers : {1u, 2u, 4u}) {
    OptimizationService Service(Device, tinyService(Workers));
    std::vector<Ticket> Tickets;
    for (const OptimizeRequest &R : Requests)
      Tickets.push_back(Service.submit(R));
    std::vector<ResponsePtr> Responses;
    for (Ticket &T : Tickets) {
      ASSERT_TRUE(T.valid());
      Responses.push_back(T.Response.get());
    }
    Service.shutdown();
    PerWorkerCount.push_back(std::move(Responses));
  }

  for (size_t W = 1; W < PerWorkerCount.size(); ++W) {
    ASSERT_EQ(PerWorkerCount[W].size(), PerWorkerCount[0].size());
    for (size_t R = 0; R < PerWorkerCount[0].size(); ++R)
      expectResponsesIdentical(*PerWorkerCount[0][R], *PerWorkerCount[W][R]);
  }
  // And the jobs really ran (no degenerate empty runs "matching").
  EXPECT_EQ(PerWorkerCount[0][0]->St, OptimizeResponse::Status::Optimized);
  EXPECT_GT(PerWorkerCount[0][0]->Result.TritonUs, 0.0);
  EXPECT_FALSE(PerWorkerCount[0][0]->Result.Training.empty());
}

TEST(ServeTest, SingleFlightMergesConcurrentDuplicates) {
  gpusim::Gpu Device;
  ServiceConfig SC = tinyService(/*Workers=*/2);
  SC.StartPaused = true; // Duplicates admitted before any job runs.
  OptimizationService Service(Device, SC);

  const unsigned Dupes = 4;
  std::atomic<unsigned> CallbacksFired{0};
  std::vector<Ticket> Tickets;
  for (unsigned I = 0; I < Dupes; ++I)
    Tickets.push_back(
        Service.submit(request(WorkloadKind::Softmax),
                       [&](const OptimizeResponse &) { ++CallbacksFired; }));

  EXPECT_EQ(Tickets[0].How, Admission::Enqueued);
  for (unsigned I = 1; I < Dupes; ++I) {
    EXPECT_EQ(Tickets[I].How, Admission::Attached);
    EXPECT_EQ(Tickets[I].Key, Tickets[0].Key);
  }

  Service.start();
  std::vector<ResponsePtr> Responses;
  for (Ticket &T : Tickets)
    Responses.push_back(T.Response.get());
  // One optimize job served every duplicate: all requesters share the
  // identical response object.
  for (unsigned I = 1; I < Dupes; ++I)
    EXPECT_EQ(Responses[I].get(), Responses[0].get());
  EXPECT_EQ(Responses[0]->St, OptimizeResponse::Status::Optimized);

  Service.drain();
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.OptimizeRuns, 1u);
  EXPECT_EQ(S.Enqueued, 1u);
  EXPECT_EQ(S.Merged, Dupes - 1);
  EXPECT_EQ(S.Submitted, uint64_t(Dupes));
  EXPECT_EQ(CallbacksFired.load(), Dupes);
}

TEST(ServeTest, LookupHitShortCircuitsTraining) {
  gpusim::Gpu Device;
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");

  std::vector<uint8_t> DeployedBytes;
  {
    // Offline pass: optimize once, winner persisted under the key.
    OptimizationService Producer(Device, tinyService(1, Dir));
    Ticket T = Producer.submit(request(WorkloadKind::Softmax));
    ResponsePtr R = T.Response.get();
    ASSERT_EQ(R->St, OptimizeResponse::Status::Optimized);
    ASSERT_TRUE(R->Persisted);
    DeployedBytes = R->Binary.serialize();
    ServiceStats S = Producer.stats();
    EXPECT_EQ(S.PersistStores, 1u);
    EXPECT_EQ(S.DeployedKeys, 1u);
  }

  // Online pass (fresh service, same cache): deployment is a lookup,
  // not training (§4.2).
  OptimizationService Consumer(Device, tinyService(4, Dir));
  bool CallbackSawHit = false;
  Ticket T = Consumer.submit(request(WorkloadKind::Softmax),
                             [&](const OptimizeResponse &R) {
                               CallbackSawHit =
                                   R.St == OptimizeResponse::Status::LookupHit;
                             });
  EXPECT_EQ(T.How, Admission::LookupHit);
  ResponsePtr R = T.Response.get();
  EXPECT_EQ(R->St, OptimizeResponse::Status::LookupHit);
  EXPECT_EQ(R->Binary.serialize(), DeployedBytes);
  EXPECT_TRUE(CallbackSawHit);
  EXPECT_TRUE(R->Result.Training.empty()); // Zero training updates.

  ServiceStats S = Consumer.stats();
  EXPECT_EQ(S.LookupHits, 1u);
  EXPECT_EQ(S.OptimizeRuns, 0u);
  EXPECT_EQ(S.TrainingUpdates, 0u);
  EXPECT_EQ(S.Enqueued, 0u);
}

TEST(ServeTest, PriorityOrdersJobsUnderSingleWorker) {
  gpusim::Gpu Device;
  ServiceConfig SC = tinyService(/*Workers=*/1);
  SC.StartPaused = true; // Admission fixed before the worker starts.
  OptimizationService Service(Device, SC);

  // Three distinct keys at three priorities, admitted low-first.
  std::mutex OrderMutex;
  std::vector<int> Completed;
  auto Submit = [&](WorkloadKind Kind, unsigned Rows, int Priority) {
    OptimizeRequest R = request(Kind, Priority);
    R.Shape.Rows = Rows;
    return Service.submit(R, [&, Priority](const OptimizeResponse &) {
      std::lock_guard<std::mutex> Lock(OrderMutex);
      Completed.push_back(Priority);
    });
  };
  std::vector<Ticket> Tickets;
  Tickets.push_back(Submit(WorkloadKind::Softmax, 64, 0));
  Tickets.push_back(Submit(WorkloadKind::Softmax, 96, 1));
  Tickets.push_back(Submit(WorkloadKind::Softmax, 128, 5));
  for (const Ticket &T : Tickets)
    ASSERT_EQ(T.How, Admission::Enqueued);

  Service.start();
  Service.drain();
  EXPECT_EQ(Completed, (std::vector<int>{5, 1, 0}));
}

TEST(ServeTest, TrySubmitRejectsWhenQueueFull) {
  gpusim::Gpu Device;
  ServiceConfig SC = tinyService(/*Workers=*/1);
  SC.StartPaused = true;
  SC.MaxQueued = 2;
  OptimizationService Service(Device, SC);

  auto Distinct = [&](unsigned Rows) {
    OptimizeRequest R = request(WorkloadKind::Softmax);
    R.Shape.Rows = Rows;
    return R;
  };
  std::atomic<unsigned> RejectedCallbacks{0};
  Ticket A = Service.trySubmit(Distinct(64));
  Ticket B = Service.trySubmit(Distinct(96));
  Ticket C = Service.trySubmit(
      Distinct(128),
      [&](const OptimizeResponse &) { ++RejectedCallbacks; });
  EXPECT_EQ(A.How, Admission::Enqueued);
  EXPECT_EQ(B.How, Admission::Enqueued);
  EXPECT_EQ(C.How, Admission::Rejected);
  EXPECT_FALSE(C.valid());
  // Attaching to a queued key consumes no queue space, so it still
  // succeeds while the queue is full.
  Ticket D = Service.trySubmit(Distinct(64));
  EXPECT_EQ(D.How, Admission::Attached);

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Rejected, 1u);
  EXPECT_EQ(S.QueuedNow, 2u);
  Service.shutdown();
  // A rejected admission never fires the submitter's callback — the
  // Rejected ticket is the outcome.
  EXPECT_EQ(RejectedCallbacks.load(), 0u);
}

TEST(ServeTest, BlockingSubmitWaitsForQueueSpace) {
  gpusim::Gpu Device;
  ServiceConfig SC = tinyService(/*Workers=*/1);
  SC.StartPaused = true;
  SC.MaxQueued = 1;
  OptimizationService Service(Device, SC);

  OptimizeRequest First = request(WorkloadKind::Softmax);
  First.Shape.Rows = 64;
  ASSERT_EQ(Service.submit(First).How, Admission::Enqueued);

  // The second submit must park on backpressure until the worker
  // starts popping, then be admitted and eventually optimized.
  Ticket Second;
  std::thread Submitter([&] {
    OptimizeRequest R = request(WorkloadKind::Softmax);
    R.Shape.Rows = 96;
    Second = Service.submit(R);
  });
  Service.start();
  Submitter.join();
  ASSERT_EQ(Second.How, Admission::Enqueued);
  EXPECT_EQ(Second.Response.get()->St, OptimizeResponse::Status::Optimized);
  Service.drain();
  EXPECT_EQ(Service.stats().Completed, 2u);
}

TEST(ServeTest, ShutdownCancelsQueuedJobsAndStopsAdmission) {
  gpusim::Gpu Device;
  ServiceConfig SC = tinyService(/*Workers=*/2);
  SC.StartPaused = true; // Nothing runs: every job stays queued.
  OptimizationService Service(Device, SC);

  std::atomic<unsigned> CancelCallbacks{0};
  std::vector<Ticket> Tickets;
  for (unsigned Rows : {64u, 96u, 128u}) {
    OptimizeRequest R = request(WorkloadKind::Softmax);
    R.Shape.Rows = Rows;
    Tickets.push_back(Service.submit(R, [&](const OptimizeResponse &Resp) {
      if (Resp.St == OptimizeResponse::Status::Cancelled)
        ++CancelCallbacks;
    }));
  }
  Service.shutdown();
  for (Ticket &T : Tickets) {
    ASSERT_TRUE(T.valid());
    EXPECT_EQ(T.Response.get()->St, OptimizeResponse::Status::Cancelled);
  }
  EXPECT_EQ(CancelCallbacks.load(), 3u);

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Cancelled, 3u);
  EXPECT_EQ(S.QueuedNow, 0u);
  EXPECT_EQ(S.RunningNow, 0u);
  EXPECT_EQ(Service.submit(request(WorkloadKind::RmsNorm)).How,
            Admission::Rejected);
  EXPECT_GE(Service.stats().Rejected, 1u);
}

TEST(ServeTest, PersistFailuresAreCountedNotSwallowed) {
  gpusim::Gpu Device;
  // A regular file where the deploy directory should be: every
  // create_directories/store call must fail, even running as root.
  test::TempDir Tmp;
  std::string Blocker = Tmp.sub("blocker");
  {
    std::ofstream OS(Blocker);
    OS << "not a directory";
  }
  OptimizationService Service(Device,
                              tinyService(1, Blocker + "/deploy"));
  Ticket T = Service.submit(request(WorkloadKind::Softmax));
  ResponsePtr R = T.Response.get();
  ASSERT_EQ(R->St, OptimizeResponse::Status::Optimized);
  EXPECT_TRUE(R->Result.Verified);
  EXPECT_FALSE(R->Persisted);

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.PersistFailures, 1u);
  EXPECT_EQ(S.PersistStores, 0u);
  EXPECT_EQ(S.DeployedKeys, 0u);
}

TEST(ServeTest, ZeroGameRepeatsAnswerFailedInProcess) {
  // The wire decoder refuses this config before it reaches a service;
  // an in-process submit gets the optimizer's refusal as its answer.
  gpusim::Gpu Device;
  OptimizationService Service(Device, tinyService(1));
  OptimizeRequest R = request(WorkloadKind::Softmax);
  core::OptimizeConfig C = tinyConfig();
  C.Game.Measure.RepeatIters = 0;
  R.Config = C;
  ResponsePtr Resp = Service.submit(R).Response.get();
  EXPECT_EQ(Resp->St, OptimizeResponse::Status::Failed);
  EXPECT_NE(Resp->Error.find("Game.Measure.RepeatIters"), std::string::npos)
      << Resp->Error;
}

TEST(ServeTest, RequestKeySeparatesConfigsAndGpuTypes) {
  core::OptimizeConfig Defaults = tinyConfig();
  OptimizeRequest A = request(WorkloadKind::Softmax);
  OptimizeRequest B = A;
  EXPECT_EQ(OptimizationService::requestKey(A, Defaults),
            OptimizationService::requestKey(B, Defaults));

  B.GpuType = "H100-SIM";
  EXPECT_NE(OptimizationService::requestKey(A, Defaults),
            OptimizationService::requestKey(B, Defaults));

  // A result-relevant config override must change the key (different
  // training seeds are different deployments)...
  OptimizeRequest C = A;
  C.Config = Defaults;
  C.Config->Ppo.Seed = Defaults.Ppo.Seed + 1;
  EXPECT_NE(OptimizationService::requestKey(A, Defaults),
            OptimizationService::requestKey(C, Defaults));

  // ...and so must a different stall table (it shapes the action mask,
  // hence the optimized schedule)...
  OptimizeRequest E = A;
  E.Config = Defaults;
  E.Config->Game.Table = analysis::StallTable::builtin();
  EXPECT_NE(OptimizationService::requestKey(A, Defaults),
            OptimizationService::requestKey(E, Defaults));

  // ...while wall-clock-only knobs must not (the determinism contract
  // makes worker counts irrelevant to the result).
  OptimizeRequest D = A;
  D.Config = Defaults;
  D.Config->RolloutWorkers = 8;
  D.Config->AutotuneWorkers = 8;
  EXPECT_EQ(OptimizationService::requestKey(A, Defaults),
            OptimizationService::requestKey(D, Defaults));
}

TEST(ServeTest, RequestKeyDigestIsPinned) {
  // Deployed cubins and stored policies are filed under these keys, so
  // the digest of the result-relevant field list must never drift: a
  // changed digest orphans every deployment made before it.
  OptimizeRequest R = request(WorkloadKind::Softmax);
  const core::OptimizeConfig Defaults;
  EXPECT_EQ(OptimizationService::requestKey(R, Defaults),
            "A100-SIM-softmax_1x512x512x2048_4x4096x32_8x256-"
            "cfgb2d692934ec090a2-050aca106d00d82a");

  // Non-default values of every field type: stall-table entries,
  // doubles, unsigneds, bools and 64-bit fields.
  core::OptimizeConfig C = tinyConfig();
  C.Game.Table = analysis::StallTable::builtin();
  C.ConditionEmbedding = true;
  C.Ppo.Lr = 1e-3;
  C.Ppo.AnnealLr = false;
  C.Ppo.Channels = 8;
  C.Game.Measure.ClearL2BetweenReps = false;
  C.Game.Measure.MaxBlocks = 2;
  C.AutotuneSeed = 99;
  C.NumEnvs = 2;
  R.Config = C;
  EXPECT_EQ(OptimizationService::requestKey(R, Defaults),
            "A100-SIM-softmax_1x512x512x2048_4x4096x32_8x256-"
            "cfga5ed8592db34c0d4-cb8df21e51402484");
}

TEST(ServeTest, AdmissionKeyMatchesRequestKey) {
  // admit() keys a request without a Config from the digest its service
  // took at construction, and digests only an overriding Config. Both
  // must name the file requestKey() names, in process and on the wire.
  gpusim::Gpu Device;
  test::TempDir Tmp;
  ServiceConfig SC = tinyService(1, Tmp.sub("deploy"));
  OptimizationService Service(Device, SC);
  net::Server Srv(Service, net::ServerConfig{});
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port)) << Port.error().message();
  net::ClientConfig CC;
  CC.Port = *Port;
  net::Client Cli(CC);

  OptimizeRequest Plain = request(WorkloadKind::Softmax);
  Plain.AllowDegraded = false; // Each submit runs its own exact job.
  OptimizeRequest Custom = Plain;
  Custom.Config = tinyConfig();
  Custom.Config->Ppo.Lr = 1e-3;
  for (const OptimizeRequest &R : {Plain, Custom}) {
    const std::string Want = OptimizationService::requestKey(R, SC.Defaults);
    Ticket T = Service.submit(R);
    EXPECT_EQ(T.Key, Want);
    EXPECT_EQ(T.Response.get()->Key, Want);
    // The job deployed the key, so the wire call is a lookup hit.
    Expected<net::WireResponse> Wire = Cli.call(R);
    ASSERT_TRUE(static_cast<bool>(Wire)) << Wire.error().message();
    EXPECT_EQ(Wire->St, net::WireStatus::LookupHit);
    EXPECT_EQ(Wire->Key, Want);
  }
  EXPECT_NE(OptimizationService::requestKey(Plain, SC.Defaults),
            OptimizationService::requestKey(Custom, SC.Defaults));
  Srv.stop();
  Service.shutdown();

  // Other Defaults, other key for the same request: here the Defaults
  // equal Custom's Config, so Plain keys exactly as Custom did.
  ServiceConfig Other = tinyService(1);
  Other.Defaults.Ppo.Lr = 1e-3;
  Other.StartPaused = true;
  OptimizationService Second(Device, Other);
  Ticket T = Second.submit(Plain);
  EXPECT_EQ(T.Key, OptimizationService::requestKey(Plain, Other.Defaults));
  EXPECT_NE(T.Key, OptimizationService::requestKey(Plain, SC.Defaults));
  EXPECT_EQ(T.Key, OptimizationService::requestKey(Custom, SC.Defaults));
  Second.shutdown();
}

TEST(ServeTest, ThrowingCallbacksAreContainedOnBothPaths) {
  gpusim::Gpu Device;
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  OptimizationService Service(Device, tinyService(1, Dir));

  // Optimize-job path: the throw must neither kill the worker nor
  // wedge the service.
  Ticket A = Service.submit(request(WorkloadKind::Softmax),
                            [](const OptimizeResponse &) {
                              throw std::runtime_error("boom");
                            });
  EXPECT_EQ(A.Response.get()->St, OptimizeResponse::Status::Optimized);

  // Lookup-hit path: the throw must not leak the Outstanding count
  // (a leak would hang the drain below forever).
  Ticket B = Service.submit(request(WorkloadKind::Softmax),
                            [](const OptimizeResponse &) {
                              throw std::runtime_error("boom");
                            });
  EXPECT_EQ(B.How, Admission::LookupHit);

  Service.drain();
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Completed, 1u);
  EXPECT_EQ(S.LookupHits, 1u);
  // Still fully operational after both throws.
  Ticket C = Service.submit(request(WorkloadKind::RmsNorm));
  EXPECT_EQ(C.Response.get()->St, OptimizeResponse::Status::Optimized);
}

TEST(ServeTest, DrainQuiescesAndKeepsAccepting) {
  gpusim::Gpu Device;
  OptimizationService Service(Device, tinyService(/*Workers=*/2));
  Service.submit(request(WorkloadKind::Softmax));
  Service.submit(request(WorkloadKind::RmsNorm));
  Service.drain();
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.QueuedNow, 0u);
  EXPECT_EQ(S.RunningNow, 0u);
  EXPECT_EQ(S.Completed, 2u);
  // Still accepting after a drain.
  Ticket T = Service.submit(request(WorkloadKind::Softmax));
  EXPECT_NE(T.How, Admission::Rejected);
  ASSERT_TRUE(T.valid());
  T.Response.wait();
}

TEST(ServeTest, AgingPromotesStarvedLowPriorityJobs) {
  // Starvation regression: an old low-priority job accrues effective
  // priority while queued (AgingInterval/AgingStep), so it eventually
  // outranks younger high-priority work instead of waiting forever.
  gpusim::Gpu Device;
  support::FakeClock Clock;
  ServiceConfig SC = tinyService(/*Workers=*/1);
  SC.StartPaused = true; // Admission fixed before the worker starts.
  SC.ClockSrc = &Clock;
  SC.AgingInterval = std::chrono::milliseconds(10);
  SC.AgingStep = 1;
  OptimizationService Service(Device, SC);

  std::mutex OrderMutex;
  std::vector<int> Completed;
  auto Submit = [&](unsigned Rows, int Priority) {
    OptimizeRequest R = request(WorkloadKind::Softmax, Priority);
    R.Shape.Rows = Rows;
    return Service.submit(R, [&, Priority](const OptimizeResponse &) {
      std::lock_guard<std::mutex> Lock(OrderMutex);
      Completed.push_back(Priority);
    });
  };
  // The low-priority job arrives first, then waits 100ms of fake time
  // (10 aging intervals -> effective priority 10) while two priority-5
  // jobs pile in behind it. Without aging it would run dead last.
  std::vector<Ticket> Tickets;
  Tickets.push_back(Submit(64, 0));
  Clock.advance(std::chrono::milliseconds(100));
  Tickets.push_back(Submit(96, 5));
  Tickets.push_back(Submit(128, 5));
  for (const Ticket &T : Tickets)
    ASSERT_EQ(T.How, Admission::Enqueued);

  Service.start();
  Service.drain();
  ASSERT_EQ(Completed.size(), 3u);
  EXPECT_EQ(Completed[0], 0); // Aged past both priority-5 jobs.
}

TEST(ServeTest, RejectedTicketsCarryReadyResponses) {
  // A rejected submission must resolve, not block: its future is
  // already ready with Status::Rejected and a reason, so generic
  // "submit then .get()" callers never hang on an unlucky admission.
  gpusim::Gpu Device;
  ServiceConfig SC = tinyService(/*Workers=*/1);
  SC.StartPaused = true;
  SC.MaxQueued = 1;
  OptimizationService Service(Device, SC);

  Ticket A = Service.trySubmit(request(WorkloadKind::Softmax));
  ASSERT_EQ(A.How, Admission::Enqueued);
  OptimizeRequest Other = request(WorkloadKind::RmsNorm);
  Ticket Full = Service.trySubmit(Other);
  EXPECT_EQ(Full.How, Admission::Rejected);
  EXPECT_FALSE(Full.valid()); // Still "not admitted"...
  ASSERT_TRUE(Full.Response.valid()); // ...but the future resolves.
  ASSERT_EQ(Full.Response.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ResponsePtr R = Full.Response.get();
  EXPECT_EQ(R->St, OptimizeResponse::Status::Rejected);
  EXPECT_NE(R->Error.find("queue full"), std::string::npos);

  Service.shutdown();
  // Post-shutdown submissions reject with a clean drain status too.
  Ticket Late = Service.submit(request(WorkloadKind::Softmax));
  EXPECT_EQ(Late.How, Admission::Rejected);
  ASSERT_TRUE(Late.Response.valid());
  ASSERT_EQ(Late.Response.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ResponsePtr L = Late.Response.get();
  EXPECT_EQ(L->St, OptimizeResponse::Status::Rejected);
  EXPECT_NE(L->Error.find("draining or shut down"), std::string::npos);
  EXPECT_FALSE(Service.accepting());
}
