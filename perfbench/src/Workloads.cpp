//===- perfbench/src/Workloads.cpp - The four serving workloads ------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload drives one net::Client connection against a loopback
/// net::Server hosted in this process:
///
///   cold (cold_paper_shapes, cold_rl_bound)
///       closed loop, one request outstanding, 1 worker; every pass runs
///       on a fresh rig over an empty deploy directory, so every request
///       is a cold optimize job. Set-up starts the rig and sends it one
///       warm-up job on a key the passes never ask for.
///   warm_lookup
///       closed loop, one request outstanding, over a deploy directory
///       seeded in setup; no simulation runs. Every kWarmSegmentMs the
///       loop pauses for a host probe.
///   mixed_serve
///       open loop on a seeded schedule, 2 workers: lookups at a steady
///       rate, cold misses with a single-flight duplicate each, and
///       near-miss shapes served Degraded and upgraded in the background.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Rng.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

using namespace cuasmrl;
using namespace perfbench;

namespace {

/// Seeds \p DeployDir (and the policy shelf in \p PolicyDir, when set)
/// with one in-process job per key, one at a time.
void seedDeployDir(RunData &D, const gpusim::Gpu &Proto,
                   const core::OptimizeConfig &Job,
                   const std::vector<KeySpec> &Keys,
                   const std::string &DeployDir, const std::string &PolicyDir,
                   bool Record) {
  serve::ServiceConfig SC = serviceConfig(Job, 1, DeployDir);
  SC.PolicyDir = PolicyDir;
  serve::OptimizationService Seeder(Proto, SC);
  for (const KeySpec &K : Keys) {
    serve::ResponsePtr P = Seeder.submit(K.request(false)).Response.get();
    if (!P || P->St != serve::OptimizeResponse::Status::Optimized ||
        !P->Persisted) {
      D.SetupOk = false;
      continue;
    }
    if (Record)
      D.Quality[K.Key] = net::summarizeResponse(*P);
  }
}

/// Each key once over the wire and once in-process on the same service;
/// the two answers must be identical.
void checkWireAgainstInProcess(RunData &D, Rig &R,
                               const std::vector<KeySpec> &Keys) {
  for (const KeySpec &K : Keys) {
    Expected<net::WireResponse> W = R.Client->call(K.request(true));
    serve::ResponsePtr P = R.Service.submit(K.request(true)).Response.get();
    ++D.IdentityChecked;
    if (!W || !P || !wireIdentical(*W, net::summarizeResponse(*P)))
      D.IdentityOk = false;
  }
}

void probeHost(RunData &D, unsigned Runs) {
  for (unsigned I = 0; I < Runs; ++I)
    D.ProbeMs.push_back(probeHostMs());
}

void collectStats(RunData &D, Rig &R) {
  addServiceStats(D.Service, R.Service.stats());
  addNetStats(D.Net, R.Server.stats());
}

} // namespace

void perfbench::runCold(RunData &D, const Options &O,
                        const gpusim::Gpu &Proto, OutputChecker &Checker,
                        const core::OptimizeConfig &Job,
                        const std::vector<KeySpec> &Keys) {
  Rng Order(mixSeed(O.Seed, 0x636f6c64ull));
  const KeySpec Warmup = warmupKey(Job);
  for (const KeySpec &K : Keys) {
    if (K.Key == Warmup.Key)
      throw std::logic_error("the warm-up key is a measured key");
    Checker.know(K);
  }

  std::unique_ptr<Rig> R;
  std::unique_ptr<TempDir> Dir;
  auto SetUp = [&] {
    R.reset();
    Dir.reset();
    const Clock::time_point Start = Clock::now();
    Dir = std::make_unique<TempDir>(O.TmpRoot);
    R = std::make_unique<Rig>(Proto,
                              serviceConfig(Job, 1, Dir->sub("deploy")));
    Expected<net::WireResponse> W = R->Client->call(Warmup.request(false));
    if (!W || W->St != net::WireStatus::Optimized)
      D.SetupOk = false;
    D.SetupS.push_back(secondsSince(Start));
  };
  for (unsigned I = 0; I < kSetupRepeats; ++I)
    SetUp();

  std::map<std::string, net::WireResponse> FirstAnswer;
  for (unsigned Pass = 0; Pass == 0 || D.WindowS < O.Seconds; ++Pass) {
    if (Pass > 0)
      SetUp();
    std::vector<size_t> Perm(Keys.size());
    std::iota(Perm.begin(), Perm.end(), size_t(0));
    Order.shuffle(Perm);
    const Clock::time_point PassStart = Clock::now();
    Clock::time_point PrevDone = PassStart;
    for (size_t I : Perm) {
      const Clock::time_point ProbeStart = Clock::now();
      probeHost(D, kColdProbes);
      PrevDone += Clock::now() - ProbeStart; // Probing is not lateness.
      const KeySpec &K = Keys[I];
      const Clock::time_point Sent = Clock::now();
      D.LatenessMs.push_back(msBetween(PrevDone, Sent));
      Expected<net::WireResponse> W = R->Client->call(K.request(false));
      const Clock::time_point Done = Clock::now();
      PrevDone = Done;
      if (!W) {
        D.Fail.record(Verdict::TransportError);
        continue;
      }
      ++D.Completed;
      D.LatencyMs.push_back(msBetween(Sent, Done));
      D.KeyLatencyMs[K.Key].push_back(D.LatencyMs.back());
      D.WallMs.push_back(W->WallMs);
      Verdict V = classify(RequestClass::Cold, *W, K.Key);
      if (V == Verdict::Ok && !Checker.note(K.Key, W->Binary))
        V = Verdict::CheckFailed;
      D.Fail.record(V);
      if (V != Verdict::Ok)
        continue;
      auto It = FirstAnswer.find(K.Key);
      if (It == FirstAnswer.end())
        FirstAnswer.emplace(K.Key, *W);
      else if (!wireIdentical(It->second, *W))
        D.IdentityOk = false; // Every pass must answer bit-identically.
    }
    D.WindowS += secondsSince(PassStart);
    collectStats(D, *R);
  }

  std::vector<KeySpec> Deployed;
  for (const KeySpec &K : Keys) {
    auto It = FirstAnswer.find(K.Key);
    if (It == FirstAnswer.end())
      continue;
    D.Quality.emplace(K.Key, It->second);
    D.Replays.push_back({K, It->second});
    if (It->second.Persisted)
      Deployed.push_back(K);
  }
  if (O.Trace)
    probeWarmPath(D, *R, Dir->sub("deploy"), Deployed, 2000);
  R.reset();

  // A seeded sample re-run through an in-process submit on a fresh
  // service must match its wire answer bit for bit.
  const KeySpec &Pick = Keys[Order.uniformInt(Keys.size())];
  TempDir Fresh(O.TmpRoot);
  serve::OptimizationService Svc(Proto,
                                 serviceConfig(Job, 1, Fresh.sub("deploy")));
  serve::ResponsePtr P = Svc.submit(Pick.request(false)).Response.get();
  ++D.IdentityChecked;
  auto It = FirstAnswer.find(Pick.Key);
  if (!P || It == FirstAnswer.end() ||
      !wireIdentical(net::summarizeResponse(*P), It->second))
    D.IdentityOk = false;
}

void perfbench::runWarm(RunData &D, const Options &O,
                        const gpusim::Gpu &Proto, OutputChecker &Checker) {
  const core::OptimizeConfig Job = servingConfig();
  const std::vector<KeySpec> Keys = testKeys(Job, 1);
  for (const KeySpec &K : Keys)
    Checker.know(K);

  std::unique_ptr<Rig> R;
  std::unique_ptr<TempDir> Dir;
  for (unsigned I = 0; I < kSetupRepeats; ++I) {
    R.reset();
    Dir.reset();
    const Clock::time_point Start = Clock::now();
    Dir = std::make_unique<TempDir>(O.TmpRoot);
    seedDeployDir(D, Proto, Job, Keys, Dir->sub("deploy"), "",
                  I + 1 == kSetupRepeats);
    R = std::make_unique<Rig>(Proto,
                              serviceConfig(Job, 1, Dir->sub("deploy")));
    D.SetupS.push_back(secondsSince(Start));
  }
  for (const KeySpec &K : Keys) {
    auto It = D.Quality.find(K.Key);
    if (It != D.Quality.end())
      D.Replays.push_back({K, It->second});
  }

  Rng Order(mixSeed(O.Seed, 0x7761726dull));
  std::vector<size_t> Cycle(Keys.size());
  std::iota(Cycle.begin(), Cycle.end(), size_t(0));
  Order.shuffle(Cycle);
  const size_t Offset = Order.uniformInt(Cycle.size());

  // One request out at a time. With four, the median latency depended on
  // whether the client thread or the server's IO thread was the slower,
  // which flips with the host; one makes latency a plain round trip.
  constexpr unsigned Window = 1;
  struct Pending {
    size_t KeyIdx;
    Clock::time_point Sent;
  };
  std::unordered_map<uint64_t, Pending> InFlight;
  uint64_t Next = 0;
  auto SendNext = [&](Clock::time_point Due) {
    const size_t KeyIdx = Cycle[(Offset + Next++) % Cycle.size()];
    const Clock::time_point Sent = Clock::now();
    D.LatenessMs.push_back(msBetween(Due, Sent));
    Expected<uint64_t> Id = R->Client->send(Keys[KeyIdx].request(true));
    if (!Id) {
      D.Fail.record(Verdict::TransportError);
      return;
    }
    InFlight.emplace(*Id, Pending{KeyIdx, Sent});
  };

  // Segments of kWarmSegmentMs, each after a drained window and a probe.
  const Clock::time_point Start = Clock::now();
  bool Lost = false;
  while (!Lost && secondsSince(Start) < O.Seconds) {
    probeHost(D, kWarmProbes);
    const Clock::time_point SegmentStart = Clock::now();
    for (unsigned I = 0; I < Window; ++I)
      SendNext(SegmentStart);
    while (!InFlight.empty()) {
      Expected<std::pair<uint64_t, net::WireResponse>> Got =
          R->Client->receive();
      const Clock::time_point Done = Clock::now();
      if (!Got) {
        for (size_t I = 0; I < InFlight.size(); ++I)
          D.Fail.record(Verdict::TransportError);
        Lost = true;
        break;
      }
      auto It = InFlight.find(Got->first);
      if (It == InFlight.end()) {
        D.Fail.record(Verdict::CheckFailed);
        continue;
      }
      const KeySpec &K = Keys[It->second.KeyIdx];
      const net::WireResponse &W = Got->second;
      ++D.Completed;
      D.LatencyMs.push_back(msBetween(It->second.Sent, Done));
      D.WallMs.push_back(W.WallMs);
      Verdict V = classify(RequestClass::Lookup, W, K.Key);
      if (V == Verdict::Ok && !Checker.note(K.Key, W.Binary))
        V = Verdict::CheckFailed;
      D.Fail.record(V);
      InFlight.erase(It);
      if (msBetween(SegmentStart, Done) < kWarmSegmentMs)
        SendNext(Done);
    }
    D.WindowS += secondsSince(SegmentStart);
  }
  collectStats(D, *R);

  checkWireAgainstInProcess(D, *R, Keys);
  if (O.Trace)
    probeWarmPath(D, *R, Dir->sub("deploy"), Keys, 2000);
}

void perfbench::runMixed(RunData &D, const Options &O,
                         const gpusim::Gpu &Proto, OutputChecker &Checker) {
  const core::OptimizeConfig Job = servingConfig();
  const std::vector<KeySpec> Seeds = testKeys(Job, 1);
  const std::vector<KeySpec> Misses = testKeys(Job, 2);
  const std::vector<KeySpec> Nears = testKeys(Job, 4);
  for (const std::vector<KeySpec> *Set : {&Seeds, &Misses, &Nears})
    for (const KeySpec &K : *Set)
      Checker.know(K);

  std::unique_ptr<Rig> R;
  std::unique_ptr<TempDir> Dir;
  for (unsigned I = 0; I < kSetupRepeats; ++I) {
    R.reset();
    Dir.reset();
    const Clock::time_point Start = Clock::now();
    Dir = std::make_unique<TempDir>(O.TmpRoot);
    seedDeployDir(D, Proto, Job, Seeds, Dir->sub("deploy"),
                  Dir->sub("policy"), /*Record=*/false);
    serve::ServiceConfig SC = serviceConfig(Job, 2, Dir->sub("deploy"));
    SC.PolicyDir = Dir->sub("policy");
    SC.PersistPolicies = false; // A fixed shelf keeps answers fixed.
    R = std::make_unique<Rig>(Proto, SC);
    D.SetupS.push_back(secondsSince(Start));
  }

  // The schedule: a lookup every millisecond; the six misses (each with
  // a duplicate 20 ms later) and six near misses spread over the first
  // 80% of the window.
  struct Event {
    double DueS;
    RequestClass Class;
    const KeySpec *Key;
  };
  std::vector<Event> Events;
  Rng Sched(mixSeed(O.Seed, 0x6d697865ull));
  for (unsigned I = 0; I < unsigned(O.Seconds * 1000.0); ++I)
    Events.push_back({I / 1000.0, RequestClass::Lookup,
                      &Seeds[Sched.uniformInt(Seeds.size())]});
  const double Slot = 0.8 * O.Seconds / double(Misses.size());
  std::vector<size_t> MissOrder(Misses.size()), NearOrder(Nears.size());
  std::iota(MissOrder.begin(), MissOrder.end(), size_t(0));
  std::iota(NearOrder.begin(), NearOrder.end(), size_t(0));
  Sched.shuffle(MissOrder);
  Sched.shuffle(NearOrder);
  for (size_t J = 0; J < Misses.size(); ++J) {
    const double T = (double(J) + Sched.uniformReal(0.1, 0.9)) * Slot;
    Events.push_back({T, RequestClass::Miss, &Misses[MissOrder[J]]});
    Events.push_back({T + 0.02, RequestClass::MissDup, &Misses[MissOrder[J]]});
    const double U = (double(J) + Sched.uniformReal(0.1, 0.9)) * Slot;
    Events.push_back({U, RequestClass::NearMiss, &Nears[NearOrder[J]]});
  }
  std::stable_sort(Events.begin(), Events.end(),
                   [](const Event &A, const Event &B) {
                     return A.DueS < B.DueS;
                   });

  auto IsFast = [](RequestClass C) {
    return C == RequestClass::Lookup || C == RequestClass::NearMiss;
  };
  struct Pending {
    const Event *E;
    Clock::time_point Due;
  };
  std::unordered_map<uint64_t, Pending> InFlight;
  // Lookups and near misses are answered at admission, so a receive
  // while one is outstanding returns at once; with only misses in
  // flight the generator sleeps to the next due time instead.
  size_t FastInFlight = 0;
  std::map<std::string, net::WireResponse> MissAnswers;

  const Clock::time_point Start = Clock::now();
  size_t NextEvent = 0, ProbedAt = Events.size();
  while (NextEvent < Events.size() || !InFlight.empty()) {
    if (NextEvent < Events.size()) {
      const Event &E = Events[NextEvent];
      const Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(E.DueS));
      const Clock::time_point Now = Clock::now();
      if (Due <= Now) {
        D.LatenessMs.push_back(msBetween(Due, Now));
        ++NextEvent;
        Expected<uint64_t> Id = R->Client->send(
            E.Key->request(E.Class == RequestClass::NearMiss));
        if (!Id) {
          D.Fail.record(Verdict::TransportError);
          continue;
        }
        InFlight.emplace(*Id, Pending{&E, Due});
        FastInFlight += IsFast(E.Class) ? 1 : 0;
        continue;
      }
      if (FastInFlight == 0) {
        // A probe in every fifth gap long enough for one, while no
        // request is out (so no miss job competes with it for the CPU).
        if (NextEvent % 5 == 0 && ProbedAt != NextEvent && InFlight.empty() &&
            msBetween(Now, Due) >= kMixedProbeGapMs) {
          ProbedAt = NextEvent;
          probeHost(D, 1);
        } else {
          std::this_thread::sleep_until(Due);
        }
        continue;
      }
    }
    Expected<std::pair<uint64_t, net::WireResponse>> Got =
        R->Client->receive();
    const Clock::time_point Done = Clock::now();
    if (!Got) {
      for (size_t I = 0; I < InFlight.size(); ++I)
        D.Fail.record(Verdict::TransportError);
      for (; NextEvent < Events.size(); ++NextEvent)
        D.Fail.record(Verdict::TransportError);
      break;
    }
    auto It = InFlight.find(Got->first);
    if (It == InFlight.end()) {
      D.Fail.record(Verdict::CheckFailed);
      continue;
    }
    const Event &E = *It->second.E;
    const net::WireResponse &W = Got->second;
    ++D.Completed;
    D.WallMs.push_back(W.WallMs);
    (IsFast(E.Class) ? D.LatencyMs : D.MissLatencyMs)
        .push_back(msBetween(It->second.Due, Done));
    Verdict V = classify(E.Class, W, E.Key->Key);
    const std::string &Served =
        W.St == net::WireStatus::Degraded ? W.DegradedFrom : W.Key;
    if (V == Verdict::Ok && !Checker.note(Served, W.Binary))
      V = Verdict::CheckFailed;
    D.Fail.record(V);
    if (V == Verdict::Ok && E.Class == RequestClass::Miss)
      MissAnswers.emplace(E.Key->Key, W);
    FastInFlight -= IsFast(E.Class) ? 1 : 0;
    InFlight.erase(It);
  }
  D.WindowS = secondsSince(Start);
  D.OpenLoop = true;
  R->Service.drain(); // Background upgrades land before any check.
  collectStats(D, *R);

  for (const KeySpec &K : Misses) {
    auto It = MissAnswers.find(K.Key);
    if (It == MissAnswers.end())
      continue;
    D.Quality.emplace(K.Key, It->second);
    D.Replays.push_back({K, It->second});
  }
  checkWireAgainstInProcess(D, *R, Seeds);
  if (O.Trace) {
    probeWarmPath(D, *R, Dir->sub("deploy"), Seeds, 2000);
    D.Shelf = std::make_unique<serve::PolicyStore>(Dir->sub("policy"));
  }
  R.reset();
  D.ShelfDir = std::move(Dir); // The replay reads the shelf.
}
