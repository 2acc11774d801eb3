//===- perfbench/src/Common.cpp - Keys, rig and output checks --------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "kernels/Builder.h"
#include "kernels/Generators.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <type_traits>

using namespace cuasmrl;
using namespace perfbench;

core::OptimizeConfig perfbench::servingConfig() {
  core::OptimizeConfig C;
  C.Ppo.TotalSteps = 128;
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
  C.AutotuneMeasure.RepeatIters = 3;
  C.ProbTestRounds = 1;
  C.RolloutWorkers = 1;
  C.AutotuneWorkers = 1;
  return C;
}

core::OptimizeConfig perfbench::rlBoundConfig() {
  core::OptimizeConfig C = servingConfig();
  const rl::PpoConfig Defaults;
  C.Ppo.Channels = Defaults.Channels;
  C.Ppo.Hidden = Defaults.Hidden;
  return C;
}

serve::OptimizeRequest KeySpec::request(bool AllowDegraded) const {
  serve::OptimizeRequest R;
  R.Kind = Kind;
  R.Shape = Shape;
  R.GpuType = kGpuType;
  R.AllowDegraded = AllowDegraded;
  return R;
}

KeySpec perfbench::makeKey(kernels::WorkloadKind Kind,
                           const kernels::WorkloadShape &Shape,
                           const core::OptimizeConfig &Job) {
  KeySpec K;
  K.Kind = Kind;
  K.Shape = Shape;
  K.Key = serve::OptimizationService::requestKey(K.request(true), Job);
  return K;
}

std::vector<KeySpec> perfbench::testKeys(const core::OptimizeConfig &Job,
                                         unsigned Scale) {
  std::vector<KeySpec> Keys;
  for (kernels::WorkloadKind W : kernels::allWorkloads()) {
    kernels::WorkloadShape S = kernels::testShape(W);
    switch (W) {
    case kernels::WorkloadKind::FusedFF:
    case kernels::WorkloadKind::MmLeakyRelu:
    case kernels::WorkloadKind::Bmm:
      S.M *= Scale;
      break;
    case kernels::WorkloadKind::FlashAttention:
      S.SeqLen *= Scale;
      break;
    case kernels::WorkloadKind::Softmax:
    case kernels::WorkloadKind::RmsNorm:
      S.Rows *= Scale;
      break;
    }
    Keys.push_back(makeKey(W, S, Job));
  }
  return Keys;
}

KeySpec perfbench::warmupKey(const core::OptimizeConfig &Job) {
  for (const KeySpec &K : testKeys(Job, 3))
    if (K.Kind == kernels::WorkloadKind::Softmax)
      return K;
  throw std::logic_error("allWorkloads() lacks Softmax");
}

serve::ServiceConfig perfbench::serviceConfig(const core::OptimizeConfig &Job,
                                              unsigned Workers,
                                              const std::string &DeployDir) {
  serve::ServiceConfig SC;
  SC.Workers = Workers;
  SC.Seed = kServiceSeed;
  SC.DeployDir = DeployDir;
  SC.Defaults = Job;
  return SC;
}

TempDir::TempDir(const std::string &Root) {
  std::filesystem::create_directories(Root);
  std::string Template = Root + "/run-XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  if (!::mkdtemp(Buf.data()))
    throw std::runtime_error("mkdtemp failed under " + Root);
  Path = Buf.data();
}

TempDir::~TempDir() {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
}

Rig::Rig(const gpusim::Gpu &Proto, serve::ServiceConfig SC)
    : Service(Proto, std::move(SC)), Server(Service, net::ServerConfig()) {
  Expected<uint16_t> Port = Server.start();
  if (!Port)
    throw std::runtime_error("server start: " + Port.error().message());
  net::ClientConfig CC;
  CC.Port = *Port;
  Client = std::make_unique<net::Client>(CC);
  Expected<bool> Ok = Client->connect();
  if (!Ok)
    throw std::runtime_error("client connect: " + Ok.error().message());
}

bool perfbench::statusAllowed(RequestClass C, net::WireStatus St) {
  using S = net::WireStatus;
  switch (C) {
  case RequestClass::Cold:
  case RequestClass::Miss:
    return St == S::Optimized;
  case RequestClass::Lookup:
    return St == S::LookupHit;
  case RequestClass::MissDup:
    return St == S::Optimized || St == S::LookupHit;
  case RequestClass::NearMiss:
    return St == S::Degraded;
  }
  return false;
}

Verdict perfbench::classify(RequestClass C, const net::WireResponse &R,
                            const std::string &ExpectedKey) {
  if (!statusAllowed(C, R.St))
    return Verdict::WrongStatus;
  if (R.Key != ExpectedKey || !R.HasBinary)
    return Verdict::CheckFailed;
  return Verdict::Ok;
}

bool perfbench::sameCubin(const cubin::CubinFile &A,
                          const cubin::CubinFile &B) {
  const cubin::KernelInfo &IA = A.info(), &IB = B.info();
  if (IA.Name != IB.Name || IA.GridX != IB.GridX || IA.GridY != IB.GridY ||
      IA.GridZ != IB.GridZ || IA.WarpsPerBlock != IB.WarpsPerBlock ||
      IA.SharedBytes != IB.SharedBytes ||
      A.sections().size() != B.sections().size())
    return false;
  for (size_t I = 0; I < A.sections().size(); ++I)
    if (A.sections()[I].Name != B.sections()[I].Name ||
        A.sections()[I].Data != B.sections()[I].Data)
      return false;
  return true;
}

bool perfbench::wireIdentical(const net::WireResponse &A,
                              const net::WireResponse &B) {
  return A.St == B.St && A.Key == B.Key && A.HasBinary == B.HasBinary &&
         sameCubin(A.Binary, B.Binary) && A.Persisted == B.Persisted &&
         A.DegradedFrom == B.DegradedFrom &&
         A.WarmStartedFrom == B.WarmStartedFrom && A.Error == B.Error &&
         A.AutotuneValid == B.AutotuneValid && A.Verified == B.Verified &&
         A.TritonUs == B.TritonUs && A.OptimizedUs == B.OptimizedUs &&
         A.TrainingUpdates == B.TrainingUpdates &&
         A.WarmStartTensors == B.WarmStartTensors;
}

bool OutputChecker::note(const std::string &ServedKey,
                         const cubin::CubinFile &Bin) {
  if (!Specs.count(ServedKey))
    return false;
  auto It = Entries.find(ServedKey);
  if (It == Entries.end()) {
    Entries.emplace(ServedKey, Entry{Bin, 1});
    return true;
  }
  ++It->second.Responses;
  return sameCubin(It->second.Bin, Bin);
}

uint64_t OutputChecker::verifyAll() const {
  uint64_t Failed = 0;
  for (const auto &[Key, E] : Entries)
    if (!oracleCheck(Specs.at(Key), E.Bin))
      Failed += E.Responses;
  return Failed;
}

namespace {

std::vector<std::pair<uint64_t, uint64_t>>
statementMultiset(const sass::Program &P) {
  std::vector<std::pair<uint64_t, uint64_t>> H;
  H.reserve(P.size());
  for (const sass::Statement &S : P.statements())
    H.push_back(S.contentHashes());
  std::sort(H.begin(), H.end());
  return H;
}

} // namespace

bool OutputChecker::oracleCheck(const KeySpec &K,
                                const cubin::CubinFile &Bin) const {
  Expected<sass::Program> Served = cubin::disassemble(Bin);
  if (!Served)
    return false;
  const auto Want = statementMultiset(*Served);
  const cubin::KernelInfo &Info = Bin.info();
  for (const kernels::TileConfig &Cfg : kernels::candidateConfigs(K.Kind)) {
    if (!kernels::configFits(K.Kind, K.Shape, Cfg))
      continue;
    gpusim::Gpu Local(Proto);
    Rng BuildRng(mixSeed(Seed, fnv1a64(K.Key)));
    kernels::BuiltKernel O3 =
        kernels::buildKernel(Local, K.Kind, K.Shape, Cfg,
                             kernels::ScheduleStyle::TritonO3, BuildRng);
    const gpusim::KernelLaunch &L = O3.Launch;
    if (L.GridX != Info.GridX || L.GridY != Info.GridY ||
        L.GridZ != Info.GridZ || L.WarpsPerBlock != Info.WarpsPerBlock ||
        L.SharedBytes != Info.SharedBytes ||
        statementMultiset(O3.Prog) != Want)
      continue;
    // One seeded input stream drives both schedules.
    const uint64_t InputSeed = mixSeed(Seed, fnv1a64(K.Key) + 1);
    Rng RefIn(InputSeed);
    O3.randomizeInputs(Local, RefIn);
    gpusim::RunResult Ref =
        Local.run(O3.Prog, O3.Launch, gpusim::RunMode::Oracle);
    if (!Ref.Valid)
      return false;
    const std::vector<uint32_t> Expect = O3.readOutput(Local);
    Rng GotIn(InputSeed);
    O3.randomizeInputs(Local, GotIn);
    gpusim::RunResult Got =
        Local.run(*Served, O3.Launch, gpusim::RunMode::Oracle);
    return Got.Valid && O3.readOutput(Local) == Expect;
  }
  return false; // No -O3 build of this workload matches the cubin.
}

namespace {

/// Adds every counter \p Visit enumerates in \p S into \p Acc.
template <typename StatsT, typename VisitFn>
void accumulate(StatsT &Acc, const StatsT &S, VisitFn Visit) {
  std::vector<double> Values;
  Visit(S, [&](const char *, const auto &V) { Values.push_back(double(V)); });
  size_t I = 0;
  Visit(Acc, [&](const char *, auto &V) {
    V += static_cast<std::decay_t<decltype(V)>>(Values[I++]);
  });
}

} // namespace

void perfbench::addServiceStats(serve::ServiceStats &Acc,
                                const serve::ServiceStats &S) {
  accumulate(Acc, S, [](auto &St, auto &&F) {
    serve::visitServiceCounters(St, F);
  });
  Acc.Counters += S.Counters;
}

void perfbench::addNetStats(net::NetStats &Acc, const net::NetStats &S) {
  accumulate(Acc, S,
             [](auto &St, auto &&F) { net::visitNetCounters(St, F); });
}
