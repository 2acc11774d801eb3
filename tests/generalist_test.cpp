//===- tests/generalist_test.cpp - generalist policy / warm-start tests ------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generalist-policy contracts: the conditioned embedding's legacy
/// prefix is bit-identical to the unconditioned path (randomized
/// differential), mixed-kernel rollout batches are bit-identical for
/// any worker count, Optimizer::optimizeMany trains one shared policy
/// deterministically, the PolicyStore round-trips and rebuilds from
/// disk, and warm-started serving transfers tensors from the nearest
/// stored policy.
///
//===----------------------------------------------------------------------===//

#include "core/GameEnvAdapter.h"
#include "core/Optimizer.h"
#include "env/AssemblyGame.h"
#include "env/Embedding.h"
#include "serve/OptimizationService.h"
#include "serve/PolicyStore.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cuasmrl;
using namespace cuasmrl::env;
using kernels::BuiltKernel;
using kernels::ScheduleStyle;
using kernels::WorkloadKind;
using kernels::WorkloadShape;

namespace {

BuiltKernel buildTestKernel(gpusim::Gpu &Device, WorkloadKind Kind,
                            Rng &DataRng) {
  return kernels::buildKernel(Device, Kind, kernels::testShape(Kind),
                              kernels::candidateConfigs(Kind).front(),
                              ScheduleStyle::TritonO3, DataRng);
}

WorkloadContext contextFor(WorkloadKind Kind, size_t OperandSlots = 0) {
  WorkloadContext Ctx;
  Ctx.Kind = Kind;
  Ctx.Shape = kernels::testShape(Kind);
  Ctx.OperandSlots = OperandSlots;
  return Ctx;
}

/// The serve-test tiny config: real training, sub-second jobs.
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

} // namespace

//===----------------------------------------------------------------------===//
// Conditioned embedding (env layer)
//===----------------------------------------------------------------------===//

TEST(GeneralistTest, ConditionedEmbeddingAppendsContextAfterLegacyColumns) {
  gpusim::Gpu Device;
  Rng DataRng(7);
  BuiltKernel K = buildTestKernel(Device, WorkloadKind::MmLeakyRelu, DataRng);

  Embedding Legacy(K.Prog);
  Embedding Cond(K.Prog, contextFor(WorkloadKind::MmLeakyRelu));
  ASSERT_EQ(Cond.rows(), Legacy.rows());
  ASSERT_EQ(Cond.features(),
            Legacy.features() + Embedding::contextFeatures());
  ASSERT_EQ(Cond.contextBlock().size(), Embedding::contextFeatures());
  EXPECT_TRUE(Legacy.contextBlock().empty());

  // The one-hot singles out this workload's kind slot.
  const std::vector<kernels::WorkloadKind> Kinds = kernels::allWorkloads();
  for (size_t I = 0; I < Kinds.size(); ++I)
    EXPECT_EQ(Cond.contextBlock()[I],
              Kinds[I] == WorkloadKind::MmLeakyRelu ? 1.0f : 0.0f);
}

TEST(GeneralistTest, ConditionedEmbeddingLegacyPrefixBitIdentical) {
  // Randomized differential: after any sequence of adjacent swaps, the
  // conditioned embedding's leading legacy columns stay bit-identical
  // to the unconditioned embedding, every row's suffix IS the context
  // block, and swapAdjacentRows matches a full re-embed.
  gpusim::Gpu Device;
  Rng DataRng(7);
  for (WorkloadKind Kind :
       {WorkloadKind::Softmax, WorkloadKind::MmLeakyRelu}) {
    BuiltKernel K = buildTestKernel(Device, Kind, DataRng);
    Embedding Legacy(K.Prog);
    Embedding Cond(K.Prog, contextFor(Kind));

    sass::Program Prog = K.Prog;
    std::vector<float> CondObs = Cond.embed(Prog);
    Rng Shuffle(123);
    for (int Trial = 0; Trial < 50; ++Trial) {
      std::vector<float> LegacyObs = Legacy.embed(Prog);
      std::vector<float> CondFresh = Cond.embed(Prog);
      ASSERT_EQ(CondObs, CondFresh) << "swap-aware update diverged";
      const size_t LF = Legacy.features();
      const size_t CF = Cond.features();
      for (size_t Row = 0; Row < Legacy.rows(); ++Row) {
        for (size_t F = 0; F < LF; ++F)
          ASSERT_EQ(CondObs[Row * CF + F], LegacyObs[Row * LF + F])
              << "row " << Row << " feature " << F;
        for (size_t F = LF; F < CF; ++F)
          ASSERT_EQ(CondObs[Row * CF + F], Cond.contextBlock()[F - LF]);
      }
      // Random adjacent swap of instruction statements, mirrored into
      // the incremental observation update.
      std::vector<size_t> Instrs =
          Prog.findInstrs([](const sass::Instruction &) { return true; });
      if (Instrs.size() < 2)
        break;
      size_t Pick = Shuffle.uniformInt(Instrs.size() - 1);
      Prog.swap(Instrs[Pick], Instrs[Pick + 1]);
      Cond.swapAdjacentRows(CondObs, Pick);
    }
  }
}

TEST(GeneralistTest, ConditionedEmbeddingPadsOperandSlots) {
  gpusim::Gpu Device;
  Rng DataRng(7);
  BuiltKernel K = buildTestKernel(Device, WorkloadKind::Softmax, DataRng);

  Embedding Natural(K.Prog, contextFor(WorkloadKind::Softmax));
  const size_t NaturalSlots = Natural.table().maxOperands();
  WorkloadContext Wide = contextFor(WorkloadKind::Softmax, NaturalSlots + 3);
  Embedding Padded(K.Prog, Wide);
  EXPECT_EQ(Padded.features(), Natural.features() + 3);

  // The extra slots embed as the dummy -1 padding, before the context
  // block — and a smaller-than-natural request keeps the natural width.
  std::vector<float> Obs = Padded.embed(K.Prog);
  const size_t CF = Padded.features();
  const size_t CtxF = Embedding::contextFeatures();
  for (size_t Row = 0; Row < Padded.rows(); ++Row)
    for (size_t F = CF - CtxF - 3; F < CF - CtxF; ++F)
      ASSERT_EQ(Obs[Row * CF + F], -1.0f);
  WorkloadContext Narrow = contextFor(WorkloadKind::Softmax, 1);
  EXPECT_EQ(Embedding(K.Prog, Narrow).features(), Natural.features());
}

//===----------------------------------------------------------------------===//
// Mixed-kernel rollouts (rl layer)
//===----------------------------------------------------------------------===//

TEST(GeneralistTest, PadMaskToNetKeepsPaddingMasked) {
  std::vector<uint8_t> Mask = {0, 1, 0};
  rl::RolloutRunner::padMaskToNet(Mask, 5);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{0, 1, 0, 0, 0}));

  // The all-masked fallback opens the env's REAL actions only: the
  // padded entries stay 0 so an out-of-range action cannot be sampled.
  std::vector<uint8_t> AllZero = {0, 0, 0};
  rl::RolloutRunner::padMaskToNet(AllZero, 5);
  EXPECT_EQ(AllZero, (std::vector<uint8_t>{1, 1, 1, 0, 0}));
}

TEST(GeneralistTest, MixedKernelBatchBitIdenticalForAnyWorkerCount) {
  // One conditioned game per workload, one shared net sized for the
  // pool maxima: the collected batch must be bit-identical for worker
  // counts {1, 2, 4}.
  gpusim::Gpu Device;
  Rng DataRng(7);
  BuiltKernel K1 = buildTestKernel(Device, WorkloadKind::Softmax, DataRng);
  BuiltKernel K2 =
      buildTestKernel(Device, WorkloadKind::MmLeakyRelu, DataRng);

  const size_t Slots =
      std::max(analysis::OperandTable::build(K1.Prog).maxOperands(),
               analysis::OperandTable::build(K2.Prog).maxOperands());

  auto Collect = [&](unsigned Workers) {
    std::vector<std::unique_ptr<rl::Env>> Envs;
    const std::vector<std::pair<const BuiltKernel *, WorkloadKind>> Pool = {
        {&K1, WorkloadKind::Softmax}, {&K2, WorkloadKind::MmLeakyRelu}};
    for (const auto &[Kernel, Kind] : Pool) {
      GameConfig GC;
      GC.EpisodeLength = 8;
      GC.Measure.WarmupIters = 1;
      GC.Measure.RepeatIters = 1;
      GC.Measure.NoiseStddev = 0.0;
      GC.PrivateDevice = true; // Siblings must not share device state.
      GC.Context = contextFor(Kind, Slots);
      Envs.push_back(std::make_unique<core::GameEnvAdapter>(
          std::make_unique<AssemblyGame>(Device, *Kernel, GC)));
    }
    rl::NetConfig NC;
    NC.Features = Envs[0]->obsFeatures();
    NC.Channels = 4;
    NC.Hidden = 16;
    for (const std::unique_ptr<rl::Env> &E : Envs) {
      EXPECT_EQ(E->obsFeatures(), NC.Features);
      NC.Length = std::max(NC.Length, E->obsRows());
      NC.Actions = std::max(NC.Actions, size_t(E->actionCount()));
    }
    rl::RolloutConfig RC;
    RC.Workers = Workers;
    RC.Seed = 33;
    rl::RolloutRunner Runner(std::move(Envs), RC);
    Rng NetRng(5);
    rl::ActorCritic Net(NC, NetRng);
    return Runner.collect(Net, 12);
  };

  rl::TrajectoryBatch Base = Collect(1);
  for (unsigned Workers : {2u, 4u}) {
    rl::TrajectoryBatch Other = Collect(Workers);
    ASSERT_EQ(Base.Trajectories.size(), Other.Trajectories.size());
    for (size_t S = 0; S < Base.Trajectories.size(); ++S) {
      const rl::Trajectory &A = Base.Trajectories[S];
      const rl::Trajectory &B = Other.Trajectories[S];
      ASSERT_EQ(A.Steps.size(), B.Steps.size());
      for (size_t I = 0; I < A.Steps.size(); ++I) {
        EXPECT_EQ(A.Steps[I].Obs, B.Steps[I].Obs);
        EXPECT_EQ(A.Steps[I].Mask, B.Steps[I].Mask);
        EXPECT_EQ(A.Steps[I].Action, B.Steps[I].Action);
        EXPECT_EQ(A.Steps[I].LogProb, B.Steps[I].LogProb);
        EXPECT_EQ(A.Steps[I].Value, B.Steps[I].Value);
        EXPECT_EQ(A.Steps[I].Reward, B.Steps[I].Reward);
      }
      EXPECT_EQ(A.BootstrapObs, B.BootstrapObs);
      EXPECT_EQ(A.BootstrapMask, B.BootstrapMask);
      EXPECT_EQ(A.CompletedReturns, B.CompletedReturns);
    }
  }
}

TEST(GeneralistTest, OptimizeManySharedPolicyDeterministic) {
  core::OptimizeConfig C = tinyConfig();
  std::vector<core::WorkloadRequest> Requests;
  for (WorkloadKind Kind :
       {WorkloadKind::Softmax, WorkloadKind::MmLeakyRelu})
    Requests.push_back({Kind, kernels::testShape(Kind)});

  auto Run = [&](unsigned Workers) {
    core::OptimizeConfig Cfg = C;
    Cfg.RolloutWorkers = Workers;
    core::Optimizer Opt(Cfg);
    gpusim::Gpu Device;
    Rng DataRng(11);
    return Opt.optimizeMany(Device, Requests, DataRng);
  };

  core::MultiOptimizeResult Serial = Run(1);
  ASSERT_EQ(Serial.Results.size(), 2u);
  EXPECT_FALSE(Serial.PolicyBlob.empty());
  EXPECT_FALSE(Serial.Training.empty());
  // Curriculum is a permutation of the valid request indices.
  ASSERT_EQ(Serial.Curriculum.size(), 2u);
  EXPECT_NE(Serial.Curriculum[0], Serial.Curriculum[1]);
  for (const core::OptimizeResult &R : Serial.Results) {
    ASSERT_TRUE(R.AutotuneValid);
    EXPECT_GT(R.TritonUs, 0.0);
    EXPECT_LE(R.OptimizedUs, R.TritonUs);
    EXPECT_EQ(R.PolicyBlob, Serial.PolicyBlob); // One shared policy.
  }

  core::MultiOptimizeResult Threaded = Run(2);
  ASSERT_EQ(Threaded.Results.size(), Serial.Results.size());
  EXPECT_EQ(Threaded.PolicyBlob, Serial.PolicyBlob);
  EXPECT_EQ(Threaded.Curriculum, Serial.Curriculum);
  ASSERT_EQ(Threaded.Training.size(), Serial.Training.size());
  for (size_t I = 0; I < Serial.Training.size(); ++I) {
    EXPECT_EQ(Threaded.Training[I].PolicyLoss, Serial.Training[I].PolicyLoss);
    EXPECT_EQ(Threaded.Training[I].Entropy, Serial.Training[I].Entropy);
  }
  for (size_t I = 0; I < Serial.Results.size(); ++I) {
    EXPECT_EQ(Threaded.Results[I].OptimizedUs, Serial.Results[I].OptimizedUs);
    EXPECT_EQ(Threaded.Results[I].OptimizedProg.str(),
              Serial.Results[I].OptimizedProg.str());
    EXPECT_EQ(Threaded.Results[I].Verified, Serial.Results[I].Verified);
  }
}

TEST(GeneralistTest, ConditionedOptimizeEqualsOneRequestOptimizeMany) {
  // optimize() and optimizeMany() share one routine: with the
  // conditioned observation format on, a single-workload optimize() is
  // exactly a one-request optimizeMany().
  core::OptimizeConfig C = tinyConfig();
  C.ConditionEmbedding = true;
  const core::Optimizer Opt(C);
  const WorkloadKind Kind = WorkloadKind::Softmax;
  const kernels::WorkloadShape Shape = kernels::testShape(Kind);

  gpusim::Gpu OneDevice;
  Rng OneRng(9);
  core::OptimizeResult One = Opt.optimize(OneDevice, Kind, Shape, OneRng);
  gpusim::Gpu ManyDevice;
  Rng ManyRng(9);
  core::MultiOptimizeResult Many =
      Opt.optimizeMany(ManyDevice, {{Kind, Shape}}, ManyRng);

  ASSERT_TRUE(One.AutotuneValid);
  ASSERT_EQ(Many.Results.size(), 1u);
  const core::OptimizeResult &M = Many.Results.front();
  EXPECT_FALSE(One.PolicyBlob.empty());
  EXPECT_EQ(One.PolicyBlob, M.PolicyBlob);
  EXPECT_EQ(One.PolicyBlob, Many.PolicyBlob);
  EXPECT_EQ(One.Kernel.Binary.serialize(), M.Kernel.Binary.serialize());
  EXPECT_EQ(One.OptimizedUs, M.OptimizedUs);
  EXPECT_EQ(One.KernelExecutions, M.KernelExecutions);
  EXPECT_FALSE(One.Training.empty());
  EXPECT_EQ(One.Training.size(), Many.Training.size());
}

TEST(GeneralistTest, OptimizeManyWithZeroStepsRunsNoUpdates) {
  // A zero step budget trains nothing on either entry point: the
  // initial policy plays the greedy replay and the run still verifies.
  core::OptimizeConfig C = tinyConfig();
  C.Ppo.TotalSteps = 0;
  const core::Optimizer Opt(C);
  std::vector<core::WorkloadRequest> Requests;
  for (WorkloadKind Kind :
       {WorkloadKind::Softmax, WorkloadKind::MmLeakyRelu})
    Requests.push_back({Kind, kernels::testShape(Kind)});
  gpusim::Gpu Device;
  Rng DataRng(9);
  core::MultiOptimizeResult Many = Opt.optimizeMany(Device, Requests, DataRng);
  EXPECT_TRUE(Many.Training.empty());
  EXPECT_TRUE(Many.EpisodeReturns.empty());
  ASSERT_EQ(Many.Results.size(), Requests.size());
  for (const core::OptimizeResult &R : Many.Results) {
    ASSERT_TRUE(R.AutotuneValid);
    EXPECT_FALSE(R.PolicyBlob.empty());
  }

  gpusim::Gpu OneDevice;
  Rng OneRng(9);
  EXPECT_TRUE(Opt.optimize(OneDevice, WorkloadKind::Softmax,
                           kernels::testShape(WorkloadKind::Softmax), OneRng)
                  .Training.empty());
}

//===----------------------------------------------------------------------===//
// Pinned training fingerprints
//===----------------------------------------------------------------------===//

namespace {

/// The end-to-end benchmark's servingConfig(), field by field: the
/// 4-channel net its warm_lookup and mixed_serve set-ups train.
core::OptimizeConfig benchServingConfig() {
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

/// The benchmark's rlBoundConfig(): the serving config at the default
/// network width, which makes cold jobs RL-bound.
core::OptimizeConfig benchRlBoundConfig() {
  core::OptimizeConfig C = benchServingConfig();
  C.Ppo.Channels = 16;
  C.Ppo.Hidden = 64;
  return C;
}

} // namespace

TEST(GeneralistTest, PinnedJobsTrainBitIdentically) {
  // Three cold jobs as the optimization service runs them (a pristine
  // device, data stream mixSeed(service seed 11, fnv1a64(request key))).
  // Every value was produced by the per-sample PPO tape and the full
  // measurement protocol; a change that moves any of them changed what
  // training computes, on this ISA or build.
  struct PinnedJob {
    const char *Name;
    core::OptimizeConfig Config;
    WorkloadKind Kind;
    const char *Key;
    uint64_t PolicyHash;
    double OptimizedUs, TritonUs;
    unsigned KernelExecutions, SimulatedRuns;
  };
  const PinnedJob Jobs[] = {
      {"rl-bound softmax", benchRlBoundConfig(), WorkloadKind::Softmax,
       "A100-SIM-softmax_1x512x512x2048_4x4096x32_8x256-cfg37a7ba8bda1ae3bc-"
       "ceec3042b334f7a2",
       0x1e48b27341589df9ull, 2.9049591319853221, 3.1570550222409897, 52,
       27},
      {"rl-bound flash-attention", benchRlBoundConfig(),
       WorkloadKind::FlashAttention,
       "A100-SIM-flash-attention_1x512x512x2048_1x128x32_512x4096-"
       "cfg37a7ba8bda1ae3bc-4f4c7a7053253597",
       0x88547f3515b97bbbull, 1.2006715293321295, 1.2113644836190995, 226,
       114},
      {"serving softmax", benchServingConfig(), WorkloadKind::Softmax,
       "A100-SIM-softmax_1x512x512x2048_4x4096x32_8x256-cfgee3ce42c052a7116-"
       "d5b11dca7a315f96",
       0xe5b316ed7c532b8cull, 2.9178836404131725, 3.1570550222409897, 44,
       23},
  };
  for (const PinnedJob &J : Jobs) {
    SCOPED_TRACE(J.Name);
    serve::OptimizeRequest Req;
    Req.Kind = J.Kind;
    Req.Shape = kernels::testShape(J.Kind);
    Req.GpuType = "A100-SIM";
    const std::string Key =
        serve::OptimizationService::requestKey(Req, J.Config);
    EXPECT_EQ(Key, J.Key);
    gpusim::Gpu Device;
    Rng DataRng(mixSeed(11, fnv1a64(Key)));
    core::OptimizeResult R = core::Optimizer(J.Config).optimize(
        Device, J.Kind, Req.Shape, DataRng, nullptr, nullptr, Req.GpuType);
    EXPECT_EQ(fnv1a64(R.PolicyBlob), J.PolicyHash);
    EXPECT_EQ(R.OptimizedUs, J.OptimizedUs);
    EXPECT_EQ(R.TritonUs, J.TritonUs);
    EXPECT_EQ(R.KernelExecutions, J.KernelExecutions);
    EXPECT_EQ(R.Training.size(), 8u);
    // Masked measurements stop at the memory fixed point: two runs for
    // the first (it writes the output), one for every later one.
    EXPECT_EQ(R.SimulatedRuns, J.SimulatedRuns);
  }
}

TEST(GeneralistTest, PinnedRaggedOptimizeManyTrainsBitIdentically) {
  // Two kernels of different instruction counts: once the curriculum
  // reaches the second, every PPO minibatch mixes observations of two
  // row counts.
  const std::vector<core::WorkloadRequest> Requests = {
      {WorkloadKind::Softmax, kernels::testShape(WorkloadKind::Softmax)},
      {WorkloadKind::Bmm, kernels::testShape(WorkloadKind::Bmm)}};
  gpusim::Gpu Device;
  Rng DataRng(9);
  core::MultiOptimizeResult M =
      core::Optimizer(benchRlBoundConfig())
          .optimizeMany(Device, Requests, DataRng, nullptr, nullptr,
                        "A100-SIM");
  ASSERT_EQ(M.Results.size(), 2u);
  EXPECT_NE(M.Results[0].OptimizedProg.instrCount(),
            M.Results[1].OptimizedProg.instrCount());
  EXPECT_EQ(fnv1a64(M.PolicyBlob), 0xb1057a62aa9a49fbull);
  EXPECT_EQ(M.Training.size(), 6u);
  EXPECT_EQ(M.Results[0].OptimizedUs, 2.9612862867124621);
  EXPECT_EQ(M.Results[0].TritonUs, 3.1570550222409897);
  EXPECT_EQ(M.Results[0].KernelExecutions, 36u);
  EXPECT_EQ(M.Results[1].OptimizedUs, 1.8779460211019816);
  EXPECT_EQ(M.Results[1].TritonUs, 1.8987794047610316);
  EXPECT_EQ(M.Results[1].KernelExecutions, 130u);
}

//===----------------------------------------------------------------------===//
// PolicyStore (serve layer)
//===----------------------------------------------------------------------===//

namespace {

serve::DeployedEntry policyMeta(WorkloadKind Kind, unsigned Rows,
                                const std::string &Key) {
  serve::DeployedEntry E;
  E.GpuType = "A100-SIM";
  E.Kind = Kind;
  E.Shape = kernels::testShape(Kind);
  E.Shape.Rows = Rows;
  E.Key = Key;
  return E;
}

} // namespace

TEST(PolicyStoreTest, StoreLoadAndNearestShape) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("policies");
  serve::PolicyStore Store(Dir);
  EXPECT_EQ(Store.size(), 0u);
  EXPECT_FALSE(Store.load("missing").has_value());

  ASSERT_TRUE(Store.store("small", "blob-small",
                          policyMeta(WorkloadKind::Softmax, 64, "small")));
  ASSERT_TRUE(Store.store("large", "blob-large",
                          policyMeta(WorkloadKind::Softmax, 4096, "large")));
  EXPECT_EQ(Store.size(), 2u);
  EXPECT_EQ(Store.load("small").value_or(""), "blob-small");

  kernels::WorkloadShape Query = kernels::testShape(WorkloadKind::Softmax);
  Query.Rows = 96; // Log-space nearest: 64, not 4096.
  std::string From;
  std::optional<std::string> Near = Store.nearest(
      "A100-SIM", WorkloadKind::Softmax, Query, /*ExcludeKey=*/"", &From);
  ASSERT_TRUE(Near.has_value());
  EXPECT_EQ(*Near, "blob-small");
  EXPECT_EQ(From, "small");

  // Excluding the winner falls back to the next-nearest; a different
  // kind or GPU type never matches.
  EXPECT_EQ(Store.nearest("A100-SIM", WorkloadKind::Softmax, Query, "small")
                .value_or(""),
            "blob-large");
  EXPECT_FALSE(Store.nearest("H100-SIM", WorkloadKind::Softmax, Query, "")
                   .has_value());
  EXPECT_FALSE(Store.nearest("A100-SIM", WorkloadKind::MmLeakyRelu, Query, "")
                   .has_value());
}

TEST(PolicyStoreTest, RebuildsFromDirectoryAndSweepsOrphans) {
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("policies");
  {
    serve::PolicyStore Store(Dir);
    ASSERT_TRUE(Store.store("k1", "blob-1",
                            policyMeta(WorkloadKind::Softmax, 64, "k1")));
  }
  // A crashed writer's orphan sits next to the real files.
  std::string Orphan = Dir + "/k1.policy.tmp.999.1";
  { std::ofstream(Orphan) << "torn"; }
  ASSERT_TRUE(std::filesystem::exists(Orphan));

  serve::PolicyStore Reopened(Dir);
  EXPECT_FALSE(std::filesystem::exists(Orphan)) << "orphan not swept";
  EXPECT_EQ(Reopened.size(), 1u);
  EXPECT_EQ(Reopened.keys(), std::vector<std::string>{"k1"});
  kernels::WorkloadShape Query = kernels::testShape(WorkloadKind::Softmax);
  EXPECT_EQ(Reopened.nearest("A100-SIM", WorkloadKind::Softmax, Query, "")
                .value_or(""),
            "blob-1");
}

TEST(PolicyStoreTest, LoadOutcomesForMissingEmptyAndDirectoryFiles) {
  test::TempDir Tmp;
  serve::PolicyStore Store(Tmp.path());
  EXPECT_FALSE(Store.load("missing").has_value());

  // An empty checkpoint is present: load() hands it over and
  // rl::ActorCritic::loadCompatible rejects it.
  { std::ofstream OS(Tmp.sub("empty.policy")); }
  std::optional<std::string> Empty = Store.load("empty");
  ASSERT_TRUE(Empty.has_value());
  EXPECT_TRUE(Empty->empty());

  // A directory at the path is absent: there is no checkpoint to try.
  std::filesystem::create_directories(Tmp.sub("dir.policy"));
  EXPECT_FALSE(Store.load("dir").has_value());

  // Neither an empty sidecar nor a directory in a sidecar's place
  // indexes an entry.
  { std::ofstream OS(Tmp.sub("e.policy.meta")); }
  std::filesystem::create_directories(Tmp.sub("d.policy.meta"));
  serve::PolicyStore Reopened(Tmp.path());
  EXPECT_EQ(Reopened.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Warm starts (rl checkpoint + core + serve layers)
//===----------------------------------------------------------------------===//

TEST(WarmStartTest, TransactionalLoadRejectsCorruptCheckpoint) {
  rl::NetConfig NC;
  NC.Features = 8;
  NC.Length = 4;
  NC.Actions = 3;
  NC.Channels = 4;
  NC.Hidden = 8;
  Rng R1(1), R2(2);
  rl::ActorCritic Net(NC, R1);
  rl::ActorCritic Other(NC, R2);

  std::ostringstream OS;
  Other.save(OS);
  const std::string Blob = OS.str();

  auto Snapshot = [](const rl::ActorCritic &N) {
    std::vector<std::vector<float>> Params;
    for (const rl::Tensor &P : N.parameters())
      Params.push_back(P.data());
    return Params;
  };
  const std::vector<std::vector<float>> Before = Snapshot(Net);

  // Truncated mid-tensor: load() must refuse and leave EVERY tensor
  // untouched (no partial mutation — the transactional contract).
  std::istringstream Truncated(Blob.substr(0, Blob.size() / 2));
  EXPECT_FALSE(Net.load(Truncated));
  EXPECT_EQ(Snapshot(Net), Before);

  std::istringstream BadMagic("XXXXXXXX" + Blob.substr(8));
  EXPECT_FALSE(Net.load(BadMagic));
  EXPECT_EQ(Snapshot(Net), Before);

  std::istringstream Good(Blob);
  EXPECT_TRUE(Net.load(Good));
  EXPECT_EQ(Snapshot(Net), Snapshot(Other));
}

TEST(WarmStartTest, LoadCompatibleTransfersMatchingTensors) {
  rl::NetConfig Small;
  Small.Features = 8;
  Small.Length = 4;
  Small.Actions = 3;
  Small.Channels = 4;
  Small.Hidden = 8;
  rl::NetConfig Wider = Small;
  Wider.Actions = 5; // Different policy head; trunk geometry matches.

  Rng R1(1), R2(2);
  rl::ActorCritic Donor(Small, R1);
  rl::ActorCritic Net(Wider, R2);
  std::ostringstream OS;
  Donor.save(OS);

  std::istringstream IS(OS.str());
  const size_t Matched = Net.loadCompatible(IS);
  // All 10 tensors except the policy head pair (Wp, Bp) transfer.
  EXPECT_EQ(Matched, 8u);
  EXPECT_EQ(Net.parameters()[0].data(), Donor.parameters()[0].data());

  std::istringstream Garbage("not a checkpoint");
  EXPECT_EQ(Net.loadCompatible(Garbage), 0u);
}

TEST(WarmStartTest, OptimizeWarmStartTransfersFromBlob) {
  core::OptimizeConfig C = tinyConfig();
  core::Optimizer Opt(C);
  gpusim::Gpu Device;
  Rng DataRng(11);
  core::OptimizeResult Cold = Opt.optimize(
      Device, WorkloadKind::Softmax, kernels::testShape(WorkloadKind::Softmax),
      DataRng);
  ASSERT_TRUE(Cold.AutotuneValid);
  ASSERT_FALSE(Cold.PolicyBlob.empty());
  EXPECT_EQ(Cold.WarmStartTensors, 0u);

  // Same kind and shape: every tensor is geometry-compatible.
  Rng DataRng2(11);
  core::OptimizeResult Warm = Opt.optimize(
      Device, WorkloadKind::Softmax, kernels::testShape(WorkloadKind::Softmax),
      DataRng2, nullptr, &Cold.PolicyBlob);
  ASSERT_TRUE(Warm.AutotuneValid);
  EXPECT_EQ(Warm.WarmStartTensors, 10u);
}

namespace {

/// Trains one Softmax policy at the test shape and shelves it in
/// \p Dir as "seed-policy".
void shelveSeedPolicy(const std::string &Dir, const core::OptimizeConfig &C) {
  core::Optimizer Opt(C);
  gpusim::Gpu Device;
  Rng DataRng(11);
  core::OptimizeResult Seed =
      Opt.optimize(Device, WorkloadKind::Softmax,
                   kernels::testShape(WorkloadKind::Softmax), DataRng);
  ASSERT_TRUE(Seed.AutotuneValid);
  serve::PolicyStore Shelf(Dir);
  serve::DeployedEntry Meta;
  Meta.GpuType = "A100-SIM";
  Meta.Kind = WorkloadKind::Softmax;
  Meta.Shape = kernels::testShape(WorkloadKind::Softmax);
  Meta.Key = "seed-policy";
  ASSERT_TRUE(Shelf.store("seed-policy", Seed.PolicyBlob, Meta));
}

} // namespace

TEST(WarmStartTest, ServiceWarmStartsFromNearestStoredPolicy) {
  // Pre-populate a policy shelf with one trained Softmax policy, then
  // serve a near-shape request from a fixed store (PersistPolicies
  // off): the job must warm-start from it, and — the determinism
  // contract with a fixed store — respond bit-identically for any
  // worker count.
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("policies");
  core::OptimizeConfig C = tinyConfig();
  ASSERT_NO_FATAL_FAILURE(shelveSeedPolicy(Dir, C));

  serve::OptimizeRequest R;
  R.Kind = WorkloadKind::Softmax;
  R.Shape = kernels::testShape(WorkloadKind::Softmax);
  R.Shape.Rows *= 2; // A near shape, not the stored one.

  auto Serve = [&](unsigned Workers) {
    serve::ServiceConfig SC;
    SC.Workers = Workers;
    SC.Seed = 11;
    SC.Defaults = C;
    SC.PolicyDir = Dir;
    SC.PersistPolicies = false; // Fixed shelf: deterministic inputs.
    serve::OptimizationService Service(gpusim::Gpu(), SC);
    serve::Ticket Tk = Service.submit(R);
    serve::ResponsePtr Resp = Tk.Response.get();
    serve::ServiceStats Stats = Service.stats();
    EXPECT_EQ(Stats.WarmStarts, 1u);
    EXPECT_GT(Stats.WarmStartTensors, 0u);
    EXPECT_EQ(Stats.PolicyStores, 0u);
    return Resp;
  };

  serve::ResponsePtr One = Serve(1);
  ASSERT_EQ(One->St, serve::OptimizeResponse::Status::Optimized);
  EXPECT_EQ(One->WarmStartedFrom, "seed-policy");
  EXPECT_GT(One->Result.WarmStartTensors, 0u);

  serve::ResponsePtr Two = Serve(2);
  EXPECT_EQ(Two->St, One->St);
  EXPECT_EQ(Two->WarmStartedFrom, One->WarmStartedFrom);
  EXPECT_EQ(Two->Result.WarmStartTensors, One->Result.WarmStartTensors);
  EXPECT_EQ(Two->Result.OptimizedUs, One->Result.OptimizedUs);
  EXPECT_EQ(Two->Result.OptimizedProg.str(), One->Result.OptimizedProg.str());
}

TEST(WarmStartTest, OwnKeyCheckpointDecidesTheSiblingFallback) {
  // runJob() tries the job's own key first and falls back to the
  // nearest sibling only when that checkpoint is absent. An empty file
  // is present (tried, rejected, the job trains cold); a directory in
  // its place is absent (the job warm-starts from the sibling).
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("policies");
  core::OptimizeConfig C = tinyConfig();
  ASSERT_NO_FATAL_FAILURE(shelveSeedPolicy(Dir, C));

  serve::OptimizeRequest R;
  R.Kind = WorkloadKind::Softmax;
  R.Shape = kernels::testShape(WorkloadKind::Softmax);
  R.Shape.Rows *= 2;
  const std::string Own =
      Dir + "/" + serve::OptimizationService::requestKey(R, C) + ".policy";
  auto WarmStartedFrom = [&] {
    serve::ServiceConfig SC;
    SC.Workers = 1;
    SC.Seed = 11;
    SC.Defaults = C;
    SC.PolicyDir = Dir;
    SC.PersistPolicies = false;
    serve::OptimizationService Service(gpusim::Gpu(), SC);
    serve::ResponsePtr Resp = Service.submit(R).Response.get();
    EXPECT_EQ(Resp->St, serve::OptimizeResponse::Status::Optimized);
    return Resp->WarmStartedFrom;
  };

  { std::ofstream OS(Own); }
  EXPECT_EQ(WarmStartedFrom(), "");
  std::filesystem::remove(Own);
  std::filesystem::create_directories(Own);
  EXPECT_EQ(WarmStartedFrom(), "seed-policy");
}

TEST(WarmStartTest, ServicePersistsPoliciesForLaterInstances) {
  // A first service instance trains cold and shelves its policy; a
  // second instance on the same directory warm-starts a near-shape
  // job from it (the restart-survival path).
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("policies");
  core::OptimizeConfig C = tinyConfig();

  serve::OptimizeRequest First;
  First.Kind = WorkloadKind::Softmax;
  First.Shape = kernels::testShape(WorkloadKind::Softmax);
  {
    serve::ServiceConfig SC;
    SC.Workers = 1;
    SC.Seed = 11;
    SC.Defaults = C;
    SC.PolicyDir = Dir;
    serve::OptimizationService Service(gpusim::Gpu(), SC);
    serve::ResponsePtr Resp = Service.submit(First).Response.get();
    ASSERT_EQ(Resp->St, serve::OptimizeResponse::Status::Optimized);
    EXPECT_TRUE(Resp->WarmStartedFrom.empty()); // Nothing shelved yet.
    serve::ServiceStats Stats = Service.stats();
    EXPECT_EQ(Stats.PolicyStores, 1u);
    EXPECT_EQ(Stats.WarmStarts, 0u);
  }
  {
    serve::ServiceConfig SC;
    SC.Workers = 1;
    SC.Seed = 11;
    SC.Defaults = C;
    SC.PolicyDir = Dir;
    serve::OptimizationService Service(gpusim::Gpu(), SC);
    serve::OptimizeRequest Near = First;
    Near.Shape.Rows *= 2;
    serve::ResponsePtr Resp = Service.submit(Near).Response.get();
    ASSERT_EQ(Resp->St, serve::OptimizeResponse::Status::Optimized);
    EXPECT_FALSE(Resp->WarmStartedFrom.empty());
    EXPECT_GT(Resp->Result.WarmStartTensors, 0u);
  }
}
