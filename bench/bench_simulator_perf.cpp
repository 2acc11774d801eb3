//===- bench/bench_simulator_perf.cpp - substrate microbenchmarks ------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark timings of the substrate hot paths: the reward loop's
// cost is dominated by timed simulation (one measurement per RL step,
// §3.6/§7), so these numbers bound achievable training throughput.
//
//===----------------------------------------------------------------------===//

#include "env/AssemblyGame.h"
#include "gpusim/pipeline/OperandFetch.h"
#include "gpusim/pipeline/WarpSelect.h"
#include "gpusim/pipeline/Writeback.h"
#include "kernels/Builder.h"
#include "rl/ActorCritic.h"
#include "sass/Parser.h"
#include "triton/Autotuner.h"

#include <benchmark/benchmark.h>

using namespace cuasmrl;
using namespace cuasmrl::kernels;

namespace {

struct Fixture {
  gpusim::Gpu Device;
  Rng DataRng{3};
  BuiltKernel Kernel;

  Fixture() {
    Kernel = buildKernel(Device, WorkloadKind::MmLeakyRelu,
                         paperShape(WorkloadKind::MmLeakyRelu),
                         candidateConfigs(WorkloadKind::MmLeakyRelu)
                             .front(),
                         ScheduleStyle::TritonO3, DataRng);
  }
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

} // namespace

/// One timed simulation of the fused GEMM kernel (the reward oracle),
/// including the per-call program decode.
static void BM_TimedSimulation(benchmark::State &State) {
  Fixture &F = fixture();
  unsigned Resident = F.Device.residentBlocks(F.Kernel.Launch);
  for (auto _ : State) {
    gpusim::RunResult R = F.Device.run(F.Kernel.Prog, F.Kernel.Launch,
                                       gpusim::RunMode::Timed, Resident);
    benchmark::DoNotOptimize(R.Cycles);
  }
}
BENCHMARK(BM_TimedSimulation)->Unit(benchmark::kMillisecond);

/// The execute phase alone: timed simulation through a pre-decoded
/// kernel image (what the env pays per warmup/repeat iteration).
static void BM_TimedSimulationPredecoded(benchmark::State &State) {
  Fixture &F = fixture();
  gpusim::DecodedProgram Decoded(F.Kernel.Prog);
  unsigned Resident = F.Device.residentBlocks(F.Kernel.Launch);
  for (auto _ : State) {
    gpusim::RunResult R =
        F.Device.run(F.Kernel.Prog, Decoded, F.Kernel.Launch,
                     gpusim::RunMode::Timed, Resident);
    benchmark::DoNotOptimize(R.Cycles);
  }
}
BENCHMARK(BM_TimedSimulationPredecoded)->Unit(benchmark::kMillisecond);

/// The decode phase alone: building the pre-decoded kernel image.
static void BM_DecodeProgram(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    gpusim::DecodedProgram D(F.Kernel.Prog);
    benchmark::DoNotOptimize(D.size());
  }
}
BENCHMARK(BM_DecodeProgram);

/// Architectural-oracle execution (probabilistic-testing reference).
static void BM_OracleSimulation(benchmark::State &State) {
  Fixture &F = fixture();
  unsigned Resident = F.Device.residentBlocks(F.Kernel.Launch);
  for (auto _ : State) {
    gpusim::RunResult R = F.Device.run(F.Kernel.Prog, F.Kernel.Launch,
                                       gpusim::RunMode::Oracle, Resident);
    benchmark::DoNotOptimize(R.Valid);
  }
}
BENCHMARK(BM_OracleSimulation)->Unit(benchmark::kMillisecond);

/// \name Stage-boundary rows
/// Each pipeline stage timed alone at its latch boundary, so a perf
/// regression inside one stage is attributable from the JSON artifact
/// without re-profiling the whole machine.
/// @{

/// Warp select: one sweep of probes over a resident warp set (the
/// per-scheduler-cycle cost when no warp is eligible).
static void BM_StageWarpSelectProbe(benchmark::State &State) {
  Fixture &F = fixture();
  gpusim::DecodedProgram Decoded(F.Kernel.Prog);
  std::vector<gpusim::WarpSimState> Warps(8);
  for (size_t I = 0; I < Warps.size(); ++I) {
    Warps[I].Pc = 0;
    Warps[I].NextIssue = 1; // Stall-rejected: probe cost, no issue.
  }
  gpusim::PerfCounters C;
  for (auto _ : State) {
    uint64_t MinReady = ~0ull;
    for (gpusim::WarpSimState &W : Warps)
      benchmark::DoNotOptimize(
          gpusim::WarpSelect::probe(W, Decoded, 0, C, MinReady));
    benchmark::DoNotOptimize(MinReady);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Warps.size()));
}
BENCHMARK(BM_StageWarpSelectProbe);

/// Operand fetch: the per-run bank-penalty tabulation (amortized away
/// from the per-issue path by the staged core).
static void BM_StageOperandPenaltyTable(benchmark::State &State) {
  Fixture &F = fixture();
  gpusim::DecodedProgram Decoded(F.Kernel.Prog);
  std::vector<uint16_t> Table;
  for (auto _ : State) {
    gpusim::OperandFetch::buildPenaltyTable(Decoded, 4, 2, Table);
    benchmark::DoNotOptimize(Table.data());
  }
}
BENCHMARK(BM_StageOperandPenaltyTable);

/// Writeback: event-queue churn with write-buffer recycling (push and
/// drain one batch of completion events per iteration).
static void BM_StageEventQueueChurn(benchmark::State &State) {
  gpusim::EventQueue Q;
  for (auto _ : State) {
    for (unsigned I = 0; I < 64; ++I) {
      std::vector<gpusim::DeferredWrite> Writes = Q.takeWriteBuf();
      Writes.push_back({gpusim::DeferredWrite::File::R,
                        static_cast<uint16_t>(I), I});
      Q.push({/*Cycle=*/(I * 7) % 32, /*Warp=*/static_cast<int>(I % 8),
              /*ReleaseSlot=*/-1, /*ReleaseBlock=*/-1, std::move(Writes)});
    }
    while (!Q.empty()) {
      gpusim::Event E = Q.pop();
      benchmark::DoNotOptimize(E.Cycle);
      Q.recycleWriteBuf(std::move(E.Writes));
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * 64);
}
BENCHMARK(BM_StageEventQueueChurn);

/// @}

/// SASS text parsing (disassembler output -> Program).
static void BM_ParseProgram(benchmark::State &State) {
  std::string Text = fixture().Kernel.Prog.str();
  for (auto _ : State) {
    Expected<sass::Program> P = sass::Parser::parseProgram(Text, "bench");
    benchmark::DoNotOptimize(P.hasValue());
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Text.size()));
}
BENCHMARK(BM_ParseProgram);

/// State embedding (Figure 4) of the current schedule.
static void BM_Embedding(benchmark::State &State) {
  env::Embedding E(fixture().Kernel.Prog);
  for (auto _ : State) {
    std::vector<float> Obs = E.embed(fixture().Kernel.Prog);
    benchmark::DoNotOptimize(Obs.data());
  }
}
BENCHMARK(BM_Embedding);

/// Action-mask read as the rollout loop sees it (incrementally
/// maintained; a call is an O(actions) copy).
static void BM_ActionMask(benchmark::State &State) {
  Fixture &F = fixture();
  env::GameConfig G;
  G.Measure.WarmupIters = 1;
  G.Measure.RepeatIters = 1;
  env::AssemblyGame Game(F.Device, F.Kernel, G);
  for (auto _ : State) {
    std::vector<uint8_t> Mask = Game.actionMask();
    benchmark::DoNotOptimize(Mask.data());
  }
}
BENCHMARK(BM_ActionMask);

/// The mask phase at full cost: from-scratch legality sweep over every
/// movable pair (what actionMask() used to do on every call).
static void BM_ActionMaskFresh(benchmark::State &State) {
  Fixture &F = fixture();
  env::GameConfig G;
  G.Measure.WarmupIters = 1;
  G.Measure.RepeatIters = 1;
  env::AssemblyGame Game(F.Device, F.Kernel, G);
  for (auto _ : State) {
    std::vector<uint8_t> Mask = Game.actionMaskFresh();
    benchmark::DoNotOptimize(Mask.data());
  }
}
BENCHMARK(BM_ActionMaskFresh);

/// The hash phase: from-scratch schedule key (per-statement hashing).
static void BM_ScheduleKeyFresh(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    gpusim::MeasurementCache::ScheduleKey Key =
        gpusim::MeasurementCache::keyFor(F.Kernel.Prog);
    benchmark::DoNotOptimize(Key.Primary);
  }
}
BENCHMARK(BM_ScheduleKeyFresh);

/// The hash phase as the env pays it: one O(1) swap update of the
/// maintained schedule key.
static void BM_ScheduleHashSwap(benchmark::State &State) {
  Fixture &F = fixture();
  gpusim::ScheduleHash H(F.Kernel.Prog);
  // Any adjacent instruction pair works: the update cost is uniform.
  size_t Upper = 0;
  while (Upper + 1 < F.Kernel.Prog.size() &&
         !(F.Kernel.Prog.stmt(Upper).isInstr() &&
           F.Kernel.Prog.stmt(Upper + 1).isInstr()))
    ++Upper;
  for (auto _ : State) {
    H.swap(Upper);
    benchmark::DoNotOptimize(H.key().Primary);
  }
}
BENCHMARK(BM_ScheduleHashSwap);

/// The embed phase as the env pays it: one adjacent row swap of the
/// cached observation matrix.
static void BM_EmbeddingRowSwap(benchmark::State &State) {
  Fixture &F = fixture();
  env::Embedding E(F.Kernel.Prog);
  std::vector<float> Obs = E.embed(F.Kernel.Prog);
  for (auto _ : State) {
    E.swapAdjacentRows(Obs, 0);
    benchmark::DoNotOptimize(Obs.data());
  }
}
BENCHMARK(BM_EmbeddingRowSwap);

namespace {

/// The default policy net over the fixture kernel's observation.
struct NetFixture {
  env::Embedding E{fixture().Kernel.Prog};
  Rng R{1};
  rl::ActorCritic Net{config(E), R};
  std::vector<float> Obs = E.embed(fixture().Kernel.Prog);
  std::vector<uint8_t> Mask = std::vector<uint8_t>(32, 1);

  static rl::NetConfig config(const env::Embedding &E) {
    rl::NetConfig NC;
    NC.Features = E.features();
    NC.Length = E.rows();
    NC.Actions = 32;
    return NC;
  }
};

} // namespace

/// Policy-network forward pass (CNN + MLP heads).
static void BM_NetForward(benchmark::State &State) {
  NetFixture N;
  for (auto _ : State) {
    rl::ActorCritic::Output Out = N.Net.forward({{N.Obs, N.Mask}});
    benchmark::DoNotOptimize(Out.Value.item());
  }
}
BENCHMARK(BM_NetForward);

/// One PPO sample's share of an update: the forward graph, a loss over
/// the sampled action's log-probability plus the value, and backward()
/// into the parameter gradients.
static void BM_NetForwardBackward(benchmark::State &State) {
  NetFixture N;
  std::vector<rl::Tensor> Params = N.Net.parameters();
  for (auto _ : State) {
    for (rl::Tensor &P : Params)
      P.zeroGrad();
    rl::ActorCritic::Output Out = N.Net.forward({{N.Obs, N.Mask}});
    rl::Tensor Loss =
        rl::add(rl::gather(rl::logSoftmax(Out.MaskedLogits), {0}), Out.Value);
    Loss.backward();
    benchmark::DoNotOptimize(Params.front().grad().data());
  }
}
BENCHMARK(BM_NetForwardBackward);

BENCHMARK_MAIN();
