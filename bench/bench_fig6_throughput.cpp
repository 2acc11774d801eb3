//===- bench/bench_fig6_throughput.cpp - reproduces paper Figure 6 -----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 6: normalized kernel throughput of Torch-eager
// compositions, Triton (-O3 schedule at the autotuned configuration),
// CuAsmRL (RL-optimized schedule) and the hand-optimized reference
// implementations (cuBLAS / FlashAttention-2 class), with the Cutlass
// default-configuration observation for fused GEMM+LeakyReLU (§5.3).
// Throughput is normalized to Triton = 1.0; higher is better.
//
// Budget: ~3000 RL steps per kernel (override with CUASMRL_STEPS;
// CUASMRL_FAST=1 shrinks everything 8x).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "triton/Autotuner.h"

#include <iostream>

using namespace cuasmrl;
using namespace cuasmrl::bench;
using namespace cuasmrl::kernels;

namespace {

/// Measures one kernel (timed mode, one resident group, extrapolated).
double measureUs(gpusim::Gpu &Device, const BuiltKernel &K) {
  gpusim::MeasureConfig M;
  M.WarmupIters = 1;
  M.RepeatIters = 2;
  M.MaxBlocks = Device.residentBlocks(K.Launch);
  gpusim::Measurement R = measureKernel(Device, K.Prog, K.Launch, M);
  return R.Valid ? R.MeanUs : -1.0;
}

/// Torch-eager composition time: sum of kernels + launch overheads.
double torchUs(gpusim::Gpu &Device, WorkloadKind Kind,
               const WorkloadShape &Shape, Rng &DataRng) {
  double Total = 0.0;
  std::vector<BuiltKernel> Seq =
      buildTorchComposition(Device, Kind, Shape, DataRng);
  for (const BuiltKernel &K : Seq) {
    double Us = measureUs(Device, K);
    if (Us < 0)
      return -1.0;
    Total += Us + LaunchOverheadUs;
  }
  return Total;
}

} // namespace

/// Per-kernel RL budgets: memory-bound kernels converge quickly; the
/// compute-bound pipelines get the larger share.
static unsigned kernelBudget(WorkloadKind Kind) {
  switch (Kind) {
  case WorkloadKind::Softmax:
    return stepsBudget(1024);
  case WorkloadKind::RmsNorm:
    return stepsBudget(1536);
  case WorkloadKind::Bmm:
  case WorkloadKind::FlashAttention:
    return stepsBudget(2560);
  default:
    return stepsBudget(3072);
  }
}

int main() {
  std::cout << "== Figure 6: kernel throughput normalized to Triton "
               "(RL budget up to " << stepsBudget(3072)
            << " steps/kernel) ==\n\n";

  Table Out({"kernel", "Torch", "Triton", "CuAsmRL", "Reference",
             "CuAsmRL speedup"});
  std::vector<double> Speedups;

  for (WorkloadKind Kind : allWorkloads()) {
    WorkloadShape Shape = paperShape(Kind);
    gpusim::Gpu Device;
    Rng DataRng(3);

    // Level 1: autotune (the Triton baseline uses the best config).
    triton::Autotuner Tuner;
    triton::AutotuneResult Tuned = Tuner.tune(Device, Kind, Shape);
    BuiltKernel Triton = buildKernel(Device, Kind, Shape, Tuned.Best,
                                     ScheduleStyle::TritonO3, DataRng);
    double TritonTime = measureUs(Device, Triton);

    // Torch-eager composition.
    double TorchTime = torchUs(Device, Kind, Shape, DataRng);

    // Reference: expertly scheduled implementation at the same config
    // (cuBLAS / FlashAttention-2 class hand scheduling).
    BuiltKernel Ref = buildKernel(Device, Kind, Shape, Tuned.Best,
                                  ScheduleStyle::Expert, DataRng);
    double RefTime = measureUs(Device, Ref);

    // Level 2: the assembly game with PPO.
    TrainOutcome RL = trainOnKernel(Device, Triton, kernelBudget(Kind),
                                    /*Seed=*/1);

    // Re-measure the winning schedule under the same protocol as the
    // baselines (training uses a reduced block group for speed).
    BuiltKernel Best = Triton;
    Best.Prog = RL.BestProg;
    double BestTime = measureUs(Device, Best);
    double Speedup = TritonTime / BestTime;
    Speedups.push_back(Speedup);
    Out.addRow({workloadName(Kind),
                TorchTime > 0 ? formatDouble(TritonTime / TorchTime, 3)
                              : "-",
                "1.000", formatDouble(Speedup, 3),
                RefTime > 0 ? formatDouble(TritonTime / RefTime, 3) : "-",
                formatDouble(Speedup, 3) + "x"});
    std::cout << "  [" << workloadName(Kind) << "] triton " << TritonTime
              << "us -> cuasmrl " << BestTime << "us\n";
  }

  std::cout << "\n";
  Out.print(std::cout);
  std::cout << "\ngeomean CuAsmRL speedup over Triton: "
            << formatDouble(geomean(Speedups), 3)
            << "x   (paper: 1.09x; up to 26% on individual kernels)\n";

  // §5.3 Cutlass observation on fused GEMM with LeakyReLU.
  {
    gpusim::Gpu Device;
    Rng DataRng(3);
    WorkloadShape Shape = paperShape(WorkloadKind::MmLeakyRelu);
    triton::Autotuner Tuner;
    triton::AutotuneResult Tuned =
        Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
    BuiltKernel Triton =
        buildKernel(Device, WorkloadKind::MmLeakyRelu, Shape, Tuned.Best,
                    ScheduleStyle::TritonO3, DataRng);
    BuiltKernel Cutlass =
        buildCutlassDefault(Device, WorkloadKind::MmLeakyRelu, Shape,
                            DataRng);
    double T = measureUs(Device, Triton);
    double C = measureUs(Device, Cutlass);
    std::cout << "\nCutlass default configuration on mmLeakyReLu: "
              << formatDouble(C / T, 2)
              << "x slower than Triton (paper: ~10x on hardware; the "
                 "simulator's latency\nmodel compresses the gap — see "
                 "EXPERIMENTS.md)\n";
  }
  return 0;
}
