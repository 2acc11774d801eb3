//===- bench/bench_fig12_training_stats.cpp - reproduces paper Figure 12 -----===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 12: the approximate KL divergence and the policy
// entropy over training steps. Both decrease as the policy converges,
// "indicating the policy network of the RL agent gradually converges,
// and thus each update round is less and less diverted" (§5.5).
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

int main() {
  unsigned Steps = stepsBudget(2560);
  std::cout << "== Figure 12: approximate KL divergence and policy "
               "entropy over training ==\n("
            << Steps << " steps on fused GEMM+LeakyReLU)\n\n";

  gpusim::Gpu Device;
  Rng DataRng(3);
  WorkloadShape Shape = paperShape(WorkloadKind::MmLeakyRelu);
  triton::Autotuner Tuner;
  triton::AutotuneResult Tuned =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
  BuiltKernel K = buildKernel(Device, WorkloadKind::MmLeakyRelu, Shape,
                              Tuned.Best, ScheduleStyle::TritonO3, DataRng);

  TrainOutcome RL = trainOnKernel(Device, K, Steps, /*Seed=*/5);

  Table Out({"step", "approx KL", "policy entropy", "episodic return"});
  for (size_t I = 0; I < RL.Series.size();
       I += std::max<size_t>(1, RL.Series.size() / 12)) {
    const rl::UpdateStats &U = RL.Series[I];
    Out.addRow({std::to_string(U.StepsDone), formatDouble(U.ApproxKl, 5),
                formatDouble(U.Entropy, 3),
                formatDouble(U.MeanEpisodicReturn, 3)});
  }
  Out.print(std::cout);

  // Trend check: average of the last quarter vs the first quarter.
  auto Avg = [&](auto Getter, size_t From, size_t To) {
    double Sum = 0;
    for (size_t I = From; I < To; ++I)
      Sum += Getter(RL.Series[I]);
    return Sum / std::max<size_t>(1, To - From);
  };
  size_t N = RL.Series.size();
  double KlEarly = Avg([](const rl::UpdateStats &U) { return U.ApproxKl; },
                       0, N / 4);
  double KlLate = Avg([](const rl::UpdateStats &U) { return U.ApproxKl; },
                      3 * N / 4, N);
  double EntEarly = Avg([](const rl::UpdateStats &U) { return U.Entropy; },
                        0, N / 4);
  double EntLate = Avg([](const rl::UpdateStats &U) { return U.Entropy; },
                       3 * N / 4, N);
  std::cout << "\napprox KL:      " << formatDouble(KlEarly, 5) << " -> "
            << formatDouble(KlLate, 5)
            << (KlLate < KlEarly ? "  (decreasing)" : "  (NOT decreasing)")
            << "\npolicy entropy: " << formatDouble(EntEarly, 3) << " -> "
            << formatDouble(EntLate, 3)
            << (EntLate < EntEarly ? "  (decreasing)" : "  (NOT decreasing)")
            << "\n\npaper: both metrics decrease over training steps.\n";
  return 0;
}
