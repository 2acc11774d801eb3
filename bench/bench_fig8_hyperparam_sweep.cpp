//===- bench/bench_fig8_hyperparam_sweep.cpp - reproduces paper Figure 8 -----===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 8: episodic returns while optimizing fused GEMM +
// LeakyReLU under sweeps of the two most significant hyperparameters
// (learning rate and training batch size). The default setting must
// converge to the best episodic return, demonstrating robustness (§5.5).
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

struct Setting {
  const char *Name;
  double Lr;
  unsigned RolloutLen;
};

} // namespace

int main() {
  unsigned Steps = stepsBudget(2048);
  std::cout << "== Figure 8: episodic returns under hyperparameter sweeps "
               "(fused GEMM+LeakyReLU, "
            << Steps << " steps each) ==\n\n";

  // Default (bench-scaled) + learning-rate and batch-size variants.
  const Setting Settings[] = {
      {"default (lr=1e-3, batch=64)", 1e-3, 64},
      {"lr=5e-3", 5e-3, 64},
      {"lr=1e-4", 1e-4, 64},
      {"batch=32", 1e-3, 32},
      {"batch=128", 1e-3, 128},
  };

  gpusim::Gpu Device;
  Rng DataRng(3);
  WorkloadShape Shape = paperShape(WorkloadKind::MmLeakyRelu);
  triton::Autotuner Tuner;
  triton::AutotuneResult Tuned =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
  BuiltKernel K = buildKernel(Device, WorkloadKind::MmLeakyRelu, Shape,
                              Tuned.Best, ScheduleStyle::TritonO3, DataRng);

  std::vector<std::vector<std::pair<unsigned, double>>> Curves;
  std::vector<double> FinalReturns;
  for (const Setting &S : Settings) {
    env::AssemblyGame Game(Device, K, trainingGameConfig());
    core::GameEnvAdapter Env(Game);
    rl::PpoConfig C = benchPpoConfig(Steps, /*Seed=*/7);
    C.Lr = S.Lr;
    C.RolloutLen = S.RolloutLen;
    rl::PpoTrainer Trainer({&Env}, C);
    std::vector<rl::UpdateStats> Series = Trainer.train();
    std::vector<std::pair<unsigned, double>> Curve;
    for (const rl::UpdateStats &U : Series)
      Curve.push_back({U.StepsDone, U.MeanEpisodicReturn});
    FinalReturns.push_back(Series.back().MeanEpisodicReturn);
    Curves.push_back(std::move(Curve));
    std::cout << "  trained " << S.Name << ": final return "
              << formatDouble(FinalReturns.back(), 3) << "\n";
  }

  std::cout << "\nepisodic return vs environment step:\n";
  std::vector<std::string> Header = {"step"};
  for (const Setting &S : Settings)
    Header.push_back(S.Name);
  Table Out(Header);
  size_t Points = Curves[0].size();
  for (size_t P = 0; P < Points; P += std::max<size_t>(1, Points / 10)) {
    std::vector<std::string> Row = {
        std::to_string(Curves[0][P].first)};
    for (const auto &Curve : Curves)
      Row.push_back(P < Curve.size() ? formatDouble(Curve[P].second, 3)
                                     : "-");
    Out.addRow(Row);
  }
  Out.print(std::cout);

  bool DefaultBest = true;
  for (size_t I = 1; I < FinalReturns.size(); ++I)
    if (FinalReturns[I] > FinalReturns[0] + 0.5)
      DefaultBest = false;
  std::cout << "\ndefault setting converges to the best (or tied) "
               "episodic return: "
            << (DefaultBest ? "yes" : "no")
            << "   (paper: 'the RL agent consistently converges' under "
               "the default)\n";
  return 0;
}
