//===- bench/bench_masking_ablation.cpp - §3.5 action-masking ablation -------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Quantifies what the §3.5 action masking buys: without it, random
// reorderings violate register/barrier/stall dependencies, the mutated
// schedules corrupt their outputs (caught by the oracle comparison) and
// episodes terminate early with penalties; with it, every mutated
// schedule stays semantically valid by construction.
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

/// Env adapter that counts invalid-schedule episodes.
class CountingAdapter : public rl::Env {
public:
  explicit CountingAdapter(env::AssemblyGame &Game) : Game(Game) {}
  std::vector<float> reset() override { return Game.reset(); }
  rl::EnvStep step(unsigned Action) override {
    env::AssemblyGame::StepResult R = Game.step(Action);
    if (R.Invalid)
      ++InvalidEpisodes;
    ++Steps;
    rl::EnvStep Out;
    Out.Obs = std::move(R.Observation);
    Out.Reward = R.Reward;
    Out.Done = R.Done;
    return Out;
  }
  std::vector<uint8_t> actionMask() override { return Game.actionMask(); }
  unsigned actionCount() const override { return Game.actionCount(); }
  size_t obsRows() const override { return Game.obsRows(); }
  size_t obsFeatures() const override { return Game.obsFeatures(); }

  unsigned InvalidEpisodes = 0;
  unsigned Steps = 0;

private:
  env::AssemblyGame &Game;
};

} // namespace

int main() {
  unsigned Budget = stepsBudget(768);
  std::cout << "== §3.5 ablation: action masking on vs off (" << Budget
            << " steps each) ==\n\n";

  gpusim::Gpu Device;
  Rng DataRng(3);
  WorkloadShape Shape = paperShape(WorkloadKind::MmLeakyRelu);
  triton::Autotuner Tuner;
  triton::AutotuneResult Tuned =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
  BuiltKernel K = buildKernel(Device, WorkloadKind::MmLeakyRelu, Shape,
                              Tuned.Best, ScheduleStyle::TritonO3, DataRng);

  Table Out({"mode", "invalid episodes", "best us", "speedup"});
  for (bool Masked : {true, false}) {
    env::GameConfig G = trainingGameConfig();
    G.UseActionMasking = Masked;
    env::AssemblyGame Game(Device, K, G);
    CountingAdapter Env(Game);
    rl::PpoTrainer Trainer({&Env}, benchPpoConfig(Budget, /*Seed=*/2));
    Trainer.train();
    Out.addRow({Masked ? "masked (paper)" : "unmasked",
                std::to_string(Env.InvalidEpisodes),
                formatDouble(Game.bestTimeUs(), 2),
                formatDouble(Game.initialTimeUs() / Game.bestTimeUs(), 3) +
                    "x"});
  }
  Out.print(std::cout);
  std::cout << "\nmasked runs can never execute an invalid schedule; "
               "unmasked runs burn their\nbudget on corrupted schedules "
               "and penalties (the paper masks by construction).\n";
  return 0;
}
