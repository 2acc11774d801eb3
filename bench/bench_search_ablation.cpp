//===- bench/bench_search_ablation.cpp - §7 search-algorithm comparison ------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The paper's §7 discussion: "it is also possible to apply other search
// algorithms, such as evolutionary search ... however it may converge
// to local minima". Gives every searcher the same environment-step
// budget on fused GEMM+LeakyReLU and compares the best schedule found.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "search/Search.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "triton/Autotuner.h"

#include <iostream>

using namespace cuasmrl;
using namespace cuasmrl::bench;
using namespace cuasmrl::kernels;

int main() {
  unsigned Budget = stepsBudget(2560);
  std::cout << "== §7: PPO vs training-free search at equal step budgets "
               "(" << Budget << " env steps) ==\n\n";

  gpusim::Gpu Device;
  Rng DataRng(3);
  WorkloadShape Shape = paperShape(WorkloadKind::MmLeakyRelu);
  triton::Autotuner Tuner;
  triton::AutotuneResult Tuned =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
  BuiltKernel K = buildKernel(Device, WorkloadKind::MmLeakyRelu, Shape,
                              Tuned.Best, ScheduleStyle::TritonO3, DataRng);

  Table Out({"algorithm", "best us", "speedup", "note"});

  // PPO (the paper's choice).
  TrainOutcome RL = trainOnKernel(Device, K, Budget, /*Seed=*/1);
  Out.addRow({"PPO (CuAsmRL)", formatDouble(RL.BestUs, 2),
              formatDouble(RL.speedup(), 3) + "x",
              "learned policy, long-horizon credit"});

  // Training-free baselines on identical games.
  {
    env::GameConfig G = trainingGameConfig();
    G.EpisodeLength = 32;
    env::AssemblyGame Game(Device, K, G);
    Rng R(11);
    search::SearchResult S = search::greedySearch(Game, Budget, R);
    Out.addRow({"greedy hill-climb", formatDouble(S.BestTimeUs, 2),
                formatDouble(S.speedup(), 3) + "x",
                "stalls on zero-gain plateaus"});
  }
  {
    env::GameConfig G = trainingGameConfig();
    G.EpisodeLength = 32;
    env::AssemblyGame Game(Device, K, G);
    Rng R(12);
    search::SearchResult S = search::randomSearch(Game, Budget, R);
    Out.addRow({"random walk", formatDouble(S.BestTimeUs, 2),
                formatDouble(S.speedup(), 3) + "x", "no credit assignment"});
  }
  {
    env::GameConfig G = trainingGameConfig();
    G.EpisodeLength = 64;
    env::AssemblyGame Game(Device, K, G);
    Rng R(13);
    search::SearchResult S = search::evolutionarySearch(Game, Budget, R);
    Out.addRow({"evolutionary (mu+lambda)", formatDouble(S.BestTimeUs, 2),
                formatDouble(S.speedup(), 3) + "x",
                "no training, local minima (paper §7)"});
  }

  std::cout << "baseline (Triton -O3): " << formatDouble(RL.TritonUs, 2)
            << " us\n\n";
  Out.print(std::cout);
  std::cout << "\npaper: RL is chosen for state-of-the-art performance "
               "and potential generalization;\nevolutionary search needs "
               "no training but converges to local minima.\n";
  return 0;
}
