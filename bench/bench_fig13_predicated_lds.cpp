//===- bench/bench_fig13_predicated_lds.cpp - reproduces paper Figure 13 -----===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 13 and the §5.7.2 observations on batch matrix
// multiplication: the agent learns to schedule an LDGSTS *earlier than*
// a predicated-off (@!PT) LDS, and after exhausting the useful moves it
// "lingers" — repeatedly moving an instruction up and then down until
// the episode ends.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/StringUtils.h"
#include "triton/Autotuner.h"

#include <iostream>

using namespace cuasmrl;
using namespace cuasmrl::bench;
using namespace cuasmrl::kernels;

int main() {
  unsigned Steps = stepsBudget(2560);
  std::cout << "== Figure 13 / §5.7.2: LDGSTS hoisted above a "
               "predicated-off LDS (bmm) ==\n(RL budget "
            << Steps << " steps)\n\n";

  gpusim::Gpu Device;
  Rng DataRng(3);
  WorkloadShape Shape = paperShape(WorkloadKind::Bmm);
  triton::Autotuner Tuner;
  triton::AutotuneResult Tuned =
      Tuner.tune(Device, WorkloadKind::Bmm, Shape);
  BuiltKernel K = buildKernel(Device, WorkloadKind::Bmm, Shape, Tuned.Best,
                              ScheduleStyle::TritonO3, DataRng);

  // Show the artifact in the -O3 schedule (Figure 13 "before").
  std::cout << "schedule before (around the dead LDS):\n";
  for (size_t I = 0; I + 1 < K.Prog.size(); ++I) {
    if (!K.Prog.stmt(I).isInstr())
      continue;
    if (K.Prog.stmt(I).instr().isAlwaysFalseGuard()) {
      for (size_t J = I > 1 ? I - 2 : 0; J <= I + 2 && J < K.Prog.size();
           ++J)
        if (K.Prog.stmt(J).isInstr())
          std::cout << "  " << K.Prog.stmt(J).instr().str().substr(0, 64)
                    << (J == I ? "   <-- @!PT (never executes)" : "")
                    << "\n";
      break;
    }
  }

  TrainOutcome RL = trainOnKernel(Device, K, Steps, /*Seed=*/1,
                                  /*WantTrace=*/true);
  std::cout << "\ntriton " << formatDouble(RL.TritonUs, 2)
            << "us -> cuasmrl " << formatDouble(RL.BestUs, 2) << "us ("
            << formatDouble(RL.speedup(), 3) << "x)\n\n";

  // Detect the Figure 13 move in the greedy trace.
  bool SawHoist = false;
  unsigned Lingering = 0;
  for (size_t I = 0; I < RL.GreedyTrace.size(); ++I) {
    const env::AppliedAction &A = RL.GreedyTrace[I];
    if (A.Up && A.MovedText.find("LDGSTS") != std::string::npos &&
        A.OtherText.find("@!PT LDS") != std::string::npos)
      SawHoist = true;
    // Lingering: an up immediately undone by a down of the same
    // instruction (or vice versa).
    if (I > 0 && RL.GreedyTrace[I - 1].MovedText == A.MovedText &&
        RL.GreedyTrace[I - 1].Up != A.Up)
      ++Lingering;
  }

  // Structural check: how many async copies sit *above* the dead LDS in
  // its loop body, before vs after optimization.
  auto CopiesAboveDeadLds = [](const sass::Program &P) {
    int Copies = 0;
    for (size_t I = 0; I < P.size(); ++I) {
      if (!P.stmt(I).isInstr())
        Copies = 0; // New region.
      else if (P.stmt(I).instr().opcode() == sass::Opcode::LDGSTS)
        ++Copies;
      else if (P.stmt(I).instr().isAlwaysFalseGuard())
        return Copies;
    }
    return -1;
  };
  int Before = CopiesAboveDeadLds(K.Prog);
  int After = CopiesAboveDeadLds(RL.BestProg);
  std::cout << "async copies above the dead LDS: before=" << Before
            << " after=" << After
            << (After > Before ? "   <-- Figure 13 hoist applied" : "")
            << "\n";
  std::cout << "LDGSTS-past-dead-LDS swap in the greedy trace: "
            << (SawHoist ? "YES" : "no") << "\n";
  std::cout << "lingering up/down oscillations at episode end: " << Lingering
            << "  (paper: the agent lingers after applying the useful "
               "moves)\n\n";

  // In the best schedule, the dead LDS must now sit below the copy it
  // used to delay.
  const sass::Program &Best = RL.BestProg;
  for (size_t I = 0; I + 1 < Best.size(); ++I) {
    if (!Best.stmt(I).isInstr() || !Best.stmt(I + 1).isInstr())
      continue;
    if (Best.stmt(I).instr().opcode() == sass::Opcode::LDGSTS &&
        Best.stmt(I + 1).instr().isAlwaysFalseGuard()) {
      std::cout << "schedule after (Figure 13 'after'):\n  "
                << Best.stmt(I).instr().str().substr(0, 64) << "\n  "
                << Best.stmt(I + 1).instr().str().substr(0, 64)
                << "   <-- dead LDS now below the copy\n";
      break;
    }
  }
  return 0;
}
