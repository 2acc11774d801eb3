//===- bench/bench_fig9_optimization_moves.cpp - reproduces paper Figure 9 ---===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 9 and the §5.7.1 analysis: the agent learns to
// schedule the HMMA instruction *before* the yield-flagged LDGSTS that
// sat inside a `.reuse` operand pair, and the `.reuse` ablation shows
// the asymmetry the paper reports —
//   - removing `.reuse` from the ORIGINAL schedule: no degradation
//     (the warp switch already invalidated the operand cache);
//   - removing `.reuse` from the OPTIMIZED schedule: the gain is lost
//     (the back-to-back pair really uses the cache).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/StringUtils.h"
#include "triton/Autotuner.h"

#include <iostream>

using namespace cuasmrl;
using namespace cuasmrl::bench;
using namespace cuasmrl::kernels;

namespace {

double measureUs(gpusim::Gpu &Device, const sass::Program &Prog,
                 const gpusim::KernelLaunch &Launch) {
  gpusim::MeasureConfig M;
  M.WarmupIters = 1;
  M.RepeatIters = 2;
  M.NoiseStddev = 0.0;
  M.MaxBlocks = Device.residentBlocks(Launch);
  return measureKernel(Device, Prog, Launch, M).MeanUs;
}

sass::Program stripReuse(const sass::Program &Prog) {
  sass::Program Out = Prog;
  for (size_t I = 0; I < Out.size(); ++I)
    if (Out.stmt(I).isInstr())
      for (sass::Operand &Op : Out.stmt(I).instr().operands())
        Op.setReuse(false);
  return Out;
}

} // namespace

int main() {
  unsigned Steps = stepsBudget(2560);
  std::cout << "== Figure 9 / §5.7.1: automatically discovered "
               "optimization moves (fused GEMM+LeakyReLU) ==\n(RL budget "
            << Steps << " steps)\n\n";

  gpusim::Gpu Device;
  Rng DataRng(3);
  WorkloadShape Shape = paperShape(WorkloadKind::MmLeakyRelu);
  triton::Autotuner Tuner;
  triton::AutotuneResult Tuned =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
  BuiltKernel K = buildKernel(Device, WorkloadKind::MmLeakyRelu, Shape,
                              Tuned.Best, ScheduleStyle::TritonO3, DataRng);

  TrainOutcome RL = trainOnKernel(Device, K, Steps, /*Seed=*/1,
                                  /*WantTrace=*/true);
  std::cout << "triton " << formatDouble(RL.TritonUs, 2) << "us -> cuasmrl "
            << formatDouble(RL.BestUs, 2) << "us ("
            << formatDouble(RL.speedup(), 3) << "x)\n\n";

  // The inference process is seeded and deterministic (§5.7); replay the
  // learned moves and look for the Figure 9 signature: an HMMA/LDGSTS
  // reorder that reunites a .reuse pair.
  std::cout << "greedy inference trace (first moves):\n";
  bool SawFig9 = false;
  size_t Shown = 0;
  for (const env::AppliedAction &A : RL.GreedyTrace) {
    bool MovedLdgsts = A.MovedText.find("LDGSTS") != std::string::npos;
    bool PastHmma = A.OtherText.find("HMMA") != std::string::npos;
    bool IsFig9 = MovedLdgsts && PastHmma;
    SawFig9 = SawFig9 || IsFig9;
    if (Shown < 14) {
      std::cout << "  " << (A.Up ? "UP  " : "DOWN") << " "
                << A.MovedText.substr(0, 46) << "  past  "
                << A.OtherText.substr(0, 34)
                << (IsFig9 ? "   <-- Figure 9 move" : "") << "\n";
      ++Shown;
    }
  }
  // Structural check on the winning schedule: the TritonO3 artifact is a
  // yield-flagged LDGSTS directly below an HMMA (inside the reuse pair);
  // the optimized schedule must have moved it out.
  auto PairSplit = [](const sass::Program &P) {
    for (size_t I = 1; I + 1 < P.size(); ++I) {
      if (!P.stmt(I).isInstr() || !P.stmt(I - 1).isInstr())
        continue;
      const sass::Instruction &Cur = P.stmt(I).instr();
      if (Cur.opcode() == sass::Opcode::LDGSTS && Cur.ctrl().yield() &&
          P.stmt(I - 1).instr().opcode() == sass::Opcode::HMMA &&
          P.stmt(I + 1).isInstr() &&
          P.stmt(I + 1).instr().opcode() == sass::Opcode::HMMA)
        return true;
    }
    return false;
  };
  bool SplitBefore = PairSplit(K.Prog);
  bool SplitAfter = PairSplit(RL.BestProg);
  std::cout << "\nreuse pair split by the yield-flagged LDGSTS: before="
            << (SplitBefore ? "yes" : "no")
            << "  after=" << (SplitAfter ? "yes" : "no")
            << (SplitBefore && !SplitAfter
                    ? "   <-- Figure 9 reorder applied"
                    : "")
            << "\n";
  std::cout << "HMMA/LDGSTS swap visible in the greedy trace: "
            << (SawFig9 ? "YES" : "no") << "\n\n";

  // The .reuse ablation.
  double Orig = measureUs(Device, K.Prog, K.Launch);
  double OrigStripped = measureUs(Device, stripReuse(K.Prog), K.Launch);
  double Opt = measureUs(Device, RL.BestProg, K.Launch);
  double OptStripped = measureUs(Device, stripReuse(RL.BestProg), K.Launch);

  std::cout << ".reuse flag ablation (paper §5.7.1):\n";
  std::cout << "  original schedule:   " << formatDouble(Orig, 2)
            << "us -> without .reuse " << formatDouble(OrigStripped, 2)
            << "us  (" << formatDouble(OrigStripped / Orig, 4)
            << "x; ~no degradation expected)\n";
  std::cout << "  optimized schedule:  " << formatDouble(Opt, 2)
            << "us -> without .reuse " << formatDouble(OptStripped, 2)
            << "us  (" << formatDouble(OptStripped / Opt, 4)
            << "x; gain partially lost)\n";
  std::cout << "\npaper: removing the flag from the original schedule "
               "costs nothing (the warp\nswitch at the LDGSTS already "
               "invalidated the operand cache); removing it\nfrom the "
               "optimized schedule loses the gain.\n";
  return 0;
}
