//===- bench/bench_fig7_stall_resolution.cpp - reproduces paper Figure 7 -----===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 7: the percentage of stall-count dependencies
// resolved by the built-in table (db), inferred by the analysis pass
// (infer-only), and denylisted (not resolved), averaged over the Table 2
// kernels. The paper reports 41.7% / 29.2% / remainder on average.
//
//===----------------------------------------------------------------------===//

#include "analysis/StallAnalysis.h"
#include "kernels/Builder.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "triton/Autotuner.h"

#include <iostream>

using namespace cuasmrl;
using namespace cuasmrl::kernels;

int main() {
  std::cout << "== Figure 7: stall-count dependency resolution ==\n\n";

  Table Out({"kernel", "db %", "infer-only %", "denylisted %", "deps"});
  double SumDb = 0, SumInfer = 0, SumDeny = 0;
  unsigned Kernels = 0;

  for (WorkloadKind Kind : allWorkloads()) {
    gpusim::Gpu Device;
    Rng DataRng(3);
    WorkloadShape Shape = paperShape(Kind);
    triton::Autotuner Tuner;
    triton::AutotuneResult Tuned = Tuner.tune(Device, Kind, Shape);
    BuiltKernel K = buildKernel(Device, Kind, Shape, Tuned.Best,
                                ScheduleStyle::TritonO3, DataRng);

    analysis::StallAnalysis A = analysis::analyzeStallCounts(
        K.Prog, analysis::StallTable::builtin());
    Out.addRow({workloadName(Kind), formatDouble(A.pctTable(), 1),
                formatDouble(A.pctInferred(), 1),
                formatDouble(A.pctDenylisted(), 1),
                std::to_string(static_cast<unsigned>(A.totalDeps()))});
    SumDb += A.pctTable();
    SumInfer += A.pctInferred();
    SumDeny += A.pctDenylisted();
    ++Kernels;
  }
  Out.addRow({"average", formatDouble(SumDb / Kernels, 1),
              formatDouble(SumInfer / Kernels, 1),
              formatDouble(SumDeny / Kernels, 1), "-"});
  Out.print(std::cout);
  std::cout << "\npaper averages: db 41.7%, infer-only 29.2%, denylisted "
               "29.1%\n";
  return 0;
}
