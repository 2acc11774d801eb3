//===- bench/bench_table3_workload_analysis.cpp - reproduces paper Table 3 ---===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 3: the Nsight-Compute-style compute and memory
// workload analysis of fused GEMM with the LeakyReLU epilogue, compared
// between the CuAsmRL-optimized and the Triton schedules. The paper
// finds near-identical compute utilization but ~11% higher memory
// throughput for CuAsmRL (better latency hiding, not more work).
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

struct Metrics {
  double IpcActive, IpcElapsed, SmBusy, MemGBs, MemBusy, MaxBwPct;
};

Metrics collect(gpusim::Gpu &Device, const sass::Program &Prog,
                const gpusim::KernelLaunch &Launch) {
  gpusim::MeasureConfig M;
  M.WarmupIters = 1;
  M.RepeatIters = 1;
  M.MaxBlocks = Device.residentBlocks(Launch);
  gpusim::Measurement R = measureKernel(Device, Prog, Launch, M);
  const gpusim::PerfCounters &C = R.Counters;
  const gpusim::GpuSpec &Spec = Device.spec();
  double BytesPerCycle =
      C.ElapsedCycles ? static_cast<double>(C.DramBytes) / C.ElapsedCycles
                      : 0.0;
  Metrics Out;
  Out.IpcActive = C.ipcActive();
  Out.IpcElapsed = C.ipcElapsed();
  Out.SmBusy = C.smBusyPct();
  // Chip-wide DRAM throughput: per-SM bytes/cycle x clock x SM count.
  Out.MemGBs = BytesPerCycle * Spec.ClockGHz * Spec.NumSMs;
  Out.MemBusy = C.memBusyPct();
  Out.MaxBwPct = 100.0 * BytesPerCycle / Spec.DramBytesPerCycle;
  return Out;
}

} // namespace

int main() {
  unsigned Steps = stepsBudget(2500);
  std::cout << "== Table 3: compute and memory workload analysis, fused "
               "GEMM + LeakyReLU ==\n(RL budget "
            << Steps << " steps)\n\n";

  gpusim::Gpu Device;
  Rng DataRng(3);
  WorkloadShape Shape = paperShape(WorkloadKind::MmLeakyRelu);
  triton::Autotuner Tuner;
  triton::AutotuneResult Tuned =
      Tuner.tune(Device, WorkloadKind::MmLeakyRelu, Shape);
  BuiltKernel K = buildKernel(Device, WorkloadKind::MmLeakyRelu, Shape,
                              Tuned.Best, ScheduleStyle::TritonO3, DataRng);

  TrainOutcome RL = trainOnKernel(Device, K, Steps);
  std::cout << "triton " << formatDouble(RL.TritonUs, 2) << "us -> cuasmrl "
            << formatDouble(RL.BestUs, 2) << "us ("
            << formatDouble(RL.speedup(), 3) << "x)\n\n";

  Metrics T = collect(Device, K.Prog, K.Launch);
  Metrics O = collect(Device, RL.BestProg, K.Launch);

  Table Out({"", "metric", "CuAsmRL", "Triton"});
  Out.addRow({"Compute", "Executed Ipc Active (inst/cycle)",
              formatDouble(O.IpcActive, 2), formatDouble(T.IpcActive, 2)});
  Out.addRow({"Resources", "Executed Ipc Elapsed (inst/cycle)",
              formatDouble(O.IpcElapsed, 2),
              formatDouble(T.IpcElapsed, 2)});
  Out.addRow({"", "SM Busy (%)", formatDouble(O.SmBusy, 2),
              formatDouble(T.SmBusy, 2)});
  Out.addRow({"Memory", "Memory Throughput (GB/s)",
              formatDouble(O.MemGBs, 2), formatDouble(T.MemGBs, 2)});
  Out.addRow({"Resources", "Mem Busy (%)", formatDouble(O.MemBusy, 2),
              formatDouble(T.MemBusy, 2)});
  Out.addRow({"", "Max Bandwidth (%)", formatDouble(O.MaxBwPct, 2),
              formatDouble(T.MaxBwPct, 2)});
  Out.print(std::cout);

  std::cout << "\npaper: IPC/SM-busy nearly equal; CuAsmRL memory "
               "throughput ~11% higher\n(175.71 vs 157.73 GB/s) with "
               "higher Mem Busy % — the optimized schedule\nmoves the "
               "same bytes in less time.\n";
  return 0;
}
