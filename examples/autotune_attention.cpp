//===- examples/autotune_attention.cpp - hierarchical search level 1 ---------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The first level of the paper's hierarchical search (§3.1): enumerate
// kernel configurations for flash-attention, measure each on the
// simulated device and pick the best. Configurations are worth up to
// ~2x — which is why the RL level only starts after this one.
//
//   $ build/examples/autotune_attention
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"
#include "support/Table.h"
#include "triton/Autotuner.h"

#include <iostream>

using namespace cuasmrl;
using namespace cuasmrl::kernels;

int main() {
  gpusim::Gpu Device;
  WorkloadShape Shape = paperShape(WorkloadKind::FlashAttention);
  std::cout << "== autotuning flash-attention (B=" << Shape.B
            << " heads=" << Shape.NHead << " seq=" << Shape.SeqLen
            << " d=" << Shape.DHead << ") ==\n\n";

  // Two sweep workers: candidates build/measure concurrently on
  // private device copies; the result is bit-identical to Workers = 1.
  triton::AutotuneOptions Options;
  Options.Workers = 2;
  triton::Autotuner Tuner(Options);
  triton::AutotuneResult R =
      Tuner.tune(Device, WorkloadKind::FlashAttention, Shape);

  Table Out({"config", "mean us", "vs best"});
  for (const triton::TunedConfig &T : R.Sweep) {
    if (!T.Valid) {
      Out.addRow({T.Config.str(), "invalid", "-"});
      continue;
    }
    Out.addRow({T.Config.str(), formatDouble(T.MeanUs, 2),
                formatDouble(T.MeanUs / R.BestUs, 3) + "x"});
  }
  Out.print(std::cout);
  std::cout << "\nwinner: " << R.Best.str() << " at "
            << formatDouble(R.BestUs, 2) << " us\n";
  // The sweep keeps no state; examples/autotune_sweep persists winners
  // through the deploy cache, where later requests look them up.
  return 0;
}
