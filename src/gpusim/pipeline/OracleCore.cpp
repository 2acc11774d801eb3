//===- gpusim/pipeline/OracleCore.cpp ----------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "gpusim/pipeline/OracleCore.h"

#include "gpusim/DecodedProgram.h"
#include "gpusim/Gpu.h"
#include "gpusim/pipeline/ExecContext.h"
#include "gpusim/pipeline/ExecuteStage.h"
#include "gpusim/pipeline/SimState.h"
#include "sass/Program.h"

#include <vector>

using namespace cuasmrl;
using namespace cuasmrl::gpusim;

bool gpusim::runBlockOracle(Gpu &Device, const sass::Program &Prog,
                            const DecodedProgram &Decoded,
                            const KernelLaunch &Launch,
                            const ConstantBank &Consts, unsigned CtaLinear,
                            std::string &FaultReason) {
  SharedMemory Shared(Launch.SharedBytes);
  std::vector<WarpSimState> Warps(Launch.WarpsPerBlock);
  for (unsigned WI = 0; WI < Launch.WarpsPerBlock; ++WI) {
    Warps[WI].WarpInBlock = WI;
    Warps[WI].CtaLinear = CtaLinear;
  }

  unsigned Live = Launch.WarpsPerBlock;
  uint64_t Budget = 100'000'000;
  uint64_t Executed = 0;

  while (Live > 0) {
    bool Progress = false;
    unsigned AtBarrier = 0;
    for (WarpSimState &W : Warps) {
      if (W.Done)
        continue;
      if (W.AtBarrier) {
        ++AtBarrier;
        continue;
      }
      // Step one instruction.
      while (W.Pc < Prog.size() && Decoded.isLabel(W.Pc))
        ++W.Pc;
      if (W.Pc >= Prog.size()) {
        W.Done = true;
        --Live;
        continue;
      }
      const sass::Instruction &I = Prog.stmt(W.Pc).instr();
      OracleExecCtx Ctx{W,      Shared, Device.globalMemory(), Consts,
                        Launch, 32,     Executed};
      ExecResult R = executeOracle(I, Decoded[W.Pc], Ctx);
      ++Executed;
      Progress = true;
      switch (R.K) {
      case ExecResult::Kind::Normal:
        ++W.Pc;
        break;
      case ExecResult::Kind::Branch: {
        if (R.TargetIdx < 0) {
          FaultReason = unresolvedBranchFault(I);
          return false;
        }
        W.Pc = static_cast<size_t>(R.TargetIdx);
        break;
      }
      case ExecResult::Kind::Exit:
        W.Done = true;
        --Live;
        break;
      case ExecResult::Kind::BlockBarrier:
        ++W.Pc;
        W.AtBarrier = true;
        ++AtBarrier;
        break;
      }
      if (Executed > Budget) {
        FaultReason = "oracle instruction budget exceeded";
        return false;
      }
    }
    if (Live > 0 && AtBarrier == Live) {
      for (WarpSimState &W : Warps)
        W.AtBarrier = false;
      Progress = true;
    }
    if (!Progress && Live > 0) {
      FaultReason = "oracle made no progress (barrier mismatch?)";
      return false;
    }
  }

  if (Shared.faulted()) {
    FaultReason = "shared-memory access out of bounds";
    return false;
  }
  if (Device.globalMemory().faulted()) {
    FaultReason = "global-memory access outside any allocation";
    Device.globalMemory().clearFault();
    return false;
  }
  return true;
}
