//===- gpusim/Gpu.cpp - Simulated GPU facade ---------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The machines themselves live in gpusim/pipeline/: TimedCore drives
// the staged timed pipeline, OracleCore the program-order reference.
// This file is only the device facade: state ownership, occupancy
// rules, the run() entry points, and the scratch-machine cache.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Gpu.h"

#include "gpusim/DecodedProgram.h"
#include "gpusim/pipeline/OracleCore.h"
#include "gpusim/pipeline/TimedCore.h"
#include "sass/Program.h"

#include <algorithm>
#include <cassert>

using namespace cuasmrl;
using namespace cuasmrl::gpusim;

Gpu::Gpu(GpuSpec S)
    : Spec(S), L1(S.L1Bytes, S.CacheLineBytes, S.L1Ways),
      L2(S.L2Bytes, S.CacheLineBytes, S.L2Ways) {}

Gpu::~Gpu() = default;

Gpu::Gpu(const Gpu &O) : Spec(O.Spec), Global(O.Global), L1(O.L1), L2(O.L2) {}

Gpu &Gpu::operator=(const Gpu &O) {
  if (this != &O) {
    Spec = O.Spec;
    Global = O.Global;
    L1 = O.L1;
    L2 = O.L2;
    Scratch.reset(); // The machine was built against the old state.
  }
  return *this;
}

Gpu::Gpu(Gpu &&O) noexcept
    : Spec(std::move(O.Spec)), Global(std::move(O.Global)),
      L1(std::move(O.L1)), L2(std::move(O.L2)) {
  O.Scratch.reset(); // Machines reference their owning device; don't rebind.
}

Gpu &Gpu::operator=(Gpu &&O) noexcept {
  if (this != &O) {
    Spec = std::move(O.Spec);
    Global = std::move(O.Global);
    L1 = std::move(O.L1);
    L2 = std::move(O.L2);
    Scratch.reset();
    O.Scratch.reset();
  }
  return *this;
}

void Gpu::clearCaches() {
  L1.clear();
  L2.clear();
}

unsigned Gpu::residentBlocks(const KernelLaunch &Launch) const {
  unsigned ByShared =
      Launch.SharedBytes
          ? std::max(1u, Spec.SharedBytesPerSM / Launch.SharedBytes)
          : Spec.MaxBlocksPerSM;
  unsigned ByWarps =
      std::max(1u, Spec.MaxWarpsPerSM / std::max(1u, Launch.WarpsPerBlock));
  unsigned Limit = std::min({ByShared, ByWarps, Spec.MaxBlocksPerSM});
  // No point keeping more blocks resident than the grid supplies per SM.
  unsigned PerSm =
      (Launch.numBlocks() + Spec.NumSMs - 1) / Spec.NumSMs;
  return std::max(1u, std::min(Limit, std::max(1u, PerSm)));
}

TimedMachine &Gpu::scratchMachine() {
  if (!Scratch)
    Scratch = std::make_unique<TimedMachine>(*this);
  return *Scratch;
}

RunResult Gpu::run(const sass::Program &Prog, const KernelLaunch &Launch,
                   RunMode Mode, unsigned MaxBlocks) {
  DecodedProgram Decoded(Prog);
  return run(Prog, Decoded, Launch, Mode, MaxBlocks);
}

RunResult Gpu::run(const sass::Program &Prog, const DecodedProgram &Decoded,
                   const KernelLaunch &Launch, RunMode Mode,
                   unsigned MaxBlocks) {
  assert(Decoded.size() == Prog.size() &&
         "decoded image out of sync with program");
  RunResult Result;
  unsigned NumBlocks = Launch.numBlocks();
  unsigned ToRun = MaxBlocks ? std::min(MaxBlocks, NumBlocks) : NumBlocks;

  if (Mode == RunMode::Oracle) {
    ConstantBank Consts;
    Consts.setParams(Launch.Params);
    for (unsigned Cta = 0; Cta < ToRun; ++Cta) {
      if (!runBlockOracle(*this, Prog, Decoded, Launch, Consts, Cta,
                          Result.FaultReason)) {
        Result.Valid = false;
        return Result;
      }
    }
    return Result;
  }

  TimedMachine &Machine = scratchMachine();
  Machine.beginRun(Prog, Decoded, Launch);
  unsigned Resident = residentBlocks(Launch);
  unsigned Groups = 0;
  uint64_t TotalCycles = 0;
  for (unsigned First = 0; First < ToRun; First += Resident) {
    unsigned Count = std::min(Resident, ToRun - First);
    bool Ok = Machine.runGroup(First, Count);
    TotalCycles += Machine.elapsed();
    ++Groups;
    if (!Ok) {
      Result.Valid = false;
      Result.FaultReason = Machine.faultReason();
      break;
    }
  }
  Result.Counters = Machine.counters();

  // Extrapolate one SM's group timing over the full grid.
  double WavesReal =
      static_cast<double>(NumBlocks) /
      (static_cast<double>(Resident) * static_cast<double>(Spec.NumSMs));
  if (WavesReal < 1.0)
    WavesReal = 1.0;
  double MeanGroup =
      Groups ? static_cast<double>(TotalCycles) / Groups : 0.0;
  Result.Cycles = static_cast<uint64_t>(MeanGroup * WavesReal);
  Result.TimeUs = static_cast<double>(Result.Cycles) /
                  (Spec.ClockGHz * 1000.0);
  return Result;
}
