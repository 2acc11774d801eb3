//===- gpusim/pipeline/ExecContext.h - Execution contexts --------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two execution contexts `executeInstr` runs against — the bridge
/// between the opcode semantics (pipeline/ExecutorImpl.h) and a
/// machine's state:
///
///  - `TimedExecCtx`: write-back-time register semantics. Fixed-latency
///    results commit at `CommitCycle`; variable-latency results are
///    collected into `Deferred` for the writeback stage to attach to a
///    completion event. Also accumulates the instruction's memory
///    footprint, which the writeback stage's memory pipe turns into a
///    completion time.
///  - `OracleExecCtx`: immediate commits, program-order reference
///    execution (the architectural oracle of §4.1).
///
/// Both are plain aggregates over references into machine state: the
/// execute stage owns no state of its own, which is what lets the
/// opcode switch compile once and serve both machines (timed and
/// oracle).
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_PIPELINE_EXECCONTEXT_H
#define CUASMRL_GPUSIM_PIPELINE_EXECCONTEXT_H

#include "gpusim/Launch.h"
#include "gpusim/Memory.h"
#include "gpusim/pipeline/SimState.h"

#include <algorithm>
#include <string_view>
#include <vector>

namespace cuasmrl {
namespace gpusim {

/// Execution context with timed (write-back-time, deferrable) register
/// semantics.
struct TimedExecCtx {
  WarpSimState &W;
  SharedMemory &Shared;   ///< The warp's block's shared memory.
  GlobalMemory &Global;
  const ConstantBank &Consts;
  const KernelLaunch &Launch;
  unsigned Lanes;         ///< Spec.LanesPerWarp (for SR_TID).
  uint64_t Now;
  uint64_t CommitCycle;   ///< Write-back time for fixed-latency results.
  bool Defer;             ///< Variable latency: collect writes for an event.
  bool CorruptShared = false; ///< LDGSTS order violation poisons data.
  std::vector<DeferredWrite> Deferred;

  // Memory-footprint accounting (filled during functional execution).
  uint64_t GlobalWords = 0;
  uint64_t GlobalMinAddr = ~0ull;
  uint64_t SharedWords = 0;
  uint64_t ConstWords = 0;

  uint32_t readR(unsigned I) { return readRegR(W, I, Now); }
  void writeR(unsigned I, uint32_t V) {
    if (Defer)
      Deferred.push_back({DeferredWrite::File::R,
                          static_cast<uint16_t>(I), V});
    else
      writeRegR(W, I, V, CommitCycle);
  }
  uint32_t readUR(unsigned I) { return W.UR[I]; }
  void writeUR(unsigned I, uint32_t V) {
    if (Defer)
      Deferred.push_back({DeferredWrite::File::UR,
                          static_cast<uint16_t>(I), V});
    else
      W.UR[I] = V; // Uniform datapath: treated as immediately visible.
  }
  bool readP(unsigned I) { return readPredP(W, I, Now); }
  void writeP(unsigned I, bool V) {
    if (Defer)
      Deferred.push_back({DeferredWrite::File::P,
                          static_cast<uint16_t>(I), V});
    else
      writePredP(W, I, V, CommitCycle);
  }
  bool readUP(unsigned I) { return W.UP[I] != 0; }
  void writeUP(unsigned I, bool V) { W.UP[I] = V; }

  uint32_t loadShared(uint32_t Addr) {
    ++SharedWords;
    return Shared.loadWord(Addr);
  }
  void storeShared(uint32_t Addr, uint32_t V) {
    ++SharedWords;
    Shared.storeWord(Addr, CorruptShared ? V ^ PoisonWord : V);
  }
  uint32_t loadGlobal(uint64_t Addr) {
    ++GlobalWords;
    GlobalMinAddr = std::min(GlobalMinAddr, Addr);
    return Global.loadWord(Addr);
  }
  void storeGlobal(uint64_t Addr, uint32_t V) {
    ++GlobalWords;
    GlobalMinAddr = std::min(GlobalMinAddr, Addr);
    Global.storeWord(Addr, V);
  }
  uint32_t loadConst(uint32_t Offset) {
    ++ConstWords;
    return Consts.loadWord(Offset);
  }
  uint32_t specialReg(std::string_view Name) {
    if (Name == "SR_CLOCKLO")
      return static_cast<uint32_t>(Now);
    if (Name == "SR_CLOCKHI")
      return static_cast<uint32_t>(Now >> 32);
    if (Name == "SR_TID.X")
      return W.WarpInBlock * Lanes;
    if (Name == "SR_TID.Y" || Name == "SR_TID.Z" || Name == "SR_LANEID")
      return 0;
    if (Name == "SR_CTAID.X")
      return W.CtaLinear % Launch.GridX;
    if (Name == "SR_CTAID.Y")
      return (W.CtaLinear / Launch.GridX) % Launch.GridY;
    if (Name == "SR_CTAID.Z")
      return W.CtaLinear / (Launch.GridX * Launch.GridY);
    return 0;
  }
};

/// Immediate-commit context for the architectural reference execution.
struct OracleExecCtx {
  WarpSimState &W;
  SharedMemory &Shared;
  GlobalMemory &Global;
  const ConstantBank &Consts;
  const KernelLaunch &Launch;
  unsigned Lanes;
  uint64_t InstrCount = 0;

  uint32_t readR(unsigned I) { return W.R[I]; }
  void writeR(unsigned I, uint32_t V) { W.R[I] = V; }
  uint32_t readUR(unsigned I) { return W.UR[I]; }
  void writeUR(unsigned I, uint32_t V) { W.UR[I] = V; }
  bool readP(unsigned I) { return W.P[I] != 0; }
  void writeP(unsigned I, bool V) { W.P[I] = V; }
  bool readUP(unsigned I) { return W.UP[I] != 0; }
  void writeUP(unsigned I, bool V) { W.UP[I] = V; }

  uint32_t loadShared(uint32_t Addr) { return Shared.loadWord(Addr); }
  void storeShared(uint32_t Addr, uint32_t V) { Shared.storeWord(Addr, V); }
  uint32_t loadGlobal(uint64_t Addr) { return Global.loadWord(Addr); }
  void storeGlobal(uint64_t Addr, uint32_t V) { Global.storeWord(Addr, V); }
  uint32_t loadConst(uint32_t Offset) { return Consts.loadWord(Offset); }
  uint32_t specialReg(std::string_view Name) {
    if (Name == "SR_CLOCKLO")
      return static_cast<uint32_t>(InstrCount);
    if (Name == "SR_TID.X")
      return W.WarpInBlock * Lanes;
    if (Name == "SR_CTAID.X")
      return W.CtaLinear % Launch.GridX;
    if (Name == "SR_CTAID.Y")
      return (W.CtaLinear / Launch.GridX) % Launch.GridY;
    if (Name == "SR_CTAID.Z")
      return W.CtaLinear / (Launch.GridX * Launch.GridY);
    return 0;
  }
};

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_PIPELINE_EXECCONTEXT_H
