//===- gpusim/pipeline/TimedCore.h - The staged timed machine ----------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cycle-approximate SM model, assembled from the pipeline stages:
///
///   WarpSelect::pick ─▶ fetchStage ─▶ OperandFetch::run
///     ─▶ executeTimed ─▶ event plumbing (EventQueue / MemPipe)
///
/// One instance simulates one SM running groups of resident blocks to
/// completion. The machine is *rebindable*: `beginRun()` points it at a
/// program/image/launch and clears per-run results, while allocation
/// capacity (warp vector, shared memories, event heap, write-buffer
/// pool) carries over — so a `Gpu` can keep one machine as scratch
/// across the thousands of runs a measurement or RL episode performs.
/// Rebinding is behaviorally invisible: every run starts from the same
/// cleared state a freshly constructed machine would have.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_PIPELINE_TIMEDCORE_H
#define CUASMRL_GPUSIM_PIPELINE_TIMEDCORE_H

#include "gpusim/DecodedProgram.h"
#include "gpusim/Gpu.h"
#include "gpusim/PerfCounters.h"
#include "gpusim/pipeline/Latches.h"
#include "gpusim/pipeline/SimState.h"
#include "gpusim/pipeline/Writeback.h"

#include <string>
#include <vector>

namespace cuasmrl {
namespace sass {
class Program;
}
namespace gpusim {

/// The staged timed machine. One instance per SM-sized simulation;
/// reusable across runs via beginRun().
class TimedMachine {
public:
  explicit TimedMachine(Gpu &Device);

  /// Binds the machine to a kernel for one `Gpu::run` call. \p Decoded
  /// must be positionally aligned with \p Prog. Clears per-run state
  /// (events, counters, fault, elapsed); keeps allocations.
  void beginRun(const sass::Program &Prog, const DecodedProgram &Decoded,
                const KernelLaunch &Launch);

  /// Runs blocks [FirstCta, FirstCta + NumBlocks) concurrently; returns
  /// false on fault. Leftover completion events carry into the next
  /// group of the same run (matching the pre-staged machine).
  bool runGroup(unsigned FirstCta, unsigned NumBlocks);

  uint64_t elapsed() const { return Elapsed; }
  const PerfCounters &counters() const { return Counters; }
  const std::string &faultReason() const { return FaultReason; }

private:
  /// Drives one issue slot for \p WarpIdx through the fetch / operand /
  /// execute / writeback stages.
  void issue(Scheduler &S, unsigned WarpIdx);
  void fault(std::string Reason) {
    if (FaultReason.empty())
      FaultReason = std::move(Reason);
  }

  Gpu &Device;
  const GpuSpec &Spec;
  const sass::Program *Prog = nullptr;
  const DecodedProgram *Decoded = nullptr;
  const KernelLaunch *Launch = nullptr;
  ConstantBank Consts;

  std::vector<WarpSimState> Warps;
  std::vector<SharedMemory> SharedPerBlock;
  std::vector<Scheduler> Schedulers;
  EventQueue Events;
  MemPipe Mem;
  /// Per-statement bank penalty with the reuse cache out of play,
  /// tabulated by beginRun (see OperandFetch::buildPenaltyTable) and
  /// cached across runs keyed on the image's content version.
  std::vector<uint16_t> OperandPenalty;
  uint64_t OperandPenaltyVersion = 0;

  uint64_t Now = 0;
  uint64_t Elapsed = 0;
  unsigned LiveWarps = 0;
  PerfCounters Counters;
  std::string FaultReason;
};

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_PIPELINE_TIMEDCORE_H
