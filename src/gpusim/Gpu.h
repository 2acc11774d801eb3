//===- gpusim/Gpu.h - Simulated GPU facade -----------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The device the rest of the library talks to. `Gpu` owns global
/// memory and the cache hierarchy state, and runs kernels in one of two
/// modes:
///
///  - `RunMode::Oracle` — architectural reference execution in program
///    order with immediate commits. Defines "the right answer" for
///    probabilistic testing (§4.1) and produces no timing.
///  - `RunMode::Timed` — the cycle-approximate Ampere SM model: four
///    greedy-then-oldest warp schedulers, control-code stall counts and
///    scoreboard waits, an LSU with cache/DRAM latencies and bandwidth
///    backpressure, register-bank conflicts with an operand reuse cache,
///    and hazard-faithful register reads (a consumer issued too early
///    reads the *stale* value — this is what makes invalid schedules
///    measurably wrong rather than merely slow).
///
/// The timed machine itself lives in `gpusim/pipeline/` as explicit
/// stages (see docs/SIMULATOR.md). The facade keeps one machine as
/// scratch and rebinds it per run, so back-to-back runs on the same
/// device — an RL episode, a measurement's warmup+reps — pay no per-run
/// allocation churn. The scratch is an implementation cache, never
/// copied with the device and dropped on copy/move.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_GPU_H
#define CUASMRL_GPUSIM_GPU_H

#include "gpusim/Cache.h"
#include "gpusim/GpuSpec.h"
#include "gpusim/Launch.h"
#include "gpusim/Memory.h"

#include <memory>

namespace cuasmrl {
namespace sass {
class Program;
}
namespace gpusim {

class DecodedProgram;
class TimedMachine;

/// Execution fidelity mode.
enum class RunMode {
  Oracle, ///< Program-order reference semantics (no timing).
  Timed,  ///< Cycle-approximate timing with hazard-faithful values.
};

/// Simulated device.
class Gpu {
public:
  explicit Gpu(GpuSpec Spec = GpuSpec());
  ~Gpu();

  /// Copying a device snapshots its architectural state (memory, cache
  /// hierarchy) but never the scratch machine — a copy behaves exactly
  /// like a copy of the pre-staged device.
  Gpu(const Gpu &O);
  Gpu &operator=(const Gpu &O);
  Gpu(Gpu &&O) noexcept;
  Gpu &operator=(Gpu &&O) noexcept;

  const GpuSpec &spec() const { return Spec; }
  GlobalMemory &globalMemory() { return Global; }
  const GlobalMemory &globalMemory() const { return Global; }

  /// Invalidates L1 and L2 (between measurement reps, §3.6).
  void clearCaches();

  /// Runs \p Prog under \p Launch.
  ///
  /// \param MaxBlocks when nonzero, simulate only the first \p MaxBlocks
  ///        blocks and extrapolate timing over the full grid (used by the
  ///        reward loop where only relative timing matters); when zero,
  ///        execute every block (used when output buffers must be
  ///        completely written, e.g. probabilistic testing).
  ///
  /// This overload decodes \p Prog into a fresh kernel image first
  /// (O(program), once per call). Callers that run the same schedule
  /// repeatedly — or maintain an image incrementally across swaps, like
  /// the assembly game — should use the image-supplying overload below.
  RunResult run(const sass::Program &Prog, const KernelLaunch &Launch,
                RunMode Mode, unsigned MaxBlocks = 0);

  /// As above, but executes through the caller's pre-decoded image.
  /// \p Decoded must be positionally aligned with \p Prog (same size,
  /// record \c i decoded from statement \c i) — asserted in debug.
  RunResult run(const sass::Program &Prog, const DecodedProgram &Decoded,
                const KernelLaunch &Launch, RunMode Mode,
                unsigned MaxBlocks = 0);

  /// Blocks per SM the occupancy rules admit for this launch.
  unsigned residentBlocks(const KernelLaunch &Launch) const;

private:
  /// The lazily built, per-run rebindable scratch machine.
  TimedMachine &scratchMachine();

  GpuSpec Spec;
  GlobalMemory Global;
  Cache L1;
  Cache L2;
  std::unique_ptr<TimedMachine> Scratch;

  friend class TimedMachine;
};

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_GPU_H
