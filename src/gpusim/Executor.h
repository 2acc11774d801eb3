//===- gpusim/Executor.h - Execute-stage result contract ---------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-facing contract of the execute stage: `ExecResult`, the
/// control-flow guidance one executed instruction hands back to
/// whichever machine drove it.
///
/// The functional semantics themselves (an `executeInstr` template over
/// an execution-context concept) live in `pipeline/ExecutorImpl.h` and
/// are compiled exactly once, in the execute-stage TU
/// (`pipeline/ExecuteStage.cpp`) — machines call the `executeTimed` /
/// `executeOracle` entry points declared in `pipeline/ExecuteStage.h`
/// rather than instantiating the ~750-line opcode switch themselves.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_EXECUTOR_H
#define CUASMRL_GPUSIM_EXECUTOR_H

#include <cstdint>

namespace cuasmrl {
namespace gpusim {

/// What the machine must do after executing one instruction.
struct ExecResult {
  enum class Kind : uint8_t {
    Normal,       ///< Fall through to the next statement.
    Branch,       ///< Jump to `TargetIdx`.
    Exit,         ///< Warp finished.
    BlockBarrier, ///< BAR.SYNC: block until all block warps arrive.
  };
  Kind K = Kind::Normal;
  /// Branch target as a statement index, pre-resolved by the decoded
  /// image; -1 when the label names no statement of the program.
  int32_t TargetIdx = -1;
  bool Predicated = true;  ///< False when the guard suppressed execution.
};

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_EXECUTOR_H
