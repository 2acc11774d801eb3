//===- gpusim/pipeline/ExecuteStage.h - Execute dispatch ---------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 4 of the timed pipeline (and the whole of the oracle's data
/// path): dispatch one fetched instruction into the opcode semantics.
///
/// These are the only entry points into the `executeInstr` template —
/// the per-opcode switch in `pipeline/ExecutorImpl.h` is parsed and
/// instantiated exactly once, in `ExecuteStage.cpp`, for the two
/// contexts below. Adding a third machine model means adding a third
/// wrapper here, not re-instantiating the template elsewhere.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_PIPELINE_EXECUTESTAGE_H
#define CUASMRL_GPUSIM_PIPELINE_EXECUTESTAGE_H

#include "gpusim/Executor.h"

#include <string>

namespace cuasmrl {
namespace sass {
class Instruction;
}
namespace gpusim {

struct DecodedInstr;
struct TimedExecCtx;
struct OracleExecCtx;

/// Executes \p I under timed (write-back-time, deferrable) register
/// semantics. Memory side effects happen immediately; register writes
/// commit at the context's CommitCycle or are deferred into
/// Ctx.Deferred for the writeback stage. Returns control-flow guidance.
ExecResult executeTimed(const sass::Instruction &I, const DecodedInstr &D,
                        TimedExecCtx &Ctx);

/// Executes \p I under immediate-commit oracle semantics.
ExecResult executeOracle(const sass::Instruction &I, const DecodedInstr &D,
                         OracleExecCtx &Ctx);

/// The fault reason for a branch \p I whose label the decoded image
/// could not resolve (ExecResult::TargetIdx < 0); names the label.
std::string unresolvedBranchFault(const sass::Instruction &I);

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_PIPELINE_EXECUTESTAGE_H
