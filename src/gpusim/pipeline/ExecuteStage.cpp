//===- gpusim/pipeline/ExecuteStage.cpp --------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The one TU that parses and instantiates the opcode-semantics
// template. Keep it that way: the ~750-line switch in ExecutorImpl.h
// used to be header-only and was re-compiled by every simulator TU.
//
//===----------------------------------------------------------------------===//

#include "gpusim/pipeline/ExecuteStage.h"

#include "gpusim/pipeline/ExecContext.h"
#include "gpusim/pipeline/ExecutorImpl.h"

using namespace cuasmrl;
using namespace cuasmrl::gpusim;

ExecResult gpusim::executeTimed(const sass::Instruction &I,
                                const DecodedInstr &D, TimedExecCtx &Ctx) {
  return executeInstr(I, D, Ctx);
}

ExecResult gpusim::executeOracle(const sass::Instruction &I,
                                 const DecodedInstr &D, OracleExecCtx &Ctx) {
  return executeInstr(I, D, Ctx);
}

std::string gpusim::unresolvedBranchFault(const sass::Instruction &I) {
  for (const sass::Operand &Op : I.operands())
    if (Op.isLabel())
      return "branch to unknown label '" + Op.name() + "'";
  return "branch to unknown label";
}
