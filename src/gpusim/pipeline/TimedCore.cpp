//===- gpusim/pipeline/TimedCore.cpp -----------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "gpusim/pipeline/TimedCore.h"

#include "gpusim/pipeline/ExecContext.h"
#include "gpusim/pipeline/ExecuteStage.h"
#include "gpusim/pipeline/Fetch.h"
#include "gpusim/pipeline/OperandFetch.h"
#include "gpusim/pipeline/WarpSelect.h"
#include "sass/Program.h"

#include <algorithm>
#include <cassert>

using namespace cuasmrl;
using namespace cuasmrl::gpusim;

TimedMachine::TimedMachine(Gpu &Device)
    : Device(Device), Spec(Device.Spec), Mem{Device.L1, Device.L2,
                                             Device.Spec} {}

void TimedMachine::beginRun(const sass::Program &P, const DecodedProgram &D,
                            const KernelLaunch &L) {
  assert(D.size() == P.size() && "decoded image out of sync with program");
  Prog = &P;
  Decoded = &D;
  Launch = &L;
  Consts.setParams(L.Params);
  // Per-run results start from scratch; allocations (warp vector, event
  // heap, write-buffer pool) carry over — behaviorally invisible, see
  // the header comment.
  Events.reset();
  Counters = PerfCounters();
  FaultReason.clear();
  Elapsed = 0;
  Mem.MemBusyAccum = 0.0;
  // The penalty table is a pure function of the image content (and the
  // machine's fixed spec), so an unchanged version() skips the rebuild —
  // measurement reps and batch turns rebind the same image repeatedly.
  if (OperandPenaltyVersion != D.version() ||
      OperandPenalty.size() != D.size()) {
    OperandFetch::buildPenaltyTable(D, Spec.RegisterBanks,
                                    Spec.BankConflictPenalty, OperandPenalty);
    OperandPenaltyVersion = D.version();
  }
}

void TimedMachine::issue(Scheduler &S, unsigned WarpIdx) {
  WarpSimState &W = Warps[WarpIdx];
  const DecodedProgram &D = *Decoded;

  // Fetch: the select stage already advanced W.Pc past labels.
  FetchLatch F = fetchStage(*Prog, W);
  const sass::Instruction &I = *F.Instr;
  const DecodedInstr &DI = D[F.Pc];

  // Operand fetch: reuse-cache accounting + bank-conflict penalty.
  OperandLatch Operands = OperandFetch::runTabulated(
      S, WarpIdx, DI, OperandPenalty[F.Pc], Spec.RegisterBanks,
      Spec.BankConflictPenalty, Counters);

  bool VarLat = DI.VarLat;
  uint64_t FixedLat = DI.FixedLat;

  TimedExecCtx Ctx{W,
                   SharedPerBlock[W.Block],
                   Device.globalMemory(),
                   Consts,
                   *Launch,
                   Spec.LanesPerWarp,
                   Now,
                   Now + FixedLat,
                   VarLat,
                   false,
                   VarLat ? Events.takeWriteBuf()
                          : std::vector<DeferredWrite>{},
                   0,
                   ~0ull,
                   0,
                   0};

  // LDGSTS groups must issue in ascending-offset order (hardware
  // idiosyncrasy the paper identifies in §3.5); a violation corrupts the
  // transferred data.
  uint8_t Flags = D.flags(F.Pc);
  if (Flags & DecodedProgram::FlagLdgsts) {
    int Base = D.ldgstsBase(F.Pc);
    int64_t Offset = D.ldgstsOffset(F.Pc);
    if (W.LdgstsBase == Base && Offset < W.LdgstsOffset) {
      Ctx.CorruptShared = true;
      fault("LDGSTS group issued out of order");
    }
    W.LdgstsBase = Base;
    W.LdgstsOffset = Offset;
  } else if (Flags & (DecodedProgram::FlagBarrierOrSync |
                      DecodedProgram::FlagCtrlFlow)) {
    W.LdgstsBase = -1;
  }

  // Execute dispatch.
  ExecResult R = executeTimed(I, DI, Ctx);
  ++Counters.IssuedInstrs;
  if (VarLat)
    ++Counters.ExecVarLatOps;
  else
    ++Counters.ExecFixedLatOps;

  // Writeback: completion & scoreboard plumbing for variable-latency
  // instructions.
  if (VarLat && R.Predicated) {
    uint64_t Completion = Mem.completion(
        D.opcode(F.Pc), DI.has(DecodedInstr::ModBypass), Now,
        Launch->UniqueDramFraction, Ctx.GlobalWords, Ctx.GlobalMinAddr,
        Ctx.SharedWords, Ctx.ConstWords, Counters);
    int WriteBar = D.writeBarrier(F.Pc);
    bool NeedEvent = !Ctx.Deferred.empty() || WriteBar >= 0;
    if (NeedEvent) {
      for (const DeferredWrite &DW : Ctx.Deferred)
        if (DW.Where == DeferredWrite::File::R)
          W.InFlightUntil[DW.Index] = Completion;
      Event E;
      E.Cycle = Completion;
      E.Warp = static_cast<int>(WarpIdx);
      E.ReleaseSlot = WriteBar;
      if (E.ReleaseSlot >= 0)
        scoreboardAcquire(W, E.ReleaseSlot);
      E.ReleaseBlock = -1;
      E.Writes = std::move(Ctx.Deferred);
      Events.push(std::move(E));
    } else {
      Events.recycleWriteBuf(std::move(Ctx.Deferred));
    }
    int ReadBar = D.readBarrier(F.Pc);
    if (ReadBar >= 0) {
      // Sources are consumed once the request leaves the LSU.
      Event E;
      E.Cycle = Now + std::min<uint64_t>(Completion - Now, 15);
      E.Warp = static_cast<int>(WarpIdx);
      E.ReleaseSlot = ReadBar;
      scoreboardAcquire(W, ReadBar);
      E.ReleaseBlock = -1;
      Events.push(std::move(E));
    }
  } else if (VarLat && !R.Predicated) {
    Events.recycleWriteBuf(std::move(Ctx.Deferred));
    // Predicated-off memory op: consumes the issue slot only, but its
    // barriers must still fire or waiters would deadlock.
    for (int Slot : {D.writeBarrier(F.Pc), D.readBarrier(F.Pc)}) {
      if (Slot < 0)
        continue;
      Event E;
      E.Cycle = Now + 2;
      E.Warp = static_cast<int>(WarpIdx);
      E.ReleaseSlot = Slot;
      scoreboardAcquire(W, Slot);
      E.ReleaseBlock = -1;
      Events.push(std::move(E));
    }
  }

  // Control flow.
  uint64_t ExtraIssueDelay = 0;
  switch (R.K) {
  case ExecResult::Kind::Normal:
    ++W.Pc;
    break;
  case ExecResult::Kind::Branch: {
    if (R.TargetIdx < 0) {
      fault(unresolvedBranchFault(I));
      W.Done = true;
      --LiveWarps;
      return;
    }
    W.Pc = static_cast<size_t>(R.TargetIdx);
    W.LdgstsBase = -1;
    ExtraIssueDelay = Spec.BranchPenalty;
    break;
  }
  case ExecResult::Kind::Exit:
    W.Done = true;
    --LiveWarps;
    break;
  case ExecResult::Kind::BlockBarrier:
    ++W.Pc;
    W.AtBarrier = true;
    W.LdgstsBase = -1;
    break;
  }

  unsigned Stall = std::max<unsigned>(1, D.stall(F.Pc));
  Counters.StallFixedCycles += Stall - 1;
  W.NextIssue = Now + Stall + Operands.BankPenalty + ExtraIssueDelay;

  // Scheduler stickiness & the yield hint (§2.3: load balancing).
  S.StickyWarp = D.yield(F.Pc) ? -1 : static_cast<int>(WarpIdx);

  OperandFetch::updateReuse(S, WarpIdx, DI);

  if (R.K == ExecResult::Kind::BlockBarrier)
    scheduleBarrierRelease(Events, Warps, W.Block, Now, Spec.BarrierLatency);
}

bool TimedMachine::runGroup(unsigned FirstCta, unsigned NumBlocks) {
  assert(Prog && "runGroup before beginRun");
  // Reset per-group machine state (caches and DRAM persist on the Gpu;
  // leftover completion events persist across groups of one run).
  Warps.clear();
  SharedPerBlock.clear();
  Schedulers.assign(Spec.SchedulersPerSM, Scheduler());
  Now = 0;
  Mem.resetGroup();
  LiveWarps = NumBlocks * Launch->WarpsPerBlock;

  for (unsigned B = 0; B < NumBlocks; ++B) {
    SharedPerBlock.emplace_back(Launch->SharedBytes);
    for (unsigned WI = 0; WI < Launch->WarpsPerBlock; ++WI) {
      WarpSimState W;
      W.Block = B;
      W.WarpInBlock = WI;
      W.CtaLinear = FirstCta + B;
      Warps.push_back(std::move(W));
    }
  }

  const uint64_t CycleLimit = 200'000'000;
  uint64_t IssueCycles = 0;

  while (LiveWarps > 0) {
    commitReadyEvents(Events, Warps, Now, Counters);

    // On a fully idle cycle every scheduler probes every live warp, so
    // the picks themselves accumulate the earliest warp-ready time —
    // the time-skip below uses it instead of rescanning the warps.
    uint64_t MinReady = ~0ull;
    bool AnyIssue = false;
    for (unsigned SI = 0; SI < Schedulers.size(); ++SI) {
      SelectLatch Sel = WarpSelect::pick(Schedulers[SI], Warps, SI,
                                         Spec.SchedulersPerSM, *Decoded, Now,
                                         Counters, MinReady);
      if (Sel.Warp < 0)
        continue;
      issue(Schedulers[SI], static_cast<unsigned>(Sel.Warp));
      AnyIssue = true;
    }
    if (AnyIssue)
      ++IssueCycles;

    if (!FaultReason.empty() &&
        FaultReason.find("deadlock") != std::string::npos)
      break;

    // Advance time: step by one on activity; otherwise skip to the next
    // event or warp-ready time.
    uint64_t Next = Now + 1;
    if (!AnyIssue) {
      uint64_t Candidate = MinReady;
      if (!Events.empty())
        Candidate = std::min(Candidate, Events.front().Cycle);
      if (Candidate == ~0ull) {
        if (LiveWarps > 0)
          fault("deadlock: live warps with no pending events");
        break;
      }
      Next = std::max(Next, Candidate);
    }
    Now = Next;
    if (Now > CycleLimit) {
      fault("cycle limit exceeded (runaway or livelocked schedule)");
      break;
    }
  }

  Elapsed = Now;
  Counters.ElapsedCycles += Now;
  Counters.ActiveCycles += IssueCycles;
  Counters.IssueSlotCycles += Now * Spec.SchedulersPerSM;
  Counters.MemBusyCycles +=
      std::min<uint64_t>(Now, static_cast<uint64_t>(Mem.MemBusyAccum));
  Mem.MemBusyAccum = 0.0;

  for (SharedMemory &S : SharedPerBlock)
    if (S.faulted())
      fault("shared-memory access out of bounds");
  if (Device.globalMemory().faulted()) {
    fault("global-memory access outside any allocation");
    Device.globalMemory().clearFault();
  }
  return FaultReason.empty();
}
