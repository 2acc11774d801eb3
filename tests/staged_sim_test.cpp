//===- tests/staged_sim_test.cpp - Staged simulator core tests ---------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// Tests pinned to the staged-pipeline refactor:
///
///  - golden rows captured from the pre-staged machine: the staged
///    core must reproduce them bit-for-bit, including invalid (hazard
///    violating) schedules;
///  - stage unit tests on hand-built latch/warp state (warp select,
///    operand fetch, the event queue) — the latch contracts make each
///    stage testable without a machine;
///  - oracle-vs-timed divergence on hazard-violating schedules;
///  - game rollouts over private-device games sharing one
///    MeasurementCache: the stage counters reach the game, and the
///    trajectories do not depend on the rollout worker count.
///
//===----------------------------------------------------------------------===//

#include "core/GameEnvAdapter.h"
#include "gpusim/DecodedProgram.h"
#include "gpusim/Gpu.h"
#include "gpusim/Measurement.h"
#include "gpusim/pipeline/OperandFetch.h"
#include "gpusim/pipeline/WarpSelect.h"
#include "gpusim/pipeline/Writeback.h"
#include "kernels/Builder.h"
#include "kernels/Workload.h"
#include "rl/RolloutRunner.h"
#include "sass/Parser.h"
#include "sass/Program.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace cuasmrl;
using namespace cuasmrl::gpusim;

namespace {

sass::Program parseOrDie(const std::string &Text,
                         const std::string &Name = "k") {
  Expected<sass::Program> P = sass::Parser::parseProgram(Text, Name);
  EXPECT_TRUE(P.hasValue()) << (P.hasValue() ? "" : P.error().str());
  return P.hasValue() ? P.takeValue() : sass::Program();
}

/// Statement indices I where both I and I+1 are instructions (the
/// positions an adjacent swap may target).
std::vector<size_t> instrPairs(const sass::Program &P) {
  std::vector<size_t> Pairs;
  for (size_t I = 0; I + 1 < P.size(); ++I)
    if (P.stmt(I).isInstr() && P.stmt(I + 1).isInstr())
      Pairs.push_back(I);
  return Pairs;
}

/// Applies variant \p V's three deterministic adjacent swaps in place.
/// Variants accumulate: looping V = 1..k leaves the program in the
/// golden capture's variant-k schedule (legal and hazard-violating
/// swaps alike).
void applySwapVariant(sass::Program &Prog, const std::vector<size_t> &Pairs,
                      unsigned V) {
  for (unsigned S = 0; S < 3; ++S) {
    size_t Idx =
        (1103515245u * (3 * (V - 1) + S) + 12345u * V) % Pairs.size();
    Prog.swap(Pairs[Idx], Pairs[Idx] + 1);
  }
}

struct KernelUnderTest {
  kernels::WorkloadKind Kind;
  const char *Name;
};

const KernelUnderTest TestKernels[] = {
    {kernels::WorkloadKind::MmLeakyRelu, "mm_leaky_relu"},
    {kernels::WorkloadKind::FlashAttention, "flash_attention"},
    {kernels::WorkloadKind::Softmax, "softmax"},
};

kernels::BuiltKernel buildTestKernel(Gpu &Device,
                                     kernels::WorkloadKind Kind) {
  Rng DataRng(7);
  return kernels::buildKernel(Device, Kind, kernels::testShape(Kind),
                              kernels::candidateConfigs(Kind).front(),
                              kernels::ScheduleStyle::TritonO3, DataRng);
}

//===----------------------------------------------------------------------===//
// Golden rows (captured from the pre-staged machine)
//===----------------------------------------------------------------------===//

struct GoldenRow {
  const char *Kernel;
  unsigned Variant;
  int TimedValid;
  uint64_t Cycles, Issued, StallWait, StallFixed, BankConflict, L2Misses,
      DramBytes, ReuseHits;
  int OracleValid;
};

// Captured on the seed implementation (pre-staged machine), MaxBlocks=2
// timed / 1 oracle, via the applySwapVariant recipe above. The staged
// core must reproduce every row exactly — the invalid softmax rows pin
// the hazard-violation surface (stale reads, LDGSTS corruption), not
// just the happy path.
const GoldenRow Goldens[] = {
    {"mm_leaky_relu", 0, 1, 3882ull, 988ull, 1264ull, 1304ull, 448ull, 140ull, 17920ull, 112ull, 1},
    {"mm_leaky_relu", 1, 1, 3882ull, 988ull, 1264ull, 1304ull, 448ull, 140ull, 17920ull, 112ull, 1},
    {"mm_leaky_relu", 2, 1, 3877ull, 992ull, 1224ull, 1316ull, 448ull, 140ull, 17920ull, 112ull, 1},
    {"mm_leaky_relu", 3, 1, 3880ull, 992ull, 1200ull, 1316ull, 448ull, 140ull, 17920ull, 112ull, 1},
    {"mm_leaky_relu", 4, 1, 3879ull, 992ull, 1200ull, 1316ull, 480ull, 140ull, 17920ull, 96ull, 1},
    {"mm_leaky_relu", 5, 1, 3605ull, 992ull, 1194ull, 1316ull, 480ull, 110ull, 14080ull, 96ull, 1},
    {"flash_attention", 0, 1, 1629ull, 1480ull, 1460ull, 2280ull, 400ull, 85ull, 5440ull, 48ull, 1},
    {"flash_attention", 1, 1, 1906ull, 1960ull, 1796ull, 2992ull, 544ull, 85ull, 5440ull, 72ull, 1},
    {"flash_attention", 2, 1, 1902ull, 1960ull, 1844ull, 2992ull, 544ull, 85ull, 5440ull, 72ull, 1},
    {"flash_attention", 3, 1, 1906ull, 1960ull, 1796ull, 2992ull, 544ull, 85ull, 5440ull, 72ull, 1},
    {"flash_attention", 4, 1, 1902ull, 1960ull, 1796ull, 2992ull, 544ull, 85ull, 5440ull, 72ull, 1},
    {"flash_attention", 5, 1, 1902ull, 1960ull, 1796ull, 2992ull, 544ull, 85ull, 5440ull, 72ull, 1},
    {"softmax", 0, 1, 4439ull, 5472ull, 21452ull, 7560ull, 784ull, 38ull, 4864ull, 0ull, 1},
    {"softmax", 1, 1, 4439ull, 5472ull, 21480ull, 7560ull, 784ull, 38ull, 4864ull, 0ull, 1},
    {"softmax", 2, 1, 4439ull, 5472ull, 21406ull, 7560ull, 784ull, 38ull, 4864ull, 0ull, 1},
    {"softmax", 3, 1, 4440ull, 5472ull, 21152ull, 7560ull, 784ull, 38ull, 4864ull, 0ull, 1},
    {"softmax", 4, 0, 4389ull, 2736ull, 10922ull, 3780ull, 392ull, 26ull, 3328ull, 0ull, 0},
    {"softmax", 5, 0, 4365ull, 2736ull, 10900ull, 3780ull, 392ull, 26ull, 3328ull, 0ull, 0},
};

TEST(StagedGoldenTest, SeedGoldenRows) {
  size_t Row = 0;
  for (const KernelUnderTest &It : TestKernels) {
    Gpu Device;
    kernels::BuiltKernel K = buildTestKernel(Device, It.Kind);
    sass::Program Prog = K.Prog;
    std::vector<size_t> Pairs = instrPairs(Prog);

    for (unsigned V = 0; V < 6; ++V, ++Row) {
      if (V)
        applySwapVariant(Prog, Pairs, V);
      DecodedProgram Decoded(Prog);
      Device.clearCaches();
      RunResult T = Device.run(Prog, Decoded, K.Launch, RunMode::Timed, 2);
      RunResult O = Device.run(Prog, Decoded, K.Launch, RunMode::Oracle, 1);

      ASSERT_LT(Row, std::size(Goldens));
      const GoldenRow &G = Goldens[Row];
      ASSERT_STREQ(G.Kernel, It.Name);
      ASSERT_EQ(G.Variant, V);
      SCOPED_TRACE(testing::Message() << It.Name << " variant " << V);
      EXPECT_EQ(T.Valid, G.TimedValid != 0);
      EXPECT_EQ(T.Cycles, G.Cycles);
      EXPECT_EQ(T.Counters.IssuedInstrs, G.Issued);
      EXPECT_EQ(T.Counters.StallWaitCycles, G.StallWait);
      EXPECT_EQ(T.Counters.StallFixedCycles, G.StallFixed);
      EXPECT_EQ(T.Counters.BankConflictCycles, G.BankConflict);
      EXPECT_EQ(T.Counters.L2Misses, G.L2Misses);
      EXPECT_EQ(T.Counters.DramBytes, G.DramBytes);
      EXPECT_EQ(T.Counters.ReuseHits, G.ReuseHits);
      EXPECT_EQ(O.Valid, G.OracleValid != 0);

      // Per-stage counter invariants (this PR's counters are not part
      // of the golden capture, but their structure is pinned here).
      EXPECT_GT(T.Counters.SelectProbes, 0u);
      EXPECT_GE(T.Counters.SelectProbes, T.Counters.SelectIneligible);
      EXPECT_EQ(T.Counters.ExecFixedLatOps + T.Counters.ExecVarLatOps,
                T.Counters.IssuedInstrs);
      EXPECT_GT(T.Counters.ExecVarLatOps, 0u); // Loads always present.
      EXPECT_GT(T.Counters.WbEventsFired, 0u);
    }
  }
  EXPECT_EQ(Row, std::size(Goldens));
}

//===----------------------------------------------------------------------===//
// Warp-select stage
//===----------------------------------------------------------------------===//

// Statement layout: 0 = LDG setting write barrier 0; 1, 2 = labels;
// 3 = FADD waiting on barrier 0; 4 = EXIT.
const char *SelectProgText = R"(
  [B------:R-:W0:-:S01] LDG.E R2, [R4.64] ;
.L_A:
.L_B:
  [B0-----:R-:W-:-:S01] FADD R3, R2, R2 ;
  [B------:R-:W-:-:S01] EXIT ;
)";

TEST(WarpSelectTest, LabelSkipPersistsAndEndsLdgstsGroup) {
  sass::Program Prog = parseOrDie(SelectProgText);
  DecodedProgram D(Prog);
  ASSERT_TRUE(D.isLabel(1));
  ASSERT_TRUE(D.isLabel(2));

  WarpSimState W;
  W.Pc = 1;
  W.LdgstsBase = 5; // A live LDGSTS group that the labels must end.
  PerfCounters C;
  uint64_t MinReady = ~0ull;

  // Warp is eligible at statement 3 (no scoreboard wait pending).
  EXPECT_TRUE(WarpSelect::probe(W, D, /*Now=*/0, C, MinReady));
  EXPECT_EQ(W.Pc, 3u);          // Labels skipped persistently.
  EXPECT_EQ(W.LdgstsBase, -1);  // Crossing a label ends the group.
  EXPECT_EQ(C.FetchLabelSkips, 2u);
  EXPECT_EQ(C.SelectProbes, 1u);
  EXPECT_EQ(C.SelectIneligible, 0u);

  // A second probe must not re-skip (the advance persisted).
  EXPECT_TRUE(WarpSelect::probe(W, D, 0, C, MinReady));
  EXPECT_EQ(C.FetchLabelSkips, 2u);
}

TEST(WarpSelectTest, WaitStallCountsOncePerProbe) {
  sass::Program Prog = parseOrDie(SelectProgText);
  DecodedProgram D(Prog);

  WarpSimState W;
  W.Pc = 1; // Labels, then the waiting FADD.
  scoreboardAcquire(W, 0);
  PerfCounters C;
  uint64_t MinReady = ~0ull;

  // Each probe of a wait-stalled warp contributes one StallWaitCycle —
  // the counter surface is per probe, not per stalled cycle.
  EXPECT_FALSE(WarpSelect::probe(W, D, 0, C, MinReady));
  EXPECT_FALSE(WarpSelect::probe(W, D, 1, C, MinReady));
  EXPECT_FALSE(WarpSelect::probe(W, D, 2, C, MinReady));
  EXPECT_EQ(C.StallWaitCycles, 3u);
  EXPECT_EQ(C.SelectIneligible, 3u);
  EXPECT_EQ(W.Pc, 3u); // Label skip still happened on the first probe.

  scoreboardRelease(W, 0);
  EXPECT_TRUE(WarpSelect::probe(W, D, 3, C, MinReady));
  EXPECT_EQ(C.StallWaitCycles, 3u);
}

TEST(WarpSelectTest, MinReadyAccumulatesOverStallRejects) {
  sass::Program Prog = parseOrDie(SelectProgText);
  DecodedProgram D(Prog);
  PerfCounters C;
  uint64_t MinReady = ~0ull;

  WarpSimState Stalled;
  Stalled.NextIssue = 17;
  EXPECT_FALSE(WarpSelect::probe(Stalled, D, /*Now=*/4, C, MinReady));
  EXPECT_EQ(MinReady, 17u);

  WarpSimState Sooner;
  Sooner.NextIssue = 9;
  EXPECT_FALSE(WarpSelect::probe(Sooner, D, 4, C, MinReady));
  EXPECT_EQ(MinReady, 9u);

  // Done and at-barrier warps never become ready by waiting — they must
  // not pull MinReady down.
  WarpSimState Finished;
  Finished.Done = true;
  Finished.NextIssue = 1;
  EXPECT_FALSE(WarpSelect::probe(Finished, D, 4, C, MinReady));
  WarpSimState Barriered;
  Barriered.AtBarrier = true;
  Barriered.NextIssue = 1;
  EXPECT_FALSE(WarpSelect::probe(Barriered, D, 4, C, MinReady));
  EXPECT_EQ(MinReady, 9u);
}

TEST(WarpSelectTest, StickyWarpWinsOverScanOrder) {
  sass::Program Prog = parseOrDie(SelectProgText);
  DecodedProgram D(Prog);
  PerfCounters C;
  uint64_t MinReady = ~0ull;

  std::vector<WarpSimState> Warps(4);
  for (WarpSimState &W : Warps)
    W.Pc = 3; // Eligible at the FADD, no wait pending.

  Scheduler S;
  S.StickyWarp = 2;
  // Scheduler 0 of 2 owns warps {0, 2}; greedy keeps warp 2 although
  // warp 0 scans first.
  SelectLatch L = WarpSelect::pick(S, Warps, /*SchedIdx=*/0, /*Stride=*/2,
                                   D, 0, C, MinReady);
  EXPECT_EQ(L.Warp, 2);
  EXPECT_EQ(C.SelectProbes, 1u); // Sticky hit short-circuits the scan.

  // Sticky warp stalled: fall back to ownership-order scan.
  scoreboardAcquire(Warps[2], 0);
  L = WarpSelect::pick(S, Warps, 0, 2, D, 0, C, MinReady);
  EXPECT_EQ(L.Warp, 0);

  // Nobody eligible: idle slot counted, latch empty.
  scoreboardAcquire(Warps[0], 0);
  uint64_t IdleBefore = C.SelectIdleCycles;
  L = WarpSelect::pick(S, Warps, 0, 2, D, 0, C, MinReady);
  EXPECT_EQ(L.Warp, -1);
  EXPECT_EQ(C.SelectIdleCycles, IdleBefore + 1);
}

//===----------------------------------------------------------------------===//
// Operand-fetch stage
//===----------------------------------------------------------------------===//

TEST(OperandFetchTest, TabulatedMatchesRunOnRandomStates) {
  const unsigned Banks = 4, Penalty = 2;
  Rng R(1234);

  for (int Trial = 0; Trial < 2000; ++Trial) {
    // Random instruction record: up to 7 populated source slots, each
    // maybe reuse-flagged.
    DecodedInstr D;
    for (unsigned Slot = 1; Slot < 8; ++Slot) {
      if (R.uniformInt(3) == 0)
        continue;
      D.SlotReg[Slot] = static_cast<int16_t>(R.uniformInt(32));
      D.HasSlotRegs = true;
      if (R.uniformInt(2))
        D.ReuseMask |= static_cast<uint8_t>(1u << Slot);
    }

    // Random scheduler reuse state (possibly aimed at another warp).
    Scheduler S;
    S.ReuseValid = R.uniformInt(2) != 0;
    S.ReuseWarp = static_cast<int>(R.uniformInt(3));
    for (int &Reg : S.ReuseRegs)
      Reg = R.uniformInt(4) ? static_cast<int>(R.uniformInt(32)) : -1;
    unsigned WarpIdx = static_cast<unsigned>(R.uniformInt(3));

    Scheduler S1 = S, S2 = S;
    PerfCounters C1, C2;
    uint16_t TableEntry = static_cast<uint16_t>(
        OperandFetch::noReusePenalty(D, Banks, Penalty));
    OperandLatch L1 = OperandFetch::run(S1, WarpIdx, D, Banks, Penalty, C1);
    OperandLatch L2 = OperandFetch::runTabulated(S2, WarpIdx, D, TableEntry,
                                                 Banks, Penalty, C2);

    SCOPED_TRACE(testing::Message() << "trial " << Trial);
    EXPECT_EQ(L1.BankPenalty, L2.BankPenalty);
    EXPECT_EQ(C1.BankConflictCycles, C2.BankConflictCycles);
    EXPECT_EQ(C1.ReuseHits, C2.ReuseHits);
    EXPECT_EQ(C1.ReuseMisses, C2.ReuseMisses);
  }
}

TEST(OperandFetchTest, PenaltyTableMatchesPerStatementScan) {
  Gpu Device;
  kernels::BuiltKernel K =
      buildTestKernel(Device, kernels::WorkloadKind::MmLeakyRelu);
  DecodedProgram D(K.Prog);

  std::vector<uint16_t> Table;
  OperandFetch::buildPenaltyTable(D, 4, 2, Table);
  ASSERT_EQ(Table.size(), D.size());
  for (size_t I = 0; I < D.size(); ++I) {
    if (D.isLabel(I)) {
      EXPECT_EQ(Table[I], 0u);
      continue;
    }
    EXPECT_EQ(Table[I], OperandFetch::noReusePenalty(D[I], 4, 2))
        << "statement " << I;
  }
}

//===----------------------------------------------------------------------===//
// Event queue (writeback stage)
//===----------------------------------------------------------------------===//

TEST(EventQueueTest, PopsInCycleOrderWithFifoPairTies) {
  EventQueue Q;
  Q.push(Event{30, 1, -1, -1, {}});
  Q.push(Event{10, 2, -1, -1, {}});
  Q.push(Event{20, 3, -1, -1, {}});
  Q.push(Event{10, 4, -1, -1, {}}); // Same cycle as warp 2, pushed later.

  EXPECT_EQ(Q.pop().Warp, 2); // Cycle 10, first pushed.
  EXPECT_EQ(Q.pop().Warp, 4); // Cycle 10, second pushed.
  EXPECT_EQ(Q.pop().Warp, 3);
  EXPECT_EQ(Q.pop().Warp, 1);
  EXPECT_TRUE(Q.empty());
}

TEST(EventQueueTest, WriteBufPoolRecyclesCapacity) {
  EventQueue Q;
  EXPECT_TRUE(Q.takeWriteBuf().empty()); // Empty pool: fresh vector.

  std::vector<DeferredWrite> Buf;
  Buf.reserve(64);
  Buf.push_back(DeferredWrite{DeferredWrite::File::R, 3, 7});
  Q.recycleWriteBuf(std::move(Buf));

  std::vector<DeferredWrite> Back = Q.takeWriteBuf();
  EXPECT_TRUE(Back.empty());          // Values never survive the pool.
  EXPECT_GE(Back.capacity(), 64u);    // Capacity does.

  // Capacity-0 buffers are not worth pooling.
  Q.recycleWriteBuf(std::vector<DeferredWrite>());
  EXPECT_EQ(Q.takeWriteBuf().capacity(), 0u);
}

//===----------------------------------------------------------------------===//
// Oracle-vs-timed divergence (hazard-faithful stale reads)
//===----------------------------------------------------------------------===//

// A load whose consumer drops the scoreboard wait: the oracle (program
// order) always sees the loaded 0x77, while the timed machine reads
// the stale register — silently, with Valid = true. These cases pin
// that divergence surface, the very signal the RL reward depends on
// to penalize wait-dropping schedules via the probabilistic test.
const char *StaleReadText = R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W0:-:S01] LDG.E R10, [R2.64] ;
  [B------:R-:W-:-:S04] MOV R11, R10 ;
  [B------:R-:W-:-:S01] STG.E [R2.64+0x4], R11 ;
  [B------:R-:W-:-:S01] EXIT ;
)";

// The repaired schedule: identical but for the B0 wait on the consumer.
const char *WaitedReadText = R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W0:-:S01] LDG.E R10, [R2.64] ;
  [B0-----:R-:W-:-:S04] MOV R11, R10 ;
  [B------:R-:W-:-:S01] STG.E [R2.64+0x4], R11 ;
  [B------:R-:W-:-:S01] EXIT ;
)";

struct StaleReadSetup {
  Gpu Device;
  KernelLaunch Launch;
  uint64_t Buf = 0;

  StaleReadSetup() {
    Buf = Device.globalMemory().allocate(8);
    Device.globalMemory().writeValue<uint32_t>(Buf, 0x77);
    Launch.WarpsPerBlock = 1;
    Launch.addParam64(Buf);
  }
  uint32_t stored() const {
    return Device.globalMemory().readValue<uint32_t>(Buf + 4);
  }
};

TEST(OracleTimedDivergenceTest, MissingWaitStaleOnlyInTimed) {
  sass::Program P = parseOrDie(StaleReadText, "stale");
  for (RunMode Mode : {RunMode::Timed, RunMode::Oracle}) {
    StaleReadSetup S;
    RunResult R = S.Device.run(P, S.Launch, Mode);
    SCOPED_TRACE(Mode == RunMode::Timed ? "timed" : "oracle");
    // The hazard is silent: no fault, no Valid=false — only wrong data.
    ASSERT_TRUE(R.Valid) << R.FaultReason;
    if (Mode == RunMode::Oracle)
      EXPECT_EQ(S.stored(), 0x77u);
    else
      EXPECT_NE(S.stored(), 0x77u);
  }
}

TEST(OracleTimedDivergenceTest, WaitedScheduleAgreesInBothModes) {
  sass::Program P = parseOrDie(WaitedReadText, "waited");
  for (RunMode Mode : {RunMode::Timed, RunMode::Oracle}) {
    StaleReadSetup S;
    RunResult R = S.Device.run(P, S.Launch, Mode);
    SCOPED_TRACE(Mode == RunMode::Timed ? "timed" : "oracle");
    ASSERT_TRUE(R.Valid) << R.FaultReason;
    EXPECT_EQ(S.stored(), 0x77u);
  }
}

TEST(OracleTimedDivergenceTest, StaleValueFlipsControlFlow) {
  // The stale read feeds a compare-and-branch: the fresh 0x77 clears
  // the 0x50 bar and takes the skip, the stale register does not, so
  // the hazard changes the executed path — timed IssuedInstrs must
  // differ between the waited and unwaited schedules by exactly the
  // two filler instructions the branch skips.
  auto BranchText = [](bool Wait) {
    std::string Consumer = Wait ? "  [B0-----:R-:W-:-:S04] MOV R11, R10 ;\n"
                                : "  [B------:R-:W-:-:S04] MOV R11, R10 ;\n";
    return std::string(R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W0:-:S01] LDG.E R10, [R2.64] ;
)") + Consumer +
           R"(  [B------:R-:W-:-:S04] MOV R12, 0x50 ;
  [B------:R-:W-:-:S05] ISETP.GE.AND P0, PT, R11, R12, PT ;
  [B------:R-:W-:-:S01] @P0 BRA `(.L_SKIP) ;
  [B------:R-:W-:-:S04] MOV R13, 0x1 ;
  [B------:R-:W-:-:S04] MOV R14, 0x2 ;
.L_SKIP:
  [B------:R-:W-:-:S01] STG.E [R2.64+0x4], R11 ;
  [B------:R-:W-:-:S01] EXIT ;
)";
  };

  uint64_t Issued[2] = {0, 0};
  for (bool Wait : {true, false}) {
    sass::Program P = parseOrDie(BranchText(Wait).c_str(), "branch");
    StaleReadSetup S;
    RunResult R = S.Device.run(P, S.Launch, RunMode::Timed);
    ASSERT_TRUE(R.Valid) << R.FaultReason;
    Issued[Wait ? 0 : 1] = R.Counters.IssuedInstrs;
    if (Wait)
      EXPECT_EQ(S.stored(), 0x77u); // Fresh value survives the skip.
    else
      EXPECT_NE(S.stored(), 0x77u);
  }
  // Unwaited: compare sees the stale register, branch falls through,
  // two extra instructions issue (per thread of the warp, but the
  // counter is per-warp-issue so the delta is exactly 2).
  EXPECT_EQ(Issued[1], Issued[0] + 2);

  // The oracle never takes the stale path: both schedules agree there.
  for (bool Wait : {true, false}) {
    sass::Program P = parseOrDie(BranchText(Wait).c_str(), "branch");
    StaleReadSetup S;
    RunResult R = S.Device.run(P, S.Launch, RunMode::Oracle);
    ASSERT_TRUE(R.Valid) << R.FaultReason;
    EXPECT_EQ(S.stored(), 0x77u);
  }
}

//===----------------------------------------------------------------------===//
// Game rollouts
//===----------------------------------------------------------------------===//

/// Two collect() rounds over three private-device MmLeakyRelu games
/// that share one MeasurementCache, stepped by \p Workers threads.
rl::TrajectoryBatch collectGameRollout(unsigned Workers, bool Masking,
                                       rl::TrajectoryBatch &Second) {
  Gpu Device;
  kernels::BuiltKernel K =
      buildTestKernel(Device, kernels::WorkloadKind::MmLeakyRelu);

  env::GameConfig GC;
  GC.Measure.WarmupIters = 1;
  GC.Measure.RepeatIters = 1;
  GC.Measure.NoiseStddev = 0.001;
  GC.RecordTrace = false;
  GC.PrivateDevice = true;
  GC.UseActionMasking = Masking;
  GC.SharedCache = std::make_shared<MeasurementCache>(GC.Measure.Seed);

  std::vector<std::unique_ptr<env::AssemblyGame>> Games;
  std::vector<std::unique_ptr<core::GameEnvAdapter>> Adapters;
  std::vector<rl::Env *> Envs;
  for (int I = 0; I < 3; ++I) {
    Games.push_back(std::make_unique<env::AssemblyGame>(Device, K, GC));
    Adapters.push_back(std::make_unique<core::GameEnvAdapter>(*Games.back()));
    Envs.push_back(Adapters.back().get());
  }

  rl::RolloutConfig RC;
  RC.Workers = Workers;
  RC.Seed = 33;
  rl::RolloutRunner Runner(Envs, RC);

  rl::NetConfig NC;
  NC.Features = Envs[0]->obsFeatures();
  NC.Length = Envs[0]->obsRows();
  NC.Actions = Envs[0]->actionCount();
  NC.Channels = 4;
  NC.Hidden = 16;
  Rng NetRng(5);
  rl::ActorCritic Net(NC, NetRng);

  rl::TrajectoryBatch First = Runner.collect(Net, 8);
  Second = Runner.collect(Net, 8); // Slot state persists across calls.
  return First;
}

void expectSameBatch(const rl::TrajectoryBatch &A,
                     const rl::TrajectoryBatch &B, const char *Tag) {
  SCOPED_TRACE(Tag);
  ASSERT_EQ(A.Trajectories.size(), B.Trajectories.size());
  for (size_t S = 0; S < A.Trajectories.size(); ++S) {
    const rl::Trajectory &X = A.Trajectories[S];
    const rl::Trajectory &Y = B.Trajectories[S];
    SCOPED_TRACE(testing::Message() << "slot " << S);
    ASSERT_EQ(X.Steps.size(), Y.Steps.size());
    EXPECT_EQ(X.CompletedReturns, Y.CompletedReturns);
    EXPECT_EQ(X.BootstrapObs, Y.BootstrapObs);
    EXPECT_EQ(X.BootstrapMask, Y.BootstrapMask);
    for (size_t I = 0; I < X.Steps.size(); ++I) {
      const rl::Transition &T1 = X.Steps[I];
      const rl::Transition &T2 = Y.Steps[I];
      SCOPED_TRACE(testing::Message() << "step " << I);
      EXPECT_EQ(T1.Obs, T2.Obs);
      EXPECT_EQ(T1.Mask, T2.Mask);
      EXPECT_EQ(T1.Action, T2.Action);
      EXPECT_EQ(T1.LogProb, T2.LogProb);
      EXPECT_EQ(T1.Value, T2.Value);
      EXPECT_EQ(T1.Reward, T2.Reward);
      EXPECT_EQ(T1.Done, T2.Done);
    }
  }
}

TEST(GameRolloutTest, GameAccumulatesStageCounters) {
  // The per-stage counter families must reach the stats surface the
  // optimizer/service aggregate (AssemblyGame::simCounters feeds
  // OptimizeResult::RolloutCounters feeds ServiceStats::Counters).
  Gpu Device;
  kernels::BuiltKernel K =
      buildTestKernel(Device, kernels::WorkloadKind::MmLeakyRelu);
  env::GameConfig GC;
  GC.Measure.WarmupIters = 1;
  GC.Measure.RepeatIters = 1;
  GC.RecordTrace = false;
  env::AssemblyGame Game(Device, K, GC);
  Game.reset();
  Game.step(0);

  const PerfCounters &C = Game.simCounters();
  EXPECT_GT(C.SelectProbes, 0u);
  EXPECT_GT(C.ExecFixedLatOps + C.ExecVarLatOps, 0u);
  EXPECT_GT(C.WbEventsFired, 0u);
  EXPECT_GT(C.selectHitRate(), 0.0);
  EXPECT_LE(C.selectHitRate(), 1.0);
}

TEST(GameRolloutTest, WorkerCountDoesNotChangeTrajectories) {
  for (bool Masking : {true, false}) {
    rl::TrajectoryBatch Serial2, Pooled2;
    rl::TrajectoryBatch Serial1 = collectGameRollout(1, Masking, Serial2);
    rl::TrajectoryBatch Pooled1 = collectGameRollout(3, Masking, Pooled2);
    expectSameBatch(Serial1, Pooled1,
                    Masking ? "masked round 1" : "unmasked round 1");
    expectSameBatch(Serial2, Pooled2,
                    Masking ? "masked round 2" : "unmasked round 2");
  }
}

} // namespace
