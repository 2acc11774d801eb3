//===- tests/gpusim_test.cpp - GPU simulator tests -----------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end checks of the simulated device: functional correctness of
/// hand-written SASS kernels against CPU references, hazard-faithful
/// stale reads (the mechanism behind the paper's §4.3 dependency-based
/// microbenchmarks), scoreboard waits, block barriers, the LDGSTS
/// ordering idiosyncrasy (§3.5) and the operand reuse cache (§5.7.1).
///
//===----------------------------------------------------------------------===//

#include "gpusim/Fp16.h"
#include "gpusim/Gpu.h"
#include "gpusim/Measurement.h"
#include "sass/Parser.h"
#include "sass/Program.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

using namespace cuasmrl;
using namespace cuasmrl::gpusim;

namespace {

sass::Program parseOrDie(const std::string &Text,
                         const std::string &Name = "k") {
  Expected<sass::Program> P = sass::Parser::parseProgram(Text, Name);
  EXPECT_TRUE(P.hasValue()) << (P.hasValue() ? "" : P.error().str());
  return P.hasValue() ? P.takeValue() : sass::Program();
}

/// Single-warp vector add over N elements: out[i] = x[i] + y[i].
const char *VecAddText = R"(
  [B------:R-:W-:-:S01] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S01] MOV R3, c[0x0][0x164] ;
  [B------:R-:W-:-:S01] MOV R4, c[0x0][0x168] ;
  [B------:R-:W-:-:S01] MOV R5, c[0x0][0x16c] ;
  [B------:R-:W-:-:S01] MOV R6, c[0x0][0x170] ;
  [B------:R-:W-:-:S04] MOV R7, c[0x0][0x174] ;
  [B------:R-:W-:-:S04] MOV R8, c[0x0][0x178] ;
  [B------:R-:W-:-:S04] MOV R9, 0x0 ;
.L_LOOP:
  [B------:R-:W-:-:S05] ISETP.GE.AND P0, PT, R9, R8, PT ;
  [B------:R-:W-:-:S01] @P0 BRA `(.L_EXIT) ;
  [B------:R-:W-:-:S05] IMAD.WIDE R10, R9, 0x4, R2 ;
  [B------:R-:W0:-:S01] LDG.E R12, [R10.64] ;
  [B------:R-:W-:-:S05] IMAD.WIDE R14, R9, 0x4, R4 ;
  [B------:R-:W1:-:S01] LDG.E R13, [R14.64] ;
  [B------:R-:W-:-:S05] IMAD.WIDE R16, R9, 0x4, R6 ;
  [B01----:R-:W-:-:S05] FADD R18, R12, R13 ;
  [B------:R-:W-:-:S01] STG.E [R16.64], R18 ;
  [B------:R-:W-:-:S04] IADD3 R9, R9, 0x1, RZ ;
  [B------:R-:W-:-:S01] BRA `(.L_LOOP) ;
.L_EXIT:
  [B------:R-:W-:-:S01] EXIT ;
)";

struct VecAddSetup {
  Gpu Device;
  KernelLaunch Launch;
  uint64_t XAddr, YAddr, OutAddr;
  unsigned N;

  explicit VecAddSetup(unsigned N) : N(N) {
    XAddr = Device.globalMemory().allocate(4 * N);
    YAddr = Device.globalMemory().allocate(4 * N);
    OutAddr = Device.globalMemory().allocate(4 * N);
    for (unsigned I = 0; I < N; ++I) {
      Device.globalMemory().writeValue<float>(XAddr + 4 * I, 1.0f * I);
      Device.globalMemory().writeValue<float>(YAddr + 4 * I, 0.5f * I);
    }
    Launch.GridX = 1;
    Launch.WarpsPerBlock = 1;
    Launch.addParam64(XAddr);
    Launch.addParam64(YAddr);
    Launch.addParam64(OutAddr);
    Launch.addParam32(N);
  }

  bool outputCorrect() const {
    for (unsigned I = 0; I < N; ++I) {
      float Got = Device.globalMemory().readValue<float>(OutAddr + 4 * I);
      if (Got != 1.5f * I)
        return false;
    }
    return true;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Fp16 helpers
//===----------------------------------------------------------------------===//

TEST(Fp16, RoundTripExactValues) {
  for (float F : {0.0f, 1.0f, -2.0f, 0.5f, 1024.0f, -0.25f})
    EXPECT_EQ(fp16ToFloat(floatToFp16(F)), F);
}

TEST(Fp16, PackUnpack) {
  uint32_t Packed = packHalf2(1.5f, -3.0f);
  EXPECT_EQ(unpackLo(Packed), 1.5f);
  EXPECT_EQ(unpackHi(Packed), -3.0f);
}

TEST(Fp16, OverflowToInf) {
  EXPECT_TRUE(std::isinf(fp16ToFloat(floatToFp16(1e10f))));
}

TEST(Fp16, SubnormalsSurvive) {
  float Tiny = fp16ToFloat(1); // Smallest positive subnormal.
  EXPECT_GT(Tiny, 0.0f);
  EXPECT_EQ(floatToFp16(Tiny), 1);
}

//===----------------------------------------------------------------------===//
// Functional memory
//===----------------------------------------------------------------------===//

TEST(GlobalMemory, AllocateReadWrite) {
  GlobalMemory M;
  uint64_t A = M.allocate(64);
  uint64_t B = M.allocate(64);
  EXPECT_NE(A, B);
  M.writeValue<uint32_t>(A, 0x12345678);
  EXPECT_EQ(M.readValue<uint32_t>(A), 0x12345678u);
}

TEST(GlobalMemory, CountsOnlyStoresThatChangeAWord) {
  GlobalMemory M;
  uint64_t A = M.allocate(8);
  M.storeWord(A, 0);     // Already zero.
  EXPECT_EQ(M.changingStores(), 0u);
  M.storeWord(A, 7);
  M.storeWord(A, 7);
  M.storeWord(A + 4, 9);
  EXPECT_EQ(M.changingStores(), 2u);
  M.writeValue<uint32_t>(A, 1); // Host writes are not device stores.
  EXPECT_EQ(M.changingStores(), 2u);
}

TEST(GlobalMemory, OutOfBoundsFaultsAndPoisons) {
  GlobalMemory M;
  M.allocate(64);
  EXPECT_EQ(M.loadWord(0x42), PoisonWord);
  EXPECT_TRUE(M.faulted());
}

TEST(SharedMemoryTest, BoundsChecked) {
  SharedMemory S(16);
  S.storeWord(0, 7);
  EXPECT_EQ(S.loadWord(0), 7u);
  EXPECT_FALSE(S.faulted());
  S.loadWord(20);
  EXPECT_TRUE(S.faulted());
}

//===----------------------------------------------------------------------===//
// Whole-kernel execution
//===----------------------------------------------------------------------===//

TEST(Oracle, VecAddComputesReference) {
  VecAddSetup S(64);
  sass::Program P = parseOrDie(VecAddText, "vecadd");
  RunResult R = S.Device.run(P, S.Launch, RunMode::Oracle);
  ASSERT_TRUE(R.Valid) << R.FaultReason;
  EXPECT_TRUE(S.outputCorrect());
}

TEST(Timed, VecAddMatchesOracleAndTimes) {
  VecAddSetup S(64);
  sass::Program P = parseOrDie(VecAddText, "vecadd");
  RunResult R = S.Device.run(P, S.Launch, RunMode::Timed);
  ASSERT_TRUE(R.Valid) << R.FaultReason;
  EXPECT_TRUE(S.outputCorrect());
  // 64 iterations x ~12 instructions with memory latencies: the kernel
  // must take a sane, nonzero number of cycles.
  EXPECT_GT(R.Cycles, 500u);
  EXPECT_LT(R.Cycles, 2'000'000u);
  EXPECT_GT(R.Counters.IssuedInstrs, 64u * 10);
}

TEST(Timed, DeterministicCycles) {
  VecAddSetup S1(32), S2(32);
  sass::Program P = parseOrDie(VecAddText, "vecadd");
  RunResult A = S1.Device.run(P, S1.Launch, RunMode::Timed);
  RunResult B = S2.Device.run(P, S2.Launch, RunMode::Timed);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Counters.IssuedInstrs, B.Counters.IssuedInstrs);
}

TEST(BranchFault, UnknownLabelIsNamedInBothModes) {
  // A BRA whose label names no statement of the program: both machine
  // models must refuse the run and say which label was missing.
  VecAddSetup S(4);
  sass::Program P = parseOrDie(R"(
  [B------:R-:W-:-:S01] BRA `(.L_NOWHERE) ;
  [B------:R-:W-:-:S01] EXIT ;
)",
                               "badbranch");
  for (RunMode Mode : {RunMode::Timed, RunMode::Oracle}) {
    RunResult R = S.Device.run(P, S.Launch, Mode);
    EXPECT_FALSE(R.Valid);
    EXPECT_NE(R.FaultReason.find("unknown label '.L_NOWHERE'"),
              std::string::npos)
        << R.FaultReason;
  }
}

/// The §4.3 microbenchmark mechanism: a consumer issued before the
/// producer's write-back reads the *stale* register value.
TEST(Timed, StallCountHazardFaithful) {
  auto Build = [](unsigned Stall) {
    std::string S = std::to_string(Stall);
    if (S.size() < 2)
      S = "0" + S;
    return std::string(R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
)") + "  [B------:R-:W-:-:S" +
           S + R"(] MOV R15, 0x2a ;
  [B------:R-:W-:-:S01] STG.E [R2.64], R15 ;
  [B------:R-:W-:-:S01] EXIT ;
)";
  };

  // MOV's ground-truth latency is 4 (Table 1): stall 4 is exact, stall 3
  // violates the hazard distance and the store must see the old value.
  for (unsigned Stall : {4u, 5u}) {
    Gpu Device;
    uint64_t Out = Device.globalMemory().allocate(4);
    KernelLaunch L;
    L.WarpsPerBlock = 1;
    L.addParam64(Out);
    sass::Program P = parseOrDie(Build(Stall), "mov_bench");
    RunResult R = Device.run(P, L, RunMode::Timed);
    ASSERT_TRUE(R.Valid);
    EXPECT_EQ(Device.globalMemory().readValue<uint32_t>(Out), 0x2au)
        << "stall " << Stall << " should be sufficient";
  }
  for (unsigned Stall : {1u, 2u, 3u}) {
    Gpu Device;
    uint64_t Out = Device.globalMemory().allocate(4);
    KernelLaunch L;
    L.WarpsPerBlock = 1;
    L.addParam64(Out);
    sass::Program P = parseOrDie(Build(Stall), "mov_bench");
    RunResult R = Device.run(P, L, RunMode::Timed);
    ASSERT_TRUE(R.Valid);
    EXPECT_NE(Device.globalMemory().readValue<uint32_t>(Out), 0x2au)
        << "stall " << Stall << " must expose the hazard";
  }
}

/// Dropping a scoreboard wait on a load produces a stale read.
TEST(Timed, MissingWaitBarrierReadsStale) {
  const char *WithWait = R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W0:-:S01] LDG.E R10, [R2.64] ;
  [B0-----:R-:W-:-:S04] MOV R11, R10 ;
  [B------:R-:W-:-:S01] STG.E [R2.64+0x4], R11 ;
  [B------:R-:W-:-:S01] EXIT ;
)";
  const char *NoWait = R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W0:-:S01] LDG.E R10, [R2.64] ;
  [B------:R-:W-:-:S04] MOV R11, R10 ;
  [B------:R-:W-:-:S01] STG.E [R2.64+0x4], R11 ;
  [B------:R-:W-:-:S01] EXIT ;
)";
  for (bool Wait : {true, false}) {
    Gpu Device;
    uint64_t Buf = Device.globalMemory().allocate(8);
    Device.globalMemory().writeValue<uint32_t>(Buf, 0x77);
    KernelLaunch L;
    L.WarpsPerBlock = 1;
    L.addParam64(Buf);
    sass::Program P = parseOrDie(Wait ? WithWait : NoWait, "wait");
    RunResult R = Device.run(P, L, RunMode::Timed);
    ASSERT_TRUE(R.Valid) << R.FaultReason;
    uint32_t Got = Device.globalMemory().readValue<uint32_t>(Buf + 4);
    if (Wait)
      EXPECT_EQ(Got, 0x77u);
    else
      EXPECT_NE(Got, 0x77u);
  }
}

/// Two warps exchange values through shared memory across BAR.SYNC.
TEST(Timed, BlockBarrierOrdersSharedMemory) {
  const char *Text = R"(
  [B------:R-:W0:-:S01] S2R R0, SR_TID.X ;
  [B0-----:R-:W-:-:S04] SHF.R.U32 R1, R0, 0x5, RZ ;
  [B------:R-:W-:-:S05] IMAD R2, R1, 0x4, RZ ;
  [B------:R-:W-:-:S01] STS [R2], R1 ;
  [B------:R-:W-:-:S01] BAR.SYNC 0x0 ;
  [B------:R-:W-:-:S05] IADD3 R3, RZ, 0x1, -R1 ;
  [B------:R-:W-:-:S05] IMAD R4, R3, 0x4, RZ ;
  [B------:R-:W1:-:S01] LDS R5, [R4] ;
  [B------:R-:W-:-:S04] MOV R6, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R7, c[0x0][0x164] ;
  [B-1----:R-:W-:-:S05] IMAD.WIDE R8, R1, 0x4, R6 ;
  [B------:R-:W-:-:S01] STG.E [R8.64], R5 ;
  [B------:R-:W-:-:S01] EXIT ;
)";
  Gpu Device;
  uint64_t Out = Device.globalMemory().allocate(8);
  KernelLaunch L;
  L.WarpsPerBlock = 2;
  L.SharedBytes = 64;
  L.addParam64(Out);
  sass::Program P = parseOrDie(Text, "barrier");
  RunResult R = Device.run(P, L, RunMode::Timed);
  ASSERT_TRUE(R.Valid) << R.FaultReason;
  // Warp 0 reads warp 1's value and vice versa.
  EXPECT_EQ(Device.globalMemory().readValue<uint32_t>(Out), 1u);
  EXPECT_EQ(Device.globalMemory().readValue<uint32_t>(Out + 4), 0u);
}

/// LDGSTS groups must issue in ascending-offset order; a violation both
/// faults the run and corrupts the copied data (§3.5).
TEST(Timed, LdgstsOutOfOrderCorrupts) {
  const char *InOrder = R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W-:-:S04] MOV R10, 0x0 ;
  [B------:R-:W0:-:S01] LDGSTS.E [R10], desc[UR4][R2.64] ;
  [B------:R-:W0:-:S01] LDGSTS.E [R10+0x4], desc[UR4][R2.64+0x4] ;
  [B0-----:R-:W1:-:S01] LDS R12, [R10] ;
  [B-1----:R-:W-:-:S04] MOV R13, R12 ;
  [B------:R-:W-:-:S01] STG.E [R2.64+0x8], R13 ;
  [B------:R-:W-:-:S01] EXIT ;
)";
  const char *OutOfOrder = R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W-:-:S04] MOV R10, 0x0 ;
  [B------:R-:W0:-:S01] LDGSTS.E [R10+0x4], desc[UR4][R2.64+0x4] ;
  [B------:R-:W0:-:S01] LDGSTS.E [R10], desc[UR4][R2.64] ;
  [B0-----:R-:W1:-:S01] LDS R12, [R10] ;
  [B-1----:R-:W-:-:S04] MOV R13, R12 ;
  [B------:R-:W-:-:S01] STG.E [R2.64+0x8], R13 ;
  [B------:R-:W-:-:S01] EXIT ;
)";
  for (bool Ordered : {true, false}) {
    Gpu Device;
    uint64_t Buf = Device.globalMemory().allocate(16);
    Device.globalMemory().writeValue<uint32_t>(Buf, 0xabcd);
    Device.globalMemory().writeValue<uint32_t>(Buf + 4, 0x1234);
    KernelLaunch L;
    L.WarpsPerBlock = 1;
    L.SharedBytes = 64;
    L.addParam64(Buf);
    sass::Program P = parseOrDie(Ordered ? InOrder : OutOfOrder, "ldgsts");
    RunResult R = Device.run(P, L, RunMode::Timed);
    uint32_t Got = Device.globalMemory().readValue<uint32_t>(Buf + 8);
    if (Ordered) {
      EXPECT_TRUE(R.Valid) << R.FaultReason;
      EXPECT_EQ(Got, 0xabcdu);
    } else {
      EXPECT_FALSE(R.Valid);
      EXPECT_NE(Got, 0xabcdu);
    }
  }
}

/// The operand reuse cache saves register-bank conflicts when flagged
/// operands are consumed back-to-back (§5.7.1); cycles must drop.
TEST(Timed, ReuseFlagSavesBankConflicts) {
  auto Build = [](bool Reuse) {
    std::string ReuseSuffix = Reuse ? ".reuse" : "";
    std::string Body;
    Body += "  [B------:R-:W-:-:S04] MOV R9, 0x0 ;\n";
    Body += ".L_LOOP:\n";
    Body += "  [B------:R-:W-:-:S05] ISETP.GE.AND P0, PT, R9, 0x80, PT ;\n";
    Body += "  [B------:R-:W-:-:S01] @P0 BRA `(.L_EXIT) ;\n";
    // R4 and R8 share bank 0: without reuse, each FFMA pays a conflict.
    Body += "  [B------:R-:W-:-:S01] FFMA R13, R4" + ReuseSuffix +
            ", R8, R13 ;\n";
    Body += "  [B------:R-:W-:-:S01] FFMA R14, R4" + ReuseSuffix +
            ", R8, R14 ;\n";
    Body += "  [B------:R-:W-:-:S05] FFMA R15, R4, R12, R15 ;\n";
    Body += "  [B------:R-:W-:-:S04] IADD3 R9, R9, 0x1, RZ ;\n";
    Body += "  [B------:R-:W-:-:S01] BRA `(.L_LOOP) ;\n";
    Body += ".L_EXIT:\n";
    Body += "  [B------:R-:W-:-:S01] EXIT ;\n";
    return Body;
  };
  uint64_t CyclesWith = 0, CyclesWithout = 0;
  for (bool Reuse : {true, false}) {
    Gpu Device;
    KernelLaunch L;
    L.WarpsPerBlock = 1;
    sass::Program P = parseOrDie(Build(Reuse), "reuse");
    RunResult R = Device.run(P, L, RunMode::Timed);
    ASSERT_TRUE(R.Valid) << R.FaultReason;
    if (Reuse) {
      CyclesWith = R.Cycles;
      EXPECT_GT(R.Counters.ReuseHits, 100u);
    } else {
      CyclesWithout = R.Cycles;
    }
  }
  EXPECT_LT(CyclesWith, CyclesWithout);
}

/// Predicated-off instructions consume their issue slot but have no
/// architectural effect (§5.7.2).
TEST(Timed, PredicatedOffHasNoEffect) {
  const char *Text = R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W-:-:S04] MOV R15, 0x7 ;
  [B------:R-:W-:-:S04] @!PT MOV R15, 0x63 ;
  [B------:R-:W-:-:S01] STG.E [R2.64], R15 ;
  [B------:R-:W-:-:S01] EXIT ;
)";
  Gpu Device;
  uint64_t Out = Device.globalMemory().allocate(4);
  KernelLaunch L;
  L.WarpsPerBlock = 1;
  L.addParam64(Out);
  sass::Program P = parseOrDie(Text, "pred");
  RunResult R = Device.run(P, L, RunMode::Timed);
  ASSERT_TRUE(R.Valid);
  EXPECT_EQ(Device.globalMemory().readValue<uint32_t>(Out), 0x7u);
}

TEST(Timed, CountersPopulated) {
  VecAddSetup S(128);
  sass::Program P = parseOrDie(VecAddText, "vecadd");
  RunResult R = S.Device.run(P, S.Launch, RunMode::Timed);
  ASSERT_TRUE(R.Valid);
  const PerfCounters &C = R.Counters;
  EXPECT_GT(C.ElapsedCycles, 0u);
  EXPECT_GT(C.ActiveCycles, 0u);
  EXPECT_LE(C.ActiveCycles, C.ElapsedCycles);
  EXPECT_GT(C.DramBytes, 0u);
  EXPECT_GT(C.LsuIssues, 0u);
  EXPECT_GT(C.ipcActive(), 0.0);
  EXPECT_GE(C.ipcActive(), C.ipcElapsed());
  EXPECT_GT(C.smBusyPct(), 0.0);
  EXPECT_LE(C.smBusyPct(), 100.0);
}

TEST(Timed, MultiWarpFasterThanSerial) {
  // Two independent warps should overlap latency (TLP): the two-warp run
  // must be cheaper than twice the one-warp run.
  auto RunWarps = [](unsigned Warps) {
    Gpu Device;
    uint64_t Buf = Device.globalMemory().allocate(4096);
    KernelLaunch L;
    L.WarpsPerBlock = Warps;
    L.addParam64(Buf);
    const char *Text = R"(
  [B------:R-:W0:-:S01] S2R R0, SR_TID.X ;
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
  [B0-----:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;
  [B------:R-:W-:-:S04] MOV R9, 0x0 ;
.L_LOOP:
  [B------:R-:W-:-:S05] ISETP.GE.AND P0, PT, R9, 0x20, PT ;
  [B------:R-:W-:-:S01] @P0 BRA `(.L_EXIT) ;
  [B------:R-:W-:-:S05] IMAD.WIDE R10, R9, 0x8, R2 ;
  [B------:R-:W0:-:S01] LDG.E R12, [R10.64] ;
  [B0-----:R-:W-:-:S05] FADD R13, R12, 1 ;
  [B------:R-:W-:-:S01] STG.E [R10.64+0x4], R13 ;
  [B------:R-:W-:-:S04] IADD3 R9, R9, 0x1, RZ ;
  [B------:R-:W-:-:S01] BRA `(.L_LOOP) ;
.L_EXIT:
  [B------:R-:W-:-:S01] EXIT ;
)";
    sass::Program P = parseOrDie(Text, "tlp");
    RunResult R = Device.run(P, L, RunMode::Timed);
    EXPECT_TRUE(R.Valid) << R.FaultReason;
    return R.Cycles;
  };
  uint64_t One = RunWarps(1);
  uint64_t Two = RunWarps(2);
  EXPECT_LT(Two, 2 * One);
}

//===----------------------------------------------------------------------===//
// Measurement harness
//===----------------------------------------------------------------------===//

TEST(Measure, MeanCloseToDeterministicAndNoiseSmall) {
  VecAddSetup S(64);
  sass::Program P = parseOrDie(VecAddText, "vecadd");
  RunResult Exact = S.Device.run(P, S.Launch, RunMode::Timed);
  MeasureConfig C;
  C.RepeatIters = 5;
  Measurement M = measureKernel(S.Device, P, S.Launch, C);
  ASSERT_TRUE(M.Valid) << M.FaultReason;
  EXPECT_NEAR(M.MeanUs, Exact.TimeUs, Exact.TimeUs * 0.02);
  // Paper §3.6: individual measurements within ~1% of each other.
  EXPECT_LT(M.StddevUs / M.MeanUs, 0.015);
}

TEST(Measure, SeededReproducible) {
  VecAddSetup S1(32), S2(32);
  sass::Program P = parseOrDie(VecAddText, "vecadd");
  MeasureConfig C;
  C.Seed = 99;
  Measurement A = measureKernel(S1.Device, P, S1.Launch, C);
  Measurement B = measureKernel(S2.Device, P, S2.Launch, C);
  EXPECT_DOUBLE_EQ(A.MeanUs, B.MeanUs);
}

TEST(Measure, ZeroRepeatItersIsInvalidNotFatal) {
  // The means divide by the repeat count; zero used to raise SIGFPE.
  VecAddSetup S(32);
  sass::Program P = parseOrDie(VecAddText, "vecadd");
  MeasureConfig C;
  C.RepeatIters = 0;
  Measurement M = measureKernel(S.Device, P, S.Launch, C);
  EXPECT_FALSE(M.Valid);
  EXPECT_FALSE(M.FaultReason.empty());
}

TEST(Measure, InvalidScheduleReported) {
  // Branch to a missing label faults.
  Gpu Device;
  KernelLaunch L;
  L.WarpsPerBlock = 1;
  sass::Program P = parseOrDie(
      "  [B------:R-:W-:-:S01] BRA `(.L_NOWHERE) ;\n"
      "  [B------:R-:W-:-:S01] EXIT ;\n",
      "bad");
  Measurement M = measureKernel(Device, P, L);
  EXPECT_FALSE(M.Valid);
  EXPECT_FALSE(M.FaultReason.empty());
}

TEST(MeasureFixedPointTest, StopsOnceARunChangesNothing) {
  // The first run writes out[]; the next, from cleared caches, writes
  // the same words and so stands for every later repetition. Without
  // the race-free promise both warmups still run in protocol order.
  sass::Program P = parseOrDie(VecAddText, "vecadd");
  for (bool RaceFree : {false, true}) {
    SCOPED_TRACE(RaceFree ? "race-free" : "may race");
    VecAddSetup S(32);
    MeasureConfig C;
    C.WarmupIters = 2;
    C.RepeatIters = 3;
    Measurement M = measureKernel(S.Device, P, S.Launch, C, RaceFree);
    ASSERT_TRUE(M.Valid) << M.FaultReason;
    EXPECT_EQ(M.SimulatedRuns, RaceFree ? 2u : 3u);
    EXPECT_TRUE(S.outputCorrect());
  }
}

TEST(MeasureFixedPointTest, AccumulatingProgramRunsEveryIteration) {
  // out[i] += x[i] changes memory on every run, so no run stands for
  // another: all W + R runs are simulated, promise or not.
  sass::Program P = parseOrDie(VecAddText, "accumulate");
  for (bool RaceFree : {false, true}) {
    SCOPED_TRACE(RaceFree ? "race-free" : "may race");
    VecAddSetup S(32);
    KernelLaunch Accumulate;
    Accumulate.GridX = 1;
    Accumulate.WarpsPerBlock = 1;
    Accumulate.addParam64(S.XAddr);
    Accumulate.addParam64(S.OutAddr);
    Accumulate.addParam64(S.OutAddr);
    Accumulate.addParam32(S.N);
    MeasureConfig C;
    C.WarmupIters = 2;
    C.RepeatIters = 3;
    Measurement M = measureKernel(S.Device, P, Accumulate, C, RaceFree);
    ASSERT_TRUE(M.Valid) << M.FaultReason;
    EXPECT_EQ(M.SimulatedRuns, 5u);
    for (unsigned I = 0; I < S.N; ++I)
      EXPECT_EQ(S.Device.globalMemory().readValue<float>(S.OutAddr + 4 * I),
                5.0f * I);
  }
}

//===----------------------------------------------------------------------===//
// MeasurementCache (shared, thread-safe schedule->latency memoization)
//===----------------------------------------------------------------------===//

TEST(MeasurementCacheTest, MissComputesThenHitReturnsCachedValue) {
  MeasurementCache Cache(7);
  int Simulations = 0;
  auto Simulate = [&Simulations](uint64_t) {
    ++Simulations;
    return 42.5;
  };
  MeasurementCache::ScheduleKey Key{0xabc, 0x111};
  EXPECT_EQ(Cache.measureOrCompute(Key, Simulate), 42.5);
  EXPECT_EQ(Cache.measureOrCompute(Key, Simulate), 42.5);
  EXPECT_EQ(Simulations, 1);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.size(), 1u);

  double Value = 0;
  EXPECT_TRUE(Cache.lookup(Key, Value));
  EXPECT_EQ(Value, 42.5);
  EXPECT_FALSE(Cache.lookup({0xdef, 0x111}, Value));
  // Collision guard: same primary, different schedule -> not found.
  EXPECT_FALSE(Cache.lookup({0xabc, 0x222}, Value));
}

TEST(MeasurementCacheTest, NoiseSeedDependsOnKeyNotOrder) {
  // Cached values must be interleaving-invariant: the seed handed to
  // the simulation is a pure function of (base seed, key).
  uint64_t S1 = MeasurementCache::deriveSeed(1, 100);
  EXPECT_EQ(S1, MeasurementCache::deriveSeed(1, 100));
  EXPECT_NE(S1, MeasurementCache::deriveSeed(1, 101));
  EXPECT_NE(S1, MeasurementCache::deriveSeed(2, 100));

  MeasurementCache A(9), B(9);
  auto Echo = [](uint64_t Seed) { return static_cast<double>(Seed % 997); };
  // Different insertion orders, same values per key.
  double A1 = A.measureOrCompute({11, 1}, Echo),
         A2 = A.measureOrCompute({22, 2}, Echo);
  double B2 = B.measureOrCompute({22, 2}, Echo),
         B1 = B.measureOrCompute({11, 1}, Echo);
  EXPECT_EQ(A1, B1);
  EXPECT_EQ(A2, B2);
}

TEST(MeasurementCacheTest, SingleSimulationPerKeyUnderContention) {
  MeasurementCache Cache(3);
  constexpr int Threads = 8;
  std::atomic<int> Simulations{0};
  std::vector<double> Results(Threads, 0.0);

  support::ThreadPool Pool(Threads);
  Pool.parallelFor(Threads, [&](size_t I) {
    Results[I] = Cache.measureOrCompute({0x5eed, 0xc0de}, [&](uint64_t Seed) {
      Simulations.fetch_add(1);
      // Slow simulation: keep the key in flight long enough that the
      // other threads arrive while it is being computed.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return static_cast<double>(Seed & 0xffff) + 0.25;
    });
  });

  EXPECT_EQ(Simulations.load(), 1) << "exactly one thread simulates";
  for (double R : Results)
    EXPECT_EQ(R, Results[0]) << "every waiter sees the published value";
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), static_cast<uint64_t>(Threads - 1));
}

TEST(MeasurementCacheTest, ConcurrentDistinctKeysAllPublished) {
  MeasurementCache Cache(5);
  constexpr int Threads = 6;
  constexpr uint64_t Keys = 40;
  std::atomic<int> Simulations{0};

  support::ThreadPool Pool(Threads);
  // Every thread walks every key in a different order.
  Pool.parallelFor(Threads, [&](size_t T) {
    for (uint64_t I = 0; I < Keys; ++I) {
      uint64_t Key = (I * 7919 + T * T) % Keys;
      double V = Cache.measureOrCompute({Key, ~Key}, [&](uint64_t Seed) {
        Simulations.fetch_add(1);
        return static_cast<double>(Seed % 1000);
      });
      EXPECT_EQ(V, static_cast<double>(
                       MeasurementCache::deriveSeed(5, ~Key) % 1000));
    }
  });

  EXPECT_EQ(static_cast<uint64_t>(Simulations.load()), Keys)
      << "each key simulated exactly once across all threads";
  EXPECT_EQ(Cache.size(), Keys);
  EXPECT_EQ(Cache.misses(), Keys);
  EXPECT_EQ(Cache.hits() + Cache.misses(),
            static_cast<uint64_t>(Threads) * Keys);
}

TEST(MeasurementCacheTest, AccumulateSurfacesCountersThroughPerfCounters) {
  MeasurementCache Cache(1);
  auto One = [](uint64_t) { return 1.0; };
  Cache.measureOrCompute({1, 1}, One);
  Cache.measureOrCompute({1, 1}, One);
  Cache.measureOrCompute({2, 2}, One);
  PerfCounters PC;
  Cache.accumulate(PC);
  EXPECT_EQ(PC.MeasureCacheHits, 1u);
  EXPECT_EQ(PC.MeasureCacheMisses, 2u);
  // Counters fold through the existing aggregation operator.
  PerfCounters Sum;
  Sum += PC;
  Sum += PC;
  EXPECT_EQ(Sum.MeasureCacheHits, 2u);
  EXPECT_EQ(Sum.MeasureCacheMisses, 4u);
}

TEST(MeasurementCacheTest, HashScheduleDistinguishesPrograms) {
  Expected<sass::Program> P1 = sass::Parser::parseProgram(
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n"
      "  [B------:R-:W-:-:S01] MOV R1, 0x2 ;\n");
  Expected<sass::Program> P2 = sass::Parser::parseProgram(
      "  [B------:R-:W-:-:S01] MOV R1, 0x2 ;\n"
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n");
  ASSERT_TRUE(P1.hasValue());
  ASSERT_TRUE(P2.hasValue());
  EXPECT_EQ(MeasurementCache::hashSchedule(*P1),
            MeasurementCache::hashSchedule(*P1));
  EXPECT_NE(MeasurementCache::hashSchedule(*P1),
            MeasurementCache::hashSchedule(*P2));
}

TEST(MeasurementCacheTest, PrimaryCollisionFallsBackUncached) {
  MeasurementCache Cache(1);
  int Simulations = 0;
  auto Count = [&Simulations](uint64_t Seed) {
    ++Simulations;
    return static_cast<double>(Seed % 97);
  };
  // Two distinct schedules colliding on the primary hash: the second
  // must not inherit the first one's latency.
  double First = Cache.measureOrCompute({0x77, 0xaaa}, Count);
  double Second = Cache.measureOrCompute({0x77, 0xbbb}, Count);
  EXPECT_EQ(Simulations, 2);
  EXPECT_EQ(Cache.collisions(), 1u);
  EXPECT_EQ(First, static_cast<double>(
                       MeasurementCache::deriveSeed(1, 0xaaa) % 97));
  EXPECT_EQ(Second, static_cast<double>(
                        MeasurementCache::deriveSeed(1, 0xbbb) % 97));
  // The collision path is itself order-invariant: repeating the
  // colliding lookup simulates again with the same seed.
  EXPECT_EQ(Cache.measureOrCompute({0x77, 0xbbb}, Count), Second);
  EXPECT_EQ(Cache.collisions(), 2u);
}

TEST(MeasurementCacheTest, KeyForProducesIndependentHashes) {
  Expected<sass::Program> P = sass::Parser::parseProgram(
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n");
  ASSERT_TRUE(P.hasValue());
  MeasurementCache::ScheduleKey K = MeasurementCache::keyFor(*P);
  EXPECT_EQ(K.Primary, MeasurementCache::hashSchedule(*P));
  EXPECT_NE(K.Primary, K.Check);
}

TEST(MeasurementCacheTest, FailedSimulationLeavesKeyReclaimable) {
  MeasurementCache Cache(1);
  MeasurementCache::ScheduleKey Key{5, 6};
  EXPECT_THROW(Cache.measureOrCompute(
                   Key,
                   [](uint64_t) -> double {
                     throw std::runtime_error("transient");
                   }),
               std::runtime_error);
  double Probe = 0;
  EXPECT_FALSE(Cache.lookup(Key, Probe)) << "failed keys are not published";
  // A retry recomputes instead of inheriting a poisoned value.
  EXPECT_EQ(Cache.measureOrCompute(Key, [](uint64_t) { return 3.5; }), 3.5);
  EXPECT_TRUE(Cache.lookup(Key, Probe));
  EXPECT_EQ(Probe, 3.5);
}
