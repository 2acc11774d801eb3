//===- tests/incremental_test.cpp - incremental env-step state tests -----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Differential property tests for the incremental per-step state: along
// long random legal swap sequences, the swap-maintained action mask,
// schedule hash, decoded kernel image and observation must stay
// bit-identical to their from-scratch recomputation at every step.
//
//===----------------------------------------------------------------------===//

#include "env/AssemblyGame.h"
#include "env/Embedding.h"
#include "gpusim/DecodedProgram.h"
#include "gpusim/Measurement.h"
#include "kernels/Builder.h"
#include "sass/Parser.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace cuasmrl;
using namespace cuasmrl::env;
using kernels::BuiltKernel;
using kernels::ScheduleStyle;
using kernels::WorkloadKind;

namespace {

struct GameFixture {
  gpusim::Gpu Device;
  Rng DataRng{7};
  BuiltKernel Kernel;
  GameConfig Config;

  explicit GameFixture(WorkloadKind Kind = WorkloadKind::MmLeakyRelu) {
    Kernel = kernels::buildKernel(Device, Kind, kernels::testShape(Kind),
                                  kernels::candidateConfigs(Kind).front(),
                                  ScheduleStyle::TritonO3, DataRng);
    Config.Measure.WarmupIters = 1;
    Config.Measure.RepeatIters = 1;
    Config.Measure.NoiseStddev = 0.0;
  }
};

/// Asserts every piece of incrementally-maintained state against its
/// from-scratch recomputation.
void expectIncrementalStateFresh(AssemblyGame &Game,
                                 const Embedding &FreshEmbed,
                                 const std::vector<float> &Observation) {
  // Action mask: cached == full O(program) sweep.
  EXPECT_EQ(Game.actionMask(), Game.actionMaskFresh());

  // Schedule hash: O(1)-maintained key == from-scratch key.
  gpusim::MeasurementCache::ScheduleKey Inc = Game.scheduleKey();
  gpusim::MeasurementCache::ScheduleKey Fresh =
      gpusim::MeasurementCache::keyFor(Game.current());
  EXPECT_EQ(Inc.Primary, Fresh.Primary);
  EXPECT_EQ(Inc.Check, Fresh.Check);

  // Decoded image: record-swapped == full redecode.
  EXPECT_TRUE(Game.decoded() == gpusim::DecodedProgram(Game.current()));

  // Observation: row-swapped matrix == full re-embedding.
  EXPECT_EQ(Observation, FreshEmbed.embed(Game.current()));
}

} // namespace

//===----------------------------------------------------------------------===//
// Randomized differential walks
//===----------------------------------------------------------------------===//

TEST(IncrementalStepTest, MaskedRandomWalkMatchesFreshRecomputation) {
  for (uint64_t Seed : {11ull, 12ull}) {
    GameFixture F;
    F.Config.EpisodeLength = 1000; // Let the walk run, not the episode cap.
    AssemblyGame Game(F.Device, F.Kernel, F.Config);
    Embedding FreshEmbed(F.Kernel.Prog);
    Rng Walk(Seed);

    std::vector<float> Obs = Game.reset();
    expectIncrementalStateFresh(Game, FreshEmbed, Obs);
    for (int Step = 0; Step < 48; ++Step) {
      std::vector<uint8_t> Mask = Game.actionMask();
      std::vector<unsigned> Legal;
      for (unsigned A = 0; A < Mask.size(); ++A)
        if (Mask[A])
          Legal.push_back(A);
      if (Legal.empty())
        break;
      unsigned Action = Legal[Walk.uniformInt(Legal.size())];
      AssemblyGame::StepResult R = Game.step(Action);
      ASSERT_FALSE(R.Invalid);
      expectIncrementalStateFresh(Game, FreshEmbed, R.Observation);
    }
  }
}

TEST(IncrementalStepTest, UnmaskedWalkMatchesFreshRecomputationIncludingReverts) {
  // Without masking the structural mask admits semantically invalid
  // swaps; those episodes terminate with a revert, which must restore
  // every incremental structure exactly.
  for (uint64_t Seed : {21ull, 22ull, 23ull}) {
    GameFixture F;
    F.Config.UseActionMasking = false;
    F.Config.EpisodeLength = 1000;
    AssemblyGame Game(F.Device, F.Kernel, F.Config);
    Embedding FreshEmbed(F.Kernel.Prog);
    Rng Walk(Seed);

    std::vector<float> Obs = Game.reset();
    expectIncrementalStateFresh(Game, FreshEmbed, Obs);
    for (int Step = 0; Step < 16; ++Step) {
      std::vector<uint8_t> Mask = Game.actionMask();
      std::vector<unsigned> Legal;
      for (unsigned A = 0; A < Mask.size(); ++A)
        if (Mask[A])
          Legal.push_back(A);
      if (Legal.empty())
        break;
      unsigned Action = Legal[Walk.uniformInt(Legal.size())];
      AssemblyGame::StepResult R = Game.step(Action);
      expectIncrementalStateFresh(Game, FreshEmbed, R.Observation);
      if (R.Done)
        break;
    }
  }
}

TEST(IncrementalStepTest, ResetRestoresInitialState) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  std::vector<float> Initial = Game.reset();
  std::vector<uint8_t> InitialMask = Game.actionMask();
  gpusim::MeasurementCache::ScheduleKey InitialKey = Game.scheduleKey();

  Rng Walk(3);
  for (int Step = 0; Step < 8; ++Step) {
    std::vector<uint8_t> Mask = Game.actionMask();
    std::vector<unsigned> Legal;
    for (unsigned A = 0; A < Mask.size(); ++A)
      if (Mask[A])
        Legal.push_back(A);
    if (Legal.empty())
      break;
    Game.step(Legal[Walk.uniformInt(Legal.size())]);
  }

  std::vector<float> AfterReset = Game.reset();
  EXPECT_EQ(Initial, AfterReset);
  EXPECT_EQ(InitialMask, Game.actionMask());
  EXPECT_EQ(InitialKey.Primary, Game.scheduleKey().Primary);
  EXPECT_EQ(InitialKey.Check, Game.scheduleKey().Check);
}

TEST(ResetByUndoTest, ResetEqualsFreshGameAfterRandomEpisodes) {
  // reset() undoes the episode's swaps, newest first. After random
  // episodes of every length, masked or not (an invalid unmasked step
  // reverts its own swap before the episode ends), the game must equal
  // one built fresh from the same kernel.
  for (WorkloadKind Kind : kernels::allWorkloads())
    for (bool Masked : {true, false}) {
      SCOPED_TRACE(testing::Message() << kernels::workloadName(Kind)
                                      << " masked=" << Masked);
      GameFixture F(Kind);
      F.Config.UseActionMasking = Masked;
      F.Config.PrivateDevice = true;
      F.Config.EpisodeLength = 24;
      AssemblyGame Fresh(F.Device, F.Kernel, F.Config);
      AssemblyGame Game(F.Device, F.Kernel, F.Config);
      const std::vector<float> FreshObs = Fresh.reset();
      Rng Walk(40 + static_cast<uint64_t>(Kind));
      for (int Episode = 0; Episode < 4; ++Episode) {
        const uint64_t Steps = Walk.uniformInt(25);
        for (uint64_t Step = 0; Step < Steps; ++Step) {
          std::vector<uint8_t> Mask = Game.actionMask();
          std::vector<unsigned> Allowed;
          for (unsigned A = 0; A < Mask.size(); ++A)
            if (Mask[A])
              Allowed.push_back(A);
          if (Allowed.empty() ||
              Game.step(Allowed[Walk.uniformInt(Allowed.size())]).Done)
            break;
        }
        EXPECT_EQ(Game.reset(), FreshObs);
        EXPECT_EQ(Game.actionMask(), Fresh.actionMask());
        EXPECT_EQ(Game.scheduleKey().Primary, Fresh.scheduleKey().Primary);
        EXPECT_EQ(Game.scheduleKey().Check, Fresh.scheduleKey().Check);
        EXPECT_TRUE(Game.decoded() == Fresh.decoded());
        EXPECT_EQ(Game.current().str(), Fresh.current().str());
        EXPECT_EQ(Game.currentTimeUs(), Fresh.initialTimeUs());
      }
    }
}

//===----------------------------------------------------------------------===//
// ScheduleHash unit behavior
//===----------------------------------------------------------------------===//

namespace {

sass::Program parseOrDie(const char *Text) {
  Expected<sass::Program> P = sass::Parser::parseProgram(Text, "test");
  EXPECT_TRUE(P.hasValue());
  return *P;
}

} // namespace

TEST(ScheduleHashTest, SwapMatchesFromScratchKey) {
  sass::Program P = parseOrDie(
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n"
      "  [B------:R-:W-:-:S02] MOV R1, 0x2 ;\n"
      "  [B------:R-:W-:-:S04] IADD3 R2, R0, R1, RZ ;\n"
      "  [B------:R-:W-:-:S01] MOV R3, 0x4 ;\n");
  gpusim::ScheduleHash H(P);
  EXPECT_EQ(H.key().Primary, gpusim::MeasurementCache::keyFor(P).Primary);

  P.swap(0, 1);
  H.swap(0);
  gpusim::MeasurementCache::ScheduleKey Fresh =
      gpusim::MeasurementCache::keyFor(P);
  EXPECT_EQ(H.key().Primary, Fresh.Primary);
  EXPECT_EQ(H.key().Check, Fresh.Check);

  P.swap(2, 3);
  H.swap(2);
  Fresh = gpusim::MeasurementCache::keyFor(P);
  EXPECT_EQ(H.key().Primary, Fresh.Primary);
  EXPECT_EQ(H.key().Check, Fresh.Check);
}

TEST(ScheduleHashTest, SwapIsInvolution) {
  sass::Program P = parseOrDie(
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n"
      "  [B------:R-:W-:-:S02] MOV R1, 0x2 ;\n");
  gpusim::ScheduleHash H(P);
  gpusim::MeasurementCache::ScheduleKey Before = H.key();
  H.swap(0);
  EXPECT_NE(H.key().Primary, Before.Primary); // Order-sensitive.
  H.swap(0);
  EXPECT_EQ(H.key().Primary, Before.Primary);
  EXPECT_EQ(H.key().Check, Before.Check);
}

TEST(ScheduleHashTest, DistinctSchedulesAndNamesGetDistinctKeys) {
  sass::Program P1 = parseOrDie(
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n"
      "  [B------:R-:W-:-:S02] MOV R1, 0x2 ;\n");
  sass::Program P2 = P1;
  P2.swap(0, 1);
  EXPECT_NE(gpusim::MeasurementCache::keyFor(P1).Primary,
            gpusim::MeasurementCache::keyFor(P2).Primary);
  EXPECT_NE(gpusim::MeasurementCache::keyFor(P1).Check,
            gpusim::MeasurementCache::keyFor(P2).Check);

  sass::Program P3 = P1;
  P3.setName("other_kernel");
  EXPECT_NE(gpusim::MeasurementCache::keyFor(P1).Primary,
            gpusim::MeasurementCache::keyFor(P3).Primary);
}

//===----------------------------------------------------------------------===//
// DecodedProgram unit behavior
//===----------------------------------------------------------------------===//

TEST(DecodedProgramTest, RecordsCarryLatencyAndSemanticFlags) {
  sass::Program P = parseOrDie(
      "  [B------:R-:W0:-:S01] LDG.E.128 R4, [R2.64] ;\n"
      "  [B------:R-:W-:-:S04] IMAD.WIDE.U32 R8, R0, R1, R2 ;\n"
      "  [B------:R-:W-:-:S05] ISETP.GE.U32.AND P0, PT, R0, 0x4, PT ;\n");
  gpusim::DecodedProgram D(P);
  ASSERT_EQ(D.size(), 3u);

  EXPECT_TRUE(D[0].VarLat);
  EXPECT_EQ(D[0].DataRegs, 4u);
  EXPECT_FALSE(D[0].IsLabel);

  EXPECT_FALSE(D[1].VarLat);
  EXPECT_TRUE(D[1].has(gpusim::DecodedInstr::ModWide));
  EXPECT_TRUE(D[1].has(gpusim::DecodedInstr::ModU32));
  EXPECT_EQ(D[1].FixedLat, *sass::groundTruthLatency("IMAD.WIDE.U32"));

  EXPECT_EQ(D[2].Cmp, gpusim::CmpKind::GE);
  EXPECT_TRUE(D[2].has(gpusim::DecodedInstr::ModU32));
  EXPECT_EQ(D[2].FixedLat, *sass::groundTruthLatency("ISETP"));
}

TEST(DecodedProgramTest, BranchTargetsResolveToStatementIndices) {
  sass::Program P = parseOrDie(
      ".L_0:\n"
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n"
      "  [B------:R-:W-:-:S05] BRA `(.L_0) ;\n"
      "  [B------:R-:W-:-:S05] BRA `(.L_missing) ;\n"
      "  [B------:R-:W-:-:S05] EXIT ;\n");
  gpusim::DecodedProgram D(P);
  ASSERT_EQ(D.size(), 5u);
  EXPECT_TRUE(D[0].IsLabel);
  EXPECT_EQ(D[2].BranchTarget, 0);
  EXPECT_EQ(D[3].BranchTarget, -1); // Unknown label stays unresolved.
}

TEST(DecodedProgramTest, SwapEqualsFullRedecode) {
  sass::Program P = parseOrDie(
      ".L_0:\n"
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n"
      "  [B------:R-:W0:-:S01] LDG.E R4, [R2.64] ;\n"
      "  [B0-----:R-:W-:-:S04] IADD3 R6, R4, R0, RZ ;\n"
      "  [B------:R-:W-:-:S05] BRA `(.L_0) ;\n");
  gpusim::DecodedProgram D(P);
  P.swap(1, 2);
  D.swap(1);
  EXPECT_TRUE(D == gpusim::DecodedProgram(P));
  P.swap(1, 2);
  D.swap(1);
  EXPECT_TRUE(D == gpusim::DecodedProgram(P));
}

TEST(DecodedProgramTest, TimedRunMatchesInternallyDecodedRun) {
  // Two identical devices (the Gpu carries cache/memory state, so one
  // device's second run would start warm): one runs through the
  // internally-decoding overload, the other through an explicit image.
  GameFixture F1, F2;
  gpusim::DecodedProgram Decoded(F2.Kernel.Prog);
  unsigned Resident = F1.Device.residentBlocks(F1.Kernel.Launch);
  gpusim::RunResult A = F1.Device.run(F1.Kernel.Prog, F1.Kernel.Launch,
                                      gpusim::RunMode::Timed, Resident);
  gpusim::RunResult B =
      F2.Device.run(F2.Kernel.Prog, Decoded, F2.Kernel.Launch,
                    gpusim::RunMode::Timed, Resident);
  ASSERT_TRUE(A.Valid);
  ASSERT_TRUE(B.Valid);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

//===----------------------------------------------------------------------===//
// Embedding row swaps
//===----------------------------------------------------------------------===//

TEST(EmbeddingIncrementalTest, RowSwapEqualsReembedding) {
  GameFixture F;
  Embedding E(F.Kernel.Prog);
  sass::Program P = F.Kernel.Prog;

  // Find two adjacent instruction statements and their row index.
  size_t Upper = P.size();
  size_t Row = 0;
  for (size_t I = 0; I + 1 < P.size(); ++I) {
    if (P.stmt(I).isInstr() && P.stmt(I + 1).isInstr()) {
      Upper = I;
      break;
    }
    if (P.stmt(I).isInstr())
      ++Row;
  }
  ASSERT_LT(Upper, P.size());

  std::vector<float> Obs = E.embed(P);
  P.swap(Upper, Upper + 1);
  E.swapAdjacentRows(Obs, Row);
  EXPECT_EQ(Obs, E.embed(P));
}

//===----------------------------------------------------------------------===//
// Trace gating
//===----------------------------------------------------------------------===//

TEST(TraceGateTest, DisabledTraceRecordsNothingAndTogglesBack) {
  GameFixture F;
  F.Config.RecordTrace = false;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Rng Walk(5);
  Game.reset();

  auto StepOnce = [&] {
    std::vector<uint8_t> Mask = Game.actionMask();
    std::vector<unsigned> Legal;
    for (unsigned A = 0; A < Mask.size(); ++A)
      if (Mask[A])
        Legal.push_back(A);
    ASSERT_FALSE(Legal.empty());
    Game.step(Legal[Walk.uniformInt(Legal.size())]);
  };

  StepOnce();
  EXPECT_TRUE(Game.trace().empty());

  Game.setTraceRecording(true);
  StepOnce();
  ASSERT_EQ(Game.trace().size(), 1u);
  EXPECT_FALSE(Game.trace()[0].MovedText.empty());
}
