//===- tests/env_test.cpp - assembly game environment tests --------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "env/AssemblyGame.h"
#include "env/Embedding.h"
#include "sass/Parser.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

using namespace cuasmrl;
using namespace cuasmrl::env;
using kernels::BuiltKernel;
using kernels::ScheduleStyle;
using kernels::TileConfig;
using kernels::WorkloadKind;

namespace {

struct GameFixture {
  gpusim::Gpu Device;
  Rng DataRng{7};
  BuiltKernel Kernel;
  GameConfig Config;

  explicit GameFixture(WorkloadKind Kind = WorkloadKind::MmLeakyRelu,
                       unsigned EpisodeLength = 32) {
    Kernel = kernels::buildKernel(Device, Kind, kernels::testShape(Kind),
                                  kernels::candidateConfigs(Kind).front(),
                                  ScheduleStyle::TritonO3, DataRng);
    Config.EpisodeLength = EpisodeLength;
    Config.Measure.WarmupIters = 1;
    Config.Measure.RepeatIters = 1;
    Config.Measure.NoiseStddev = 0.0;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Embedding (§3.4)
//===----------------------------------------------------------------------===//

TEST(EmbeddingTest, ShapeMatchesProgram) {
  GameFixture F;
  Embedding E(F.Kernel.Prog);
  EXPECT_EQ(E.rows(), F.Kernel.Prog.instrCount());
  EXPECT_GE(E.features(), 11u + 1u);
  std::vector<float> Obs = E.embed(F.Kernel.Prog);
  EXPECT_EQ(Obs.size(), E.rows() * E.features());
}

TEST(EmbeddingTest, PaddingIsMinusOne) {
  Expected<sass::Program> P = sass::Parser::parseProgram(
      "  [B------:R-:W-:-:S01] MOV R0, 0x1 ;\n"
      "  [B------:R-:W-:-:S01] FFMA R2, R3, R4, R5 ;\n");
  ASSERT_TRUE(P.hasValue());
  Embedding E(*P);
  std::vector<float> Obs = E.embed(*P);
  // MOV has 2 operands, FFMA 4: MOV's trailing slots must be -1.
  size_t Feat = E.features();
  EXPECT_FLOAT_EQ(Obs[Feat - 1], -1.0f); // MOV row, last operand slot.
  EXPECT_NE(Obs[2 * Feat - 1], -1.0f);   // FFMA row uses all 4 slots.
}

TEST(EmbeddingTest, MemoryFlagDistinguishesOpcodes) {
  Expected<sass::Program> P = sass::Parser::parseProgram(
      "  [B------:R-:W0:-:S01] LDG.E R0, [R2.64] ;\n"
      "  [B------:R-:W-:-:S04] IADD3 R4, R4, 0x1, RZ ;\n");
  ASSERT_TRUE(P.hasValue());
  Embedding E(*P);
  std::vector<float> Obs = E.embed(*P);
  size_t MemFlag = 10; // After 6 wait bits, R, W, yield, stall.
  EXPECT_FLOAT_EQ(Obs[MemFlag], 1.0f);
  EXPECT_FLOAT_EQ(Obs[E.features() + MemFlag], -1.0f);
}

TEST(EmbeddingTest, SwapChangesObservation) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  std::vector<float> Before = Game.reset();
  std::vector<uint8_t> Mask = Game.actionMask();
  unsigned Action = 0;
  while (Action < Mask.size() && !Mask[Action])
    ++Action;
  ASSERT_LT(Action, Mask.size());
  AssemblyGame::StepResult R = Game.step(Action);
  EXPECT_NE(Before, R.Observation);
}

//===----------------------------------------------------------------------===//
// Action space and masking (§3.5)
//===----------------------------------------------------------------------===//

TEST(GameTest, ActionSpaceCoversMemoryInstructions) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  EXPECT_GT(Game.actionCount(), 0u);
  EXPECT_EQ(Game.actionCount() % 2, 0u);
}

TEST(GameTest, MaskHasLegalAndIllegalActions) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  std::vector<uint8_t> Mask = Game.actionMask();
  unsigned Legal = 0;
  for (uint8_t M : Mask)
    Legal += M;
  EXPECT_GT(Legal, 0u);
  EXPECT_LT(Legal, Mask.size()); // Some swaps must be forbidden.
}

/// Property: *any* sequence of masked actions keeps the schedule
/// semantically equivalent to the original (timed run still matches the
/// architectural oracle bit-for-bit). This is the §3.5 guarantee.
TEST(GameTest, RandomMaskedWalksPreserveSemantics) {
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    GameFixture F;
    AssemblyGame Game(F.Device, F.Kernel, F.Config);
    Rng Walk(Seed);
    Game.reset();
    for (int Step = 0; Step < 24; ++Step) {
      std::vector<uint8_t> Mask = Game.actionMask();
      std::vector<unsigned> LegalActions;
      for (unsigned A = 0; A < Mask.size(); ++A)
        if (Mask[A])
          LegalActions.push_back(A);
      if (LegalActions.empty())
        break;
      unsigned Action =
          LegalActions[Walk.uniformInt(LegalActions.size())];
      AssemblyGame::StepResult R = Game.step(Action);
      ASSERT_FALSE(R.Invalid) << "masked action produced invalid schedule";
      if (R.Done)
        break;
    }
    // Final check: mutated schedule still matches the oracle.
    F.Kernel.randomizeInputs(F.Device, F.DataRng);
    gpusim::RunResult Timed = F.Device.run(Game.current(), F.Kernel.Launch,
                                           gpusim::RunMode::Timed);
    ASSERT_TRUE(Timed.Valid) << Timed.FaultReason;
    std::vector<uint32_t> TimedOut = F.Kernel.readOutput(F.Device);
    gpusim::RunResult Ref = F.Device.run(Game.current(), F.Kernel.Launch,
                                         gpusim::RunMode::Oracle);
    ASSERT_TRUE(Ref.Valid);
    EXPECT_EQ(TimedOut, F.Kernel.readOutput(F.Device))
        << "seed " << Seed << ": masked walk corrupted the kernel";
  }
}

TEST(GameTest, InstructionCountInvariant) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  size_t Before = Game.current().instrCount();
  Game.reset();
  Rng Walk(11);
  for (int Step = 0; Step < 10; ++Step) {
    std::vector<uint8_t> Mask = Game.actionMask();
    std::vector<unsigned> Legal;
    for (unsigned A = 0; A < Mask.size(); ++A)
      if (Mask[A])
        Legal.push_back(A);
    if (Legal.empty())
      break;
    Game.step(Legal[Walk.uniformInt(Legal.size())]);
  }
  EXPECT_EQ(Game.current().instrCount(), Before);
}

TEST(GameTest, UpThenDownReturnsToStart) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Game.reset();
  std::string Start = Game.current().str();
  std::vector<uint8_t> Mask = Game.actionMask();
  // Find a movable instruction whose 'up' is legal; its 'down'
  // afterwards restores the schedule (lingering behaviour, §5.7.2).
  for (unsigned A = 0; A + 1 < Mask.size(); A += 2) {
    if (!Mask[A])
      continue;
    Game.step(A);
    Game.step(A + 1);
    EXPECT_EQ(Game.current().str(), Start);
    return;
  }
  GTEST_SKIP() << "no legal up action";
}

//===----------------------------------------------------------------------===//
// Reward (§3.6, Eq. 3)
//===----------------------------------------------------------------------===//

TEST(GameTest, RewardMatchesEquation3) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Game.reset();
  double T0 = Game.initialTimeUs();
  double TBefore = Game.currentTimeUs();
  std::vector<uint8_t> Mask = Game.actionMask();
  unsigned Action = 0;
  while (!Mask[Action])
    ++Action;
  AssemblyGame::StepResult R = Game.step(Action);
  double TAfter = Game.currentTimeUs();
  EXPECT_NEAR(R.Reward, (TBefore - TAfter) / T0 * 100.0, 1e-9);
}

TEST(GameTest, BestScheduleTracked) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Game.reset();
  Rng Walk(5);
  for (int Step = 0; Step < 20; ++Step) {
    std::vector<uint8_t> Mask = Game.actionMask();
    std::vector<unsigned> Legal;
    for (unsigned A = 0; A < Mask.size(); ++A)
      if (Mask[A])
        Legal.push_back(A);
    if (Legal.empty())
      break;
    Game.step(Legal[Walk.uniformInt(Legal.size())]);
  }
  EXPECT_LE(Game.bestTimeUs(), Game.initialTimeUs() * 1.001);
}

TEST(GameTest, EpisodeEndsAtConfiguredLength) {
  GameFixture F(WorkloadKind::MmLeakyRelu, /*EpisodeLength=*/4);
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Game.reset();
  int Steps = 0;
  for (;; ++Steps) {
    std::vector<uint8_t> Mask = Game.actionMask();
    unsigned Action = 0;
    while (Action < Mask.size() && !Mask[Action])
      ++Action;
    ASSERT_LT(Action, Mask.size());
    if (Game.step(Action).Done)
      break;
  }
  EXPECT_LT(Steps, 4);
}

TEST(GameTest, ResetRestoresOriginal) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  std::string Original = Game.current().str();
  Game.reset();
  std::vector<uint8_t> Mask = Game.actionMask();
  unsigned Action = 0;
  while (!Mask[Action])
    ++Action;
  Game.step(Action);
  EXPECT_NE(Game.current().str(), Original);
  Game.reset();
  EXPECT_EQ(Game.current().str(), Original);
}

TEST(GameTest, TraceRecordsMoves) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Game.reset();
  std::vector<uint8_t> Mask = Game.actionMask();
  unsigned Action = 0;
  while (!Mask[Action])
    ++Action;
  Game.step(Action);
  ASSERT_EQ(Game.trace().size(), 1u);
  EXPECT_FALSE(Game.trace()[0].MovedText.empty());
}

/// §5.7.1 / Figure 9: moving the yield-flagged LDGSTS out of the HMMA
/// reuse pair must be a legal action and improve the runtime.
TEST(GameTest, Figure9MoveIsAvailableAndProfitable) {
  GameFixture F;
  F.Config.CacheMeasurements = false;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Game.reset();

  // Locate the breaker: a yield-flagged LDGSTS directly below an HMMA.
  const sass::Program &P = Game.current();
  size_t BreakerIdx = sass::Program::npos;
  for (size_t I = 1; I < P.size(); ++I) {
    if (!P.stmt(I).isInstr() || !P.stmt(I - 1).isInstr())
      continue;
    if (P.stmt(I).instr().opcode() == sass::Opcode::LDGSTS &&
        P.stmt(I).instr().ctrl().yield() &&
        P.stmt(I - 1).instr().opcode() == sass::Opcode::HMMA) {
      BreakerIdx = I;
      break;
    }
  }
  ASSERT_NE(BreakerIdx, sass::Program::npos)
      << "TritonO3 schedule must contain the Figure 9 artifact";
  // Swapping it below the next HMMA must be legal.
  EXPECT_TRUE(Game.swapLegal(BreakerIdx));
}

//===----------------------------------------------------------------------===//
// Masking ablation
//===----------------------------------------------------------------------===//

TEST(GameTest, UnmaskedWalkEventuallyFails) {
  GameFixture F;
  F.Config.UseActionMasking = false;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Rng Walk(3);
  bool SawInvalid = false;
  for (int Episode = 0; Episode < 4 && !SawInvalid; ++Episode) {
    Game.reset();
    for (int Step = 0; Step < 32; ++Step) {
      unsigned Action =
          static_cast<unsigned>(Walk.uniformInt(Game.actionCount()));
      AssemblyGame::StepResult R = Game.step(Action);
      if (R.Invalid) {
        SawInvalid = true;
        EXPECT_LT(R.Reward, 0.0);
        break;
      }
      if (R.Done)
        break;
    }
  }
  EXPECT_TRUE(SawInvalid)
      << "random unmasked reordering should corrupt the kernel";
}

TEST(GameTest, MeasurementCacheReducesWork) {
  GameFixture F;
  AssemblyGame Game(F.Device, F.Kernel, F.Config);
  Game.reset();
  std::vector<uint8_t> Mask = Game.actionMask();
  unsigned A = 0;
  while (!Mask[A])
    ++A;
  unsigned Before = Game.measurementsTaken();
  Game.step(A);     // New schedule: measured.
  Game.step(A ^ 1); // Back to original: cached.
  unsigned After = Game.measurementsTaken();
  EXPECT_EQ(After - Before,
            F.Config.Measure.WarmupIters + F.Config.Measure.RepeatIters);
}

//===----------------------------------------------------------------------===//
// Stall check after swap (Algorithm 1)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a hand-crafted kernel around a fixed-latency producer A
/// (IMAD, stall `ProducerStall`), the movable LDG directly below it (B,
/// stall 6), and a consumer of A's result directly below B. Swapping A
/// and B removes B's 6-cycle stall from the producer-to-consumer path.
kernels::BuiltKernel craftedStallKernel(gpusim::Gpu &Device,
                                        unsigned ProducerStall) {
  char StallDigit = static_cast<char>('0' + ProducerStall);
  std::string Text;
  Text += "  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;\n";
  Text += "  [B------:R-:W-:-:S04] MOV R3, c[0x0][0x164] ;\n";
  Text += "  [B------:R-:W-:-:S06] MOV R4, 0x9 ;\n";
  Text += "  [B------:R-:W-:-:S06] MOV R5, 0x7 ;\n";
  Text += "  [B------:R-:W-:-:S06] MOV R6, 0x3 ;\n";
  Text += std::string("  [B------:R-:W-:-:S0") + StallDigit +
          "] IMAD R8, R4, R5, R6 ;\n";                       // A (index 5)
  Text += "  [B------:R-:W0:-:S06] LDG.E R10, [R2.64] ;\n";  // B (index 6)
  Text += "  [B------:R-:W-:-:S04] IADD3 R12, R8, 0x1, RZ ;\n"; // uses R8
  Text += "  [B0-----:R-:W-:-:S04] IADD3 R13, R10, RZ, RZ ;\n";
  Text += "  [B------:R-:W-:-:S01] STG.E [R2.64], R12 ;\n";
  Text += "  [B------:R-:W-:-:S01] EXIT ;\n";

  Expected<sass::Program> P = sass::Parser::parseProgram(Text, "crafted");
  if (!P.hasValue()) // gtest reports the throw as a (fatal) test failure.
    throw std::runtime_error("crafted kernel failed to parse: " +
                             P.error().str());

  kernels::BuiltKernel K;
  K.Name = "crafted_stall";
  K.Prog = *P;
  uint64_t Out = Device.globalMemory().allocate(16);
  K.OutAddr = Out;
  K.OutBytes = 8;
  K.Launch.WarpsPerBlock = 1;
  K.Launch.addParam64(Out);
  return K;
}

GameConfig craftedConfig() {
  GameConfig Config;
  // The builtin table makes the required IMAD stall deterministic (5).
  Config.Table = analysis::StallTable::builtin();
  Config.Measure.WarmupIters = 1;
  Config.Measure.RepeatIters = 1;
  Config.Measure.NoiseStddev = 0.0;
  return Config;
}

} // namespace

TEST(GameTest, SwapRejectedWhenOnlyBsStallCoveredTheProducer) {
  // Pre-swap, the IMAD->IADD3 distance is stall(A) + stall(B) = 2 + 6,
  // comfortably over IMAD's required 5. Post-swap, A sits directly above
  // its consumer with only its own stall of 2 — the violation exists
  // *only* because B's stall contribution left the path, which is
  // exactly what Check 1 of stallCheckAfterSwap must detect.
  gpusim::Gpu Device;
  kernels::BuiltKernel K = craftedStallKernel(Device, /*ProducerStall=*/2);
  AssemblyGame Game(Device, K, craftedConfig());
  EXPECT_FALSE(Game.swapLegal(5));
}

TEST(GameTest, SwapAllowedWhenProducerStallAloneSuffices) {
  // Identical schedule except A's own stall already covers the required
  // 5 cycles: removing B's contribution no longer matters, so the same
  // swap must be legal. Together with the test above this pins the
  // post-swap distance computation to "exclude B, keep A".
  gpusim::Gpu Device;
  kernels::BuiltKernel K = craftedStallKernel(Device, /*ProducerStall=*/5);
  AssemblyGame Game(Device, K, craftedConfig());
  EXPECT_TRUE(Game.swapLegal(5));
}

//===----------------------------------------------------------------------===//
// Shared measurement cache across sibling games
//===----------------------------------------------------------------------===//

TEST(GameTest, SharedCacheSkipsSiblingInitialMeasurement) {
  GameFixture F;
  auto Cache = std::make_shared<gpusim::MeasurementCache>(1);
  F.Config.SharedCache = Cache;
  AssemblyGame First(F.Device, F.Kernel, F.Config);
  EXPECT_GT(First.measurementsTaken(), 0u);
  EXPECT_EQ(Cache->misses(), 1u);

  // The sibling plays the same kernel: its initial schedule is already
  // cached, so construction simulates nothing.
  AssemblyGame Second(F.Device, F.Kernel, F.Config);
  EXPECT_EQ(Second.measurementsTaken(), 0u);
  EXPECT_EQ(Cache->misses(), 1u);
  EXPECT_GE(Cache->hits(), 1u);
  EXPECT_EQ(First.initialTimeUs(), Second.initialTimeUs());
}

TEST(GameTest, CachedLatencyInvariantToWhichGameMeasuresFirst) {
  // The noise seed derives from the schedule key, never from arrival
  // order: a schedule's latency is identical whether a game measured
  // it via its private cache or inherited it from a sibling.
  GameFixture F;
  F.Config.Measure.NoiseStddev = 0.003; // Noise on: the hard case.

  AssemblyGame Private(F.Device, F.Kernel, F.Config); // Own cache.
  auto Cache = std::make_shared<gpusim::MeasurementCache>(1);
  F.Config.SharedCache = Cache;
  AssemblyGame SharedA(F.Device, F.Kernel, F.Config);
  AssemblyGame SharedB(F.Device, F.Kernel, F.Config);

  Private.reset();
  SharedA.reset();
  SharedB.reset();
  std::vector<uint8_t> Mask = Private.actionMask();
  unsigned Action = 0;
  while (!Mask[Action])
    ++Action;
  double RPrivate = Private.step(Action).Reward;
  double RSharedA = SharedA.step(Action).Reward;  // Simulates.
  double RSharedB = SharedB.step(Action).Reward;  // Pure cache hit.
  EXPECT_EQ(RPrivate, RSharedA);
  EXPECT_EQ(RSharedA, RSharedB);
}

TEST(GameTest, ConcurrentSiblingGamesMatchSerialRewards) {
  // Two games with private devices and a shared cache, stepped from
  // two threads, must reproduce the serial single-game reward sequence
  // exactly (the engine's worker-count determinism at the env level).
  GameFixture F;
  auto StepGreedyFirstLegal = [](AssemblyGame &Game, unsigned Steps) {
    std::vector<double> Rewards;
    Game.reset();
    for (unsigned I = 0; I < Steps; ++I) {
      std::vector<uint8_t> Mask = Game.actionMask();
      unsigned Action = 0;
      while (Action < Mask.size() && !Mask[Action])
        ++Action;
      if (Action == Mask.size())
        break;
      Rewards.push_back(Game.step(Action).Reward);
    }
    return Rewards;
  };

  AssemblyGame Serial(F.Device, F.Kernel, F.Config);
  std::vector<double> Expected = StepGreedyFirstLegal(Serial, 6);

  auto Cache = std::make_shared<gpusim::MeasurementCache>(1);
  F.Config.SharedCache = Cache;
  F.Config.PrivateDevice = true;
  AssemblyGame GameA(F.Device, F.Kernel, F.Config);
  AssemblyGame GameB(F.Device, F.Kernel, F.Config);

  std::vector<double> RewardsA, RewardsB;
  support::ThreadPool Pool(2);
  Pool.parallelFor(2, [&](size_t I) {
    if (I == 0)
      RewardsA = StepGreedyFirstLegal(GameA, 6);
    else
      RewardsB = StepGreedyFirstLegal(GameB, 6);
  });

  EXPECT_EQ(RewardsA, Expected);
  EXPECT_EQ(RewardsB, Expected);
}

//===----------------------------------------------------------------------===//
// Measurement at the memory fixed point
//===----------------------------------------------------------------------===//

namespace {

/// The §3.6 protocol run for run, as measureKernel ran it before it
/// stopped at the memory fixed point: every warmup in protocol order,
/// every repetition simulated.
gpusim::Measurement protocolMeasure(gpusim::Gpu &Device,
                                    const sass::Program &Prog,
                                    const gpusim::KernelLaunch &Launch,
                                    const gpusim::MeasureConfig &Config) {
  gpusim::Measurement Out;
  Rng Noise(Config.Seed);
  for (unsigned I = 0; I < Config.WarmupIters; ++I) {
    gpusim::RunResult R =
        Device.run(Prog, Launch, gpusim::RunMode::Timed, Config.MaxBlocks);
    if (!R.Valid) {
      Out.Valid = false;
      Out.FaultReason = R.FaultReason;
      return Out;
    }
  }
  double Sum = 0.0, SumSq = 0.0;
  uint64_t CycleSum = 0;
  for (unsigned I = 0; I < Config.RepeatIters; ++I) {
    if (Config.ClearL2BetweenReps)
      Device.clearCaches();
    gpusim::RunResult R =
        Device.run(Prog, Launch, gpusim::RunMode::Timed, Config.MaxBlocks);
    if (!R.Valid) {
      Out.Valid = false;
      Out.FaultReason = R.FaultReason;
      return Out;
    }
    double Jitter = 1.0 + Noise.normal(0.0, Config.NoiseStddev);
    double TimeUs = R.TimeUs * Jitter;
    Sum += TimeUs;
    SumSq += TimeUs * TimeUs;
    CycleSum += R.Cycles;
    Out.Counters = R.Counters;
  }
  unsigned N = Config.RepeatIters;
  Out.MeanUs = Sum / N;
  double Var = SumSq / N - Out.MeanUs * Out.MeanUs;
  Out.StddevUs = Var > 0 ? std::sqrt(Var) : 0.0;
  Out.Cycles = CycleSum / N;
  return Out;
}

uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof B);
  return B;
}

/// Every field the protocol reports, bit for bit.
void expectSameMeasurement(const gpusim::Measurement &Got,
                           const gpusim::Measurement &Want) {
  EXPECT_EQ(Got.Valid, Want.Valid);
  EXPECT_EQ(Got.FaultReason, Want.FaultReason);
  EXPECT_EQ(bitsOf(Got.MeanUs), bitsOf(Want.MeanUs));
  EXPECT_EQ(bitsOf(Got.StddevUs), bitsOf(Want.StddevUs));
  EXPECT_EQ(Got.Cycles, Want.Cycles);
  gpusim::visitCounterFields(
      Got.Counters, Want.Counters,
      [](const char *Name, const uint64_t &A, const uint64_t &B) {
        EXPECT_EQ(A, B) << Name;
      });
}

/// The kernel's input and output buffers as \p Device holds them.
std::vector<uint8_t> kernelBuffers(const gpusim::Gpu &Device,
                                   const BuiltKernel &K) {
  std::vector<std::pair<uint64_t, uint64_t>> Buffers = K.Inputs;
  Buffers.push_back({K.OutAddr, K.OutBytes});
  std::vector<uint8_t> Bytes;
  for (const auto &[Addr, Size] : Buffers) {
    size_t At = Bytes.size();
    Bytes.resize(At + Size);
    Device.globalMemory().read(Addr, Bytes.data() + At, Size);
  }
  return Bytes;
}

/// A seeded walk of up to \p Steps random actions the mask allows,
/// stopping at the end of the episode.
void randomWalk(AssemblyGame &Game, Rng &Walk, int Steps,
                const std::function<void(const AssemblyGame::StepResult &)>
                    &AfterStep = nullptr) {
  for (int Step = 0; Step < Steps; ++Step) {
    std::vector<uint8_t> Mask = Game.actionMask();
    std::vector<unsigned> Allowed;
    for (unsigned A = 0; A < Mask.size(); ++A)
      if (Mask[A])
        Allowed.push_back(A);
    if (Allowed.empty())
      return;
    AssemblyGame::StepResult R =
        Game.step(Allowed[Walk.uniformInt(Allowed.size())]);
    if (AfterStep)
      AfterStep(R);
    if (R.Done)
      return;
  }
}

} // namespace

TEST(MeasureFixedPointTest, MatchesProtocolOnRandomLegalSchedules) {
  // Legal schedules from a masked random walk on every workload kind,
  // measured in sequence on two copies of the kernel's device: one by
  // measureKernel, one by the protocol loop. Every result field and the
  // device buffers must agree after every measurement, for each
  // protocol shape, with and without clearing and the race-free
  // promise (masked play keeps it).
  struct Shape {
    unsigned Warmup, Repeat;
  };
  for (WorkloadKind Kind : kernels::allWorkloads()) {
    SCOPED_TRACE(kernels::workloadName(Kind));
    GameFixture F(Kind);
    F.Config.PrivateDevice = true;
    AssemblyGame Game(F.Device, F.Kernel, F.Config);
    std::vector<sass::Program> Schedules = {Game.current()};
    Rng Walk(31 + static_cast<uint64_t>(Kind));
    randomWalk(Game, Walk, 8, [&](const AssemblyGame::StepResult &R) {
      ASSERT_FALSE(R.Invalid);
      Schedules.push_back(Game.current());
    });
    ASSERT_GT(Schedules.size(), 1u);

    for (Shape P : {Shape{0, 1}, Shape{1, 1}, Shape{2, 3}})
      for (bool Clear : {true, false})
        for (bool RaceFree : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << "warmup=" << P.Warmup << " repeat=" << P.Repeat
                       << " clear=" << Clear << " race-free=" << RaceFree);
          gpusim::MeasureConfig MC;
          MC.WarmupIters = P.Warmup;
          MC.RepeatIters = P.Repeat;
          MC.ClearL2BetweenReps = Clear;
          MC.MaxBlocks = 2;
          gpusim::Gpu Fast(F.Device), Full(F.Device);
          unsigned Simulated = 0, Protocol = 0;
          for (size_t I = 0; I < Schedules.size(); ++I) {
            MC.Seed = 100 + I;
            gpusim::Measurement Got = gpusim::measureKernel(
                Fast, Schedules[I], F.Kernel.Launch, MC, RaceFree);
            gpusim::Measurement Want =
                protocolMeasure(Full, Schedules[I], F.Kernel.Launch, MC);
            expectSameMeasurement(Got, Want);
            ASSERT_EQ(kernelBuffers(Fast, F.Kernel),
                      kernelBuffers(Full, F.Kernel));
            Simulated += Got.SimulatedRuns;
            Protocol += P.Warmup + P.Repeat;
          }
          // Once memory settles, a cleared run stands for the rest of
          // the repetitions, and under the promise for the warmups too.
          if (Clear && ((RaceFree && P.Warmup > 0) || P.Repeat > 1)) {
            EXPECT_LT(Simulated, Protocol);
          } else {
            EXPECT_EQ(Simulated, Protocol);
          }
        }
  }
}

TEST(MeasureFixedPointTest, GamesEqualTheFullProtocol) {
  // A game's reward loop against a replay of the same measurements
  // through the protocol loop on a second device, with the oracle check
  // unmasked play adds. Unmasked play gives no race-free promise and
  // may run racing schedules; masked play gives it. Episodes stop at an
  // invalid step, whose reverted schedule the replay cannot name.
  for (WorkloadKind Kind : kernels::allWorkloads())
    for (bool Masked : {false, true})
      for (unsigned Warmup : {1u, 2u}) {
        SCOPED_TRACE(testing::Message()
                     << kernels::workloadName(Kind) << " masked=" << Masked
                     << " warmup=" << Warmup);
        GameFixture F(Kind);
        F.Config.UseActionMasking = Masked;
        F.Config.CacheMeasurements = false;
        F.Config.Measure = gpusim::MeasureConfig();
        F.Config.Measure.WarmupIters = Warmup;
        F.Config.Measure.RepeatIters = Warmup + 1;
        const unsigned MaxBlocks =
            std::min(F.Device.residentBlocks(F.Kernel.Launch), 2u);
        for (uint64_t Episode = 0; Episode < 3; ++Episode) {
          gpusim::Gpu GameDevice(F.Device), Replay(F.Device);
          auto ReplayMeasure = [&](const sass::Program &P) {
            gpusim::MeasureConfig MC = F.Config.Measure;
            MC.MaxBlocks = MaxBlocks;
            MC.Seed = gpusim::MeasurementCache::deriveSeed(
                F.Config.Measure.Seed,
                gpusim::MeasurementCache::keyFor(P).Check);
            gpusim::Measurement M =
                protocolMeasure(Replay, P, F.Kernel.Launch, MC);
            if (M.Valid && !Masked)
              Replay.run(P, F.Kernel.Launch, gpusim::RunMode::Oracle,
                         MaxBlocks);
            return M.MeanUs;
          };
          AssemblyGame Game(GameDevice, F.Kernel, F.Config);
          EXPECT_EQ(bitsOf(Game.initialTimeUs()),
                    bitsOf(ReplayMeasure(F.Kernel.Prog)));
          Rng Walk(7 * Episode + static_cast<uint64_t>(Kind));
          randomWalk(Game, Walk, 8, [&](const AssemblyGame::StepResult &R) {
            if (R.Invalid)
              return; // Ends the episode.
            EXPECT_EQ(bitsOf(Game.currentTimeUs()),
                      bitsOf(ReplayMeasure(Game.current())));
            EXPECT_EQ(kernelBuffers(GameDevice, F.Kernel),
                      kernelBuffers(Replay, F.Kernel));
          });
          if (Masked) {
            EXPECT_LT(Game.simulatedRuns(), Game.measurementsTaken());
          } else {
            EXPECT_LE(Game.simulatedRuns(), Game.measurementsTaken());
          }
        }
      }
}
