//===- env/AssemblyGame.cpp --------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "env/AssemblyGame.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace cuasmrl;
using namespace cuasmrl::env;

namespace {

/// Sorted-merge interference test: the def/use caches are kept sorted,
/// so the pair check is O(|A|+|B|) instead of the quadratic
/// all-pairs scan.
bool intersects(const std::vector<sass::Register> &A,
                const std::vector<sass::Register> &B) {
  if (A.empty() || B.empty())
    return false;
  auto IA = A.begin(), IB = B.begin();
  while (IA != A.end() && IB != B.end()) {
    if (*IA < *IB)
      ++IA;
    else if (*IB < *IA)
      ++IB;
    else
      return true;
  }
  return false;
}

bool contains(const std::vector<sass::Register> &Sorted,
              const sass::Register &R) {
  return std::binary_search(Sorted.begin(), Sorted.end(), R);
}

unsigned issueStall(const sass::Instruction &I) {
  return std::max<unsigned>(1, I.ctrl().stall());
}

} // namespace

AssemblyGame::AssemblyGame(gpusim::Gpu &Dev,
                           const kernels::BuiltKernel &K, GameConfig Cfg)
    : OwnedDevice(Cfg.PrivateDevice ? std::make_unique<gpusim::Gpu>(Dev)
                                    : nullptr),
      Device(OwnedDevice ? *OwnedDevice : Dev), Kernel(K),
      Config(std::move(Cfg)), Prog(K.Prog),
      Embed(Config.Context ? Embedding(K.Prog, *Config.Context)
                           : Embedding(K.Prog)),
      Analysis(analysis::analyzeStallCounts(K.Prog, Config.Table)),
      Regions(analysis::computeRegions(K.Prog,
                                       analysis::BoundaryKind::LabelsAndSync)),
      BestProg(K.Prog), TraceEnabled(Config.RecordTrace) {
  if (Config.CacheMeasurements) {
    Cache = Config.SharedCache;
    if (!Cache)
      Cache = std::make_shared<gpusim::MeasurementCache>(Config.Measure.Seed);
  }
  if (Config.Measure.MaxBlocks == 0) {
    // Reward measurements only need *relative* timing: one small block
    // group keeps the inner loop fast even for kernels whose occupancy
    // admits many resident blocks.
    Config.Measure.MaxBlocks =
        std::min(Device.residentBlocks(Kernel.Launch), 2u);
  }
  rebuildCaches();
  T0 = measure();
  assert(!std::isnan(T0) && "initial -O3 schedule must be valid");
  TPrev = T0;
  BestTime = T0;
}

void AssemblyGame::rebuildCaches() {
  Movable.clear();
  Defs.assign(Prog.size(), {});
  Uses.assign(Prog.size(), {});
  RowOf.assign(Prog.size(), static_cast<size_t>(-1));
  size_t Row = 0;
  for (size_t I = 0; I < Prog.size(); ++I) {
    if (!Prog.stmt(I).isInstr())
      continue;
    const sass::Instruction &Instr = Prog.stmt(I).instr();
    Defs[I] = Instr.regDefs();
    Uses[I] = Instr.regUses();
    std::sort(Defs[I].begin(), Defs[I].end());
    std::sort(Uses[I].begin(), Uses[I].end());
    RowOf[I] = Row++;
    // The action space: reorderable memory instructions that survived
    // the denylist (§3.2/§3.5).
    if (Instr.isReorderableMemory() && !Analysis.Denylist.count(I) &&
        Regions.RegionOf[I] != analysis::RegionInfo::kBoundary)
      Movable.push_back(I);
  }
  Decoded = gpusim::DecodedProgram(Prog);
  Hash = gpusim::ScheduleHash(Prog);
  Embed.embedInto(Prog, Obs);
  rebuildMask();
}

std::optional<unsigned>
AssemblyGame::resolveStall(const sass::Instruction &I) const {
  std::optional<std::string> Key = I.latencyKey();
  if (!Key)
    return std::nullopt;
  return Analysis.resolve(Config.Table, *Key);
}

bool AssemblyGame::stallCheckAfterSwap(size_t Upper) const {
  const sass::Instruction &A = Prog.stmt(Upper).instr();

  // Check 1 — A moves *down* to Upper+1, so B's stall no longer sits
  // between A and its consumers (the pre-swap distance shrinks by
  // stall(B)). Rather than subtracting stall(B), the scan computes the
  // post-swap distance directly: it seeds with issueStall(A) and walks
  // from Upper+2, which is exactly the instruction stream below A after
  // the swap — B contributes nothing, by construction. B itself cannot
  // be a consumer of A here: swapLegal already rejected any RAW between
  // the pair. Only fixed-latency producers are protected by stall
  // counts (variable latency uses the scoreboard).
  std::optional<unsigned> NeedA = resolveStall(A);
  if (A.isFixedLatency() && !Defs[Upper].empty() && NeedA) {
    // Unresolvable producer latencies are left to the schedule's own
    // slack, matching the paper's Algorithm 1 (which only guards the
    // moved memory instruction's upward dependencies).
    unsigned Need = *NeedA;
    for (const sass::Register &D : Defs[Upper]) {
      unsigned Accum = issueStall(A);
      for (size_t Q = Upper + 2; Q < Prog.size(); ++Q) {
        if (!Regions.sameRegion(Upper, Q))
          break;
        if (contains(Uses[Q], D)) {
          if (Accum < Need)
            return false;
          break;
        }
        if (contains(Defs[Q], D))
          break; // Redefined before any use.
        Accum += issueStall(Prog.stmt(Q).instr());
      }
    }
  }

  // Check 2 — B moves *up* (Algorithm 1): the distance from each of B's
  // producers shrinks by stall(A).
  for (const sass::Register &U : Uses[Upper + 1]) {
    unsigned Accum = 0;
    for (size_t Q = Upper; Q-- > 0;) {
      if (!Regions.sameRegion(Upper, Q))
        break;
      // Note: A (at Upper) is excluded automatically — it sits below B
      // after the swap; the scan starts at Upper-1.
      Accum += issueStall(Prog.stmt(Q).instr());
      if (!contains(Defs[Q], U))
        continue;
      const sass::Instruction &P = Prog.stmt(Q).instr();
      if (P.isFixedLatency()) {
        std::optional<unsigned> Need = resolveStall(P);
        if (!Need || Accum < *Need)
          return false;
      }
      break; // Nearest definition decides.
    }
  }
  return true;
}

bool AssemblyGame::swapLegal(size_t Upper) const {
  if (Upper + 1 >= Prog.size())
    return false;
  const sass::Statement &SA = Prog.stmt(Upper);
  const sass::Statement &SB = Prog.stmt(Upper + 1);
  if (!SA.isInstr() || !SB.isInstr())
    return false;
  // Labels and barrier/synchronization instructions bound reordering.
  if (!Regions.sameRegion(Upper, Upper + 1))
    return false;

  const sass::Instruction &A = SA.instr();
  const sass::Instruction &B = SB.instr();

  // LDGSTS groups targeting the same shared base must stay in issue
  // order (hardware idiosyncrasy, §3.5).
  if (A.opcode() == sass::Opcode::LDGSTS &&
      B.opcode() == sass::Opcode::LDGSTS && !A.operands().empty() &&
      !B.operands().empty() && A.operands()[0].isMem() &&
      B.operands()[0].isMem() &&
      A.operands()[0].baseReg() == B.operands()[0].baseReg())
    return false;

  // Register dependencies: any RAW/WAR/WAW between the pair.
  if (intersects(Defs[Upper], Uses[Upper + 1]) ||
      intersects(Uses[Upper], Defs[Upper + 1]) ||
      intersects(Defs[Upper], Defs[Upper + 1]))
    return false;

  // Barrier dependencies: neither may wait on a slot the other sets,
  // and two setters of one slot must not reorder (§3.5).
  for (int Slot = 0; Slot < sass::ControlCode::NumBarrierSlots; ++Slot) {
    bool ASets = A.ctrl().setsBarrier(Slot);
    bool BSets = B.ctrl().setsBarrier(Slot);
    if ((ASets && B.ctrl().waitsOn(Slot)) ||
        (A.ctrl().waitsOn(Slot) && BSets) || (ASets && BSets))
      return false;
  }

  return stallCheckAfterSwap(Upper);
}

void AssemblyGame::computeMaskEntry(size_t MovableIdx,
                                    std::vector<uint8_t> &Out) const {
  size_t Stmt = Movable[MovableIdx];
  uint8_t UpLegal = 0, DownLegal = 0;
  if (Config.UseActionMasking) {
    UpLegal = Stmt > 0 && swapLegal(Stmt - 1);
    DownLegal = swapLegal(Stmt);
  } else {
    // Masking disabled (ablation): only structural feasibility — both
    // neighbors must be instructions. Semantic violations then surface
    // as corrupted outputs at measurement time.
    UpLegal = Stmt > 0 && Prog.stmt(Stmt - 1).isInstr();
    DownLegal = Stmt + 1 < Prog.size() && Prog.stmt(Stmt + 1).isInstr();
  }
  Out[2 * MovableIdx] = UpLegal;
  Out[2 * MovableIdx + 1] = DownLegal;
}

void AssemblyGame::rebuildMask() {
  Mask.assign(actionCount(), 0);
  for (size_t M = 0; M < Movable.size(); ++M)
    computeMaskEntry(M, Mask);
}

void AssemblyGame::updateMaskAfterSwap(size_t Upper) {
  if (!Config.UseActionMasking) {
    // The structural mask depends only on the label/instruction position
    // pattern (swap-invariant) and each movable's own position — only
    // the two statements that moved can change their entries.
    for (size_t M = 0; M < Movable.size(); ++M)
      if (Movable[M] == Upper || Movable[M] == Upper + 1)
        computeMaskEntry(M, Mask);
    return;
  }
  // Every quantity swapLegal() reads is either pair-local (registers,
  // control bits, LDGSTS bases of the two statements) or confined to
  // the pair's reorder region (the Algorithm 1 stall scans, which break
  // at region boundaries). A swap inside region R therefore cannot
  // change the legality of any pair outside R: re-evaluate exactly the
  // movable pairs living in R.
  int Region = Regions.RegionOf[Upper];
  for (size_t M = 0; M < Movable.size(); ++M)
    if (Regions.RegionOf[Movable[M]] == Region)
      computeMaskEntry(M, Mask);
}

void AssemblyGame::applySwap(size_t Upper) {
  Prog.swap(Upper, Upper + 1);
  std::swap(Defs[Upper], Defs[Upper + 1]);
  std::swap(Uses[Upper], Uses[Upper + 1]);
  for (size_t &M : Movable) {
    if (M == Upper)
      M = Upper + 1;
    else if (M == Upper + 1)
      M = Upper;
  }
  Decoded.swap(Upper);
  Hash.swap(Upper);
  // Adjacent instruction statements occupy adjacent observation rows
  // (no label can sit between them), and positions keep their row
  // numbers — only the contents trade places.
  Embed.swapAdjacentRows(Obs, RowOf[Upper]);
  updateMaskAfterSwap(Upper);
}

std::vector<uint8_t> AssemblyGame::actionMask() const { return Mask; }

std::vector<uint8_t> AssemblyGame::actionMaskFresh() const {
  std::vector<uint8_t> Fresh(actionCount(), 0);
  for (size_t M = 0; M < Movable.size(); ++M)
    computeMaskEntry(M, Fresh);
  return Fresh;
}

bool AssemblyGame::allMasked() const {
  return std::none_of(Mask.begin(), Mask.end(),
                      [](uint8_t M) { return M != 0; });
}

double AssemblyGame::simulateCurrent(uint64_t NoiseSeed) {
  gpusim::MeasureConfig MC = Config.Measure;
  MC.Seed = NoiseSeed;
  gpusim::Measurement M = measureKernel(Device, Prog, Decoded, Kernel.Launch,
                                        MC, Config.UseActionMasking);
  Measurements += MC.WarmupIters + MC.RepeatIters;
  SimulatedRuns += M.SimulatedRuns;
  SimCounters += M.Counters;
  if (!M.Valid)
    return std::nan("");

  if (!Config.UseActionMasking) {
    // No masking: catch silent corruption by comparing the timed output
    // against the architectural oracle on the same block subset
    // (probabilistic testing in the reward loop).
    std::vector<uint32_t> Timed = Kernel.readOutput(Device);
    gpusim::RunResult Ref = Device.run(Prog, Decoded, Kernel.Launch,
                                       gpusim::RunMode::Oracle,
                                       MC.MaxBlocks);
    if (!Ref.Valid)
      return std::nan("");
    std::vector<uint32_t> Oracle = Kernel.readOutput(Device);
    if (Timed != Oracle)
      return std::nan("");
  }
  return M.MeanUs;
}

double AssemblyGame::measure() {
  // O(1): the key is maintained across swaps, never recomputed from the
  // program text.
  gpusim::MeasurementCache::ScheduleKey Key = Hash.key();
  if (Cache)
    return Cache->measureOrCompute(
        Key, [this](uint64_t NoiseSeed) { return simulateCurrent(NoiseSeed); });
  // Cacheless (ablation) path: same order-invariant noise seeding (the
  // Check hash, matching every cached path) so a schedule's measured
  // latency never depends on visit order or on caching being enabled.
  return simulateCurrent(
      gpusim::MeasurementCache::deriveSeed(Config.Measure.Seed, Key.Check));
}

std::vector<float> AssemblyGame::reset() {
  for (auto It = EpisodeSwaps.rbegin(); It != EpisodeSwaps.rend(); ++It)
    applySwap(*It);
  EpisodeSwaps.clear();
  TPrev = T0;
  StepsTaken = 0;
  Trace.clear();
  return Obs;
}

AssemblyGame::StepResult AssemblyGame::step(unsigned Action) {
  assert(Action < actionCount() && "action out of range");
  StepResult Res;
  ++StepsTaken;

  size_t MovIdx = Action / 2;
  bool Up = Action % 2 == 0;
  size_t Stmt = Movable[MovIdx];
  size_t Upper = Up ? Stmt - 1 : Stmt;
  bool StructurallyPossible =
      (!Up || Stmt > 0) && Upper + 1 < Prog.size() &&
      Prog.stmt(Upper).isInstr() && Prog.stmt(Upper + 1).isInstr();

  if (Config.UseActionMasking && !Mask[Action]) {
    // Masked actions carry ~zero probability; a defensive no-op keeps
    // the environment consistent if one is forced through. (The cached
    // mask entry equals swapLegal() by the incremental-maintenance
    // invariant, so no legality sweep happens here.)
    Res.Observation = Obs;
    Res.Done = StepsTaken >= Config.EpisodeLength || allMasked();
    return Res;
  }
  if (!StructurallyPossible) {
    Res.Observation = Obs;
    Res.Reward = Config.InvalidPenalty;
    Res.Invalid = true;
    Res.Done = true;
    return Res;
  }

  // Apply the swap (the environment transition, Figure 3) — O(affected
  // window) across program, decoded image, hash, observation and mask.
  applySwap(Upper);

  double T = measure();
  if (std::isnan(T)) {
    // Invalid schedule executed (only reachable without masking):
    // penalize, revert, terminate. applySwap is an involution, so the
    // same call restores every incremental structure.
    applySwap(Upper);
    Res.Observation = Obs;
    Res.Reward = Config.InvalidPenalty;
    Res.Invalid = true;
    Res.Done = true;
    return Res;
  }

  EpisodeSwaps.push_back(Upper);

  // Eq. 3.
  Res.Reward = (TPrev - T) / T0 * 100.0;
  TPrev = T;
  if (T < BestTime) {
    BestTime = T;
    BestProg = Prog;
  }

  if (TraceEnabled) {
    AppliedAction AA;
    AA.StmtIndex = Up ? Upper : Upper + 1;
    AA.Up = Up;
    AA.Reward = Res.Reward;
    AA.MovedText = Prog.stmt(Up ? Upper : Upper + 1).instr().str();
    AA.OtherText = Prog.stmt(Up ? Upper + 1 : Upper).instr().str();
    Trace.push_back(std::move(AA));
  }

  Res.Observation = Obs;
  Res.Done = StepsTaken >= Config.EpisodeLength || allMasked();
  return Res;
}
