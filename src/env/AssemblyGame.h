//===- env/AssemblyGame.h - The paper's assembly game (§3.3-3.6) ------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The iterative environment the RL agent plays: the state is the
/// embedded SASS schedule, an action picks one *memory* instruction and
/// swaps it with the statement above or below (§3.5), the mutated
/// schedule is assembled and executed on the (simulated) GPU, and the
/// relative runtime change is the reward (§3.6, Eq. 3):
///
///     R_i = (T_{i-1} - T_i) / T_0 * 100
///
/// Action masking guarantees mutated schedules stay semantically valid:
/// register dependencies, read/write-barrier dependencies, stall-count
/// dependencies (Algorithm 1, resolved through the stall table and the
/// inference pass), the LDGSTS ordering idiosyncrasy, label/sync
/// boundaries and the denylist. The interface follows the standardized
/// Gym shape (reset / step / action mask) so alternative search
/// algorithms plug in directly (§3.7).
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_ENV_ASSEMBLYGAME_H
#define CUASMRL_ENV_ASSEMBLYGAME_H

#include "analysis/StallAnalysis.h"
#include "env/Embedding.h"
#include "gpusim/Measurement.h"
#include "kernels/Builder.h"

#include <memory>
#include <optional>

namespace cuasmrl {
namespace env {

/// Environment configuration.
struct GameConfig {
  /// Episode length (paper §5.7.2: 32 by default).
  unsigned EpisodeLength = 32;
  /// Runtime measurement settings for the reward signal.
  gpusim::MeasureConfig Measure;
  /// Stall-count knowledge for Algorithm 1. Defaults to the
  /// microbench-extended table (§3.2's automatic look-up table); pass
  /// StallTable::builtin() to restrict to the paper's Table 1.
  analysis::StallTable Table = analysis::StallTable::extended();
  /// Ablation: disable masking (invalid schedules then surface as
  /// faults/corruption and terminate the episode with a penalty).
  /// Masked play only reaches race-free schedules, which lets each
  /// measurement skip its warmups at the memory fixed point
  /// (gpusim::measureKernel); unmasked play keeps protocol-order
  /// warmups.
  bool UseActionMasking = true;
  /// Penalty reward for executing an invalid schedule (unmasked mode).
  double InvalidPenalty = -10.0;
  /// Memoize measurements by schedule identity (revisited states are
  /// frequent: the paper observes "lingering" agents, §5.7.2).
  bool CacheMeasurements = true;
  /// Record the §5.7 move-discovery trace (AppliedAction entries with
  /// rendered instruction text). Rendering costs two string
  /// constructions per accepted step; rollout loops that never read the
  /// trace should disable it (see also setTraceRecording()).
  bool RecordTrace = true;
  /// Schedule->latency cache shared with sibling games of the same
  /// kernel (parallel rollouts). Null + CacheMeasurements: the game
  /// creates a private cache. Cached values are interleaving-invariant
  /// (the noise seed derives from the schedule key), so sharing never
  /// perturbs determinism.
  std::shared_ptr<gpusim::MeasurementCache> SharedCache;
  /// Run on a private copy of the device taken at construction.
  /// Required whenever sibling games step concurrently: the simulator
  /// mutates global memory and cache state, so concurrent games must
  /// not share one Gpu.
  bool PrivateDevice = false;
  /// Workload conditioning for the generalist policy: when set, the
  /// observation rows carry the context block (and shared operand-slot
  /// padding) of a conditioned env::Embedding, so one network can be
  /// trained across kernels and shapes. Runtime wiring the optimizer
  /// controls per workload (like SharedCache/PrivateDevice): the
  /// conditioning values derive from the request itself, so this field
  /// does not participate in the serving layer's config digest.
  std::optional<WorkloadContext> Context;
};

/// One applied (accepted) action, for the §5.7 move-discovery traces.
struct AppliedAction {
  size_t StmtIndex;   ///< Statement index of the moved instruction.
  bool Up;            ///< Direction.
  double Reward;
  std::string MovedText; ///< The memory instruction that moved.
  std::string OtherText; ///< The instruction it swapped with.
};

/// The assembly game.
///
/// Thread-safety: one AssemblyGame may be driven by one thread at a
/// time. Sibling games can run concurrently when each has its own
/// device (GameConfig::PrivateDevice) — the only cross-game state is
/// the shared MeasurementCache, which is thread-safe.
class AssemblyGame {
public:
  /// \p Kernel supplies the -O3 schedule, launch geometry and buffers;
  /// the game owns a mutable copy of the schedule (and, when
  /// Config.PrivateDevice is set, a copy of \p Device).
  AssemblyGame(gpusim::Gpu &Device, const kernels::BuiltKernel &Kernel,
               GameConfig Config = GameConfig());

  /// \name Gym-style interface
  /// @{
  struct StepResult {
    std::vector<float> Observation;
    double Reward = 0.0;
    bool Done = false;
    bool Invalid = false; ///< Unmasked invalid schedule was executed.
  };

  /// Restores the -O3 schedule by undoing the episode's swaps, newest
  /// first (applySwap is an involution), so the cost is that of the
  /// episode's steps, not of the program.
  std::vector<float> reset();
  StepResult step(unsigned Action);

  /// 2 * movable-instruction count; action 2k moves instruction k up,
  /// 2k+1 moves it down.
  unsigned actionCount() const {
    return static_cast<unsigned>(2 * Movable.size());
  }
  /// Legality of every action under the current schedule (§3.5).
  ///
  /// Returns the *incrementally maintained* mask: after a swap at
  /// position U only the movable pairs whose region-bounded stall scans
  /// can overlap the swap window (= the pairs in U's reorder region)
  /// are re-evaluated, so a step costs O(affected region), not
  /// O(program), and repeated calls between steps are O(actions) reads.
  /// Callers must not assume a call recomputes legality from scratch;
  /// the cached mask is always bit-identical to actionMaskFresh()
  /// (pinned by differential tests).
  std::vector<uint8_t> actionMask() const;
  /// From-scratch O(program) legality sweep. Reference implementation
  /// for differential tests and benchmarks; the environment itself
  /// never calls it after construction.
  std::vector<uint8_t> actionMaskFresh() const;
  /// True when every action is masked (episode terminates immediately).
  bool allMasked() const;

  size_t obsRows() const { return Embed.rows(); }
  size_t obsFeatures() const { return Embed.features(); }
  /// @}

  /// \name Results
  /// @{
  const sass::Program &current() const { return Prog; }
  const sass::Program &best() const { return BestProg; }
  double initialTimeUs() const { return T0; }
  double bestTimeUs() const { return BestTime; }
  double currentTimeUs() const { return TPrev; }
  const std::vector<AppliedAction> &trace() const { return Trace; }
  const analysis::StallAnalysis &stallAnalysis() const { return Analysis; }
  /// Kernel executions the §3.6 protocol prescribes for every
  /// measurement this game ran itself (WarmupIters + RepeatIters each):
  /// the §7 cost model.
  unsigned measurementsTaken() const { return Measurements; }
  /// Timed runs those measurements actually simulated (fewer than
  /// measurementsTaken() once runs reach the memory fixed point).
  unsigned simulatedRuns() const { return SimulatedRuns; }
  /// Simulator pipeline counters summed over every measurement this
  /// game ran itself (last-rep counters per measurement, cache hits
  /// excluded). Which sibling runs a shared-cache measurement is an
  /// implementation detail of the collection order, so per-game totals
  /// are not order-invariant — sum over all sibling games (as the
  /// optimizer's RolloutCounters does) for a stable aggregate.
  const gpusim::PerfCounters &simCounters() const { return SimCounters; }
  /// The schedule->latency cache in use (null when caching is off).
  const gpusim::MeasurementCache *measurementCache() const {
    return Cache.get();
  }
  /// @}

  /// \name Incremental-state inspection (tests, benchmarks)
  /// @{
  /// The O(1)-per-swap schedule key the reward loop uses; always equal
  /// to MeasurementCache::keyFor(current()).
  gpusim::MeasurementCache::ScheduleKey scheduleKey() const {
    return Hash.key();
  }
  /// The swap-maintained pre-decoded kernel image; always equal to a
  /// full redecode of current().
  const gpusim::DecodedProgram &decoded() const { return Decoded; }
  /// @}

  /// Toggles §5.7 trace recording at runtime (overrides
  /// GameConfig::RecordTrace); train with it off, replay with it on.
  void setTraceRecording(bool Enabled) { TraceEnabled = Enabled; }

  /// Checks whether swapping statements \p Upper and \p Upper+1 is legal
  /// under the §3.5 rules (exposed for tests and search baselines).
  bool swapLegal(size_t Upper) const;

private:
  double measure();
  double simulateCurrent(uint64_t NoiseSeed);
  void rebuildCaches();
  void rebuildMask();
  void computeMaskEntry(size_t MovableIdx, std::vector<uint8_t> &Out) const;
  void updateMaskAfterSwap(size_t Upper);
  /// Applies (or, called again, reverts) the swap at \p Upper across
  /// every incrementally-maintained structure.
  void applySwap(size_t Upper);
  bool stallCheckAfterSwap(size_t Upper) const;
  std::optional<unsigned> resolveStall(const sass::Instruction &I) const;

  std::unique_ptr<gpusim::Gpu> OwnedDevice; ///< Set with PrivateDevice.
  gpusim::Gpu &Device;
  kernels::BuiltKernel Kernel;
  GameConfig Config;

  sass::Program Prog;
  Embedding Embed;
  analysis::StallAnalysis Analysis;
  analysis::RegionInfo Regions;

  /// Statement indices of movable memory instructions (§3.2 pass),
  /// dynamically updated after every swap.
  std::vector<size_t> Movable;
  /// Per-statement def/use caches (sorted register lists, so pair
  /// interference checks merge in O(|A|+|B|)), swapped along.
  std::vector<std::vector<sass::Register>> Defs, Uses;

  /// \name Incrementally-maintained per-step state
  /// All four are updated in O(affected window) by applySwap() and are
  /// always bit-identical to their from-scratch recomputation.
  /// @{
  gpusim::DecodedProgram Decoded; ///< Execution-ready kernel image.
  gpusim::ScheduleHash Hash;      ///< Measurement-cache schedule key.
  std::vector<uint8_t> Mask;      ///< Cached action mask.
  std::vector<float> Obs;         ///< Cached observation matrix.
  std::vector<size_t> RowOf;      ///< Statement index -> observation row.
  /// @}
  /// The swaps this episode applied, oldest first; reset() undoes them.
  std::vector<size_t> EpisodeSwaps;

  double T0 = 0.0;
  double TPrev = 0.0;
  double BestTime = 0.0;
  sass::Program BestProg;
  unsigned StepsTaken = 0;
  unsigned Measurements = 0;
  unsigned SimulatedRuns = 0;
  gpusim::PerfCounters SimCounters;
  bool TraceEnabled = true;
  std::vector<AppliedAction> Trace;
  std::shared_ptr<gpusim::MeasurementCache> Cache;
};

} // namespace env
} // namespace cuasmrl

#endif // CUASMRL_ENV_ASSEMBLYGAME_H
