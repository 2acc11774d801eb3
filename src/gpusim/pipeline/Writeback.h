//===- gpusim/pipeline/Writeback.h - Writeback / event-commit stage ----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 5 of the timed pipeline: everything that completes *later*
/// than the issue cycle.
///
///  - `EventQueue`: the completion-event min-heap. Events fire for
///    every variable-latency instruction; a std::priority_queue would
///    copy each popped event (and heap-allocate its Writes vector anew
///    each push), so the queue moves events in and out manually and
///    recycles drained write buffers through a pool. Heap order
///    compares Cycle only — *same-cycle events fire in push order*,
///    which is part of the machine's bit-identity surface.
///  - `commitReadyEvents`: drains due events into warp state (deferred
///    register writes at their write-back time, scoreboard decrements,
///    block-barrier releases).
///  - `MemPipe`: the LSU / cache / DRAM latency model that assigns each
///    memory instruction its completion cycle, including LSU occupancy
///    and DRAM bandwidth backpressure.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_PIPELINE_WRITEBACK_H
#define CUASMRL_GPUSIM_PIPELINE_WRITEBACK_H

#include "gpusim/Cache.h"
#include "gpusim/GpuSpec.h"
#include "gpusim/PerfCounters.h"
#include "gpusim/pipeline/SimState.h"
#include "sass/Opcode.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace cuasmrl {
namespace gpusim {

/// One deferred completion: scoreboard release, block-barrier release
/// and/or a batch of register writes, at a future cycle.
struct Event {
  uint64_t Cycle;
  int Warp;           ///< Warp whose state changes (-1: none).
  int ReleaseSlot;    ///< Scoreboard slot to decrement (-1: none).
  int ReleaseBlock;   ///< Block barrier to release (-1: none).
  std::vector<DeferredWrite> Writes;
};

/// Completion-event min-heap with write-buffer recycling.
class EventQueue {
public:
  static bool eventAfter(const Event &A, const Event &B) {
    return A.Cycle > B.Cycle;
  }

  bool empty() const { return Events.empty(); }
  const Event &front() const { return Events.front(); }

  void push(Event &&E) {
    Events.push_back(std::move(E));
    std::push_heap(Events.begin(), Events.end(), eventAfter);
  }
  Event pop() {
    std::pop_heap(Events.begin(), Events.end(), eventAfter);
    Event E = std::move(Events.back());
    Events.pop_back();
    return E;
  }

  std::vector<DeferredWrite> takeWriteBuf() {
    if (WriteBufPool.empty())
      return {};
    std::vector<DeferredWrite> Buf = std::move(WriteBufPool.back());
    WriteBufPool.pop_back();
    return Buf;
  }
  void recycleWriteBuf(std::vector<DeferredWrite> &&Buf) {
    if (Buf.capacity() == 0)
      return;
    Buf.clear();
    WriteBufPool.push_back(std::move(Buf));
  }

  /// Drops pending events (capacity retained). The write-buffer pool
  /// survives — pooled buffers only carry capacity, never values, so
  /// keeping them across runs is behaviorally invisible.
  void reset() { Events.clear(); }

private:
  std::vector<Event> Events; ///< Min-heap ordered by eventAfter().
  std::vector<std::vector<DeferredWrite>> WriteBufPool;
};

/// Out-of-line drain loop behind commitReadyEvents() — call that
/// instead.
void commitReadyEventsSlow(EventQueue &Q, std::vector<WarpSimState> &Warps,
                           uint64_t Now, PerfCounters &C);

/// Commits every event due at or before \p Now: block-barrier
/// releases, scoreboard decrements, and deferred register writes (which
/// land with write-back-time semantics at the event's cycle). Inline
/// no-op check: the main loop calls this every cycle and most cycles
/// have nothing due.
inline void commitReadyEvents(EventQueue &Q, std::vector<WarpSimState> &Warps,
                              uint64_t Now, PerfCounters &C) {
  if (Q.empty() || Q.front().Cycle > Now)
    return;
  commitReadyEventsSlow(Q, Warps, Now, C);
}

/// If every live warp of \p Block is waiting at the barrier, enqueues
/// the release event \p BarrierLatency cycles out. Called by the issue
/// path whenever a warp arrives at a block barrier.
void scheduleBarrierRelease(EventQueue &Q,
                            const std::vector<WarpSimState> &Warps,
                            unsigned Block, uint64_t Now,
                            uint64_t BarrierLatency);

/// The LSU / cache / DRAM latency model. Owns the bandwidth-occupancy
/// state (LSU free time, DRAM free time, busy accumulation) for one
/// machine; cache state lives on the device and is only *referenced*
/// here.
struct MemPipe {
  Cache &L1;
  Cache &L2;
  const GpuSpec &Spec;

  uint64_t LsuFree = 0;
  double DramFree = 0.0;
  double MemBusyAccum = 0.0;

  /// Resets the per-group occupancy state (cache contents persist on
  /// the device across groups, like the hardware).
  void resetGroup() {
    LsuFree = 0;
    DramFree = 0.0;
  }

  /// Completion cycle for a variable-latency instruction with the given
  /// memory footprint: coalesced global traffic through L1/L2/DRAM with
  /// bandwidth backpressure, shared-memory accesses through the LSU,
  /// constant loads, or the generic 20-cycle pipe for non-memory
  /// variable latency (MUFU, S2R, SHFL, conversions).
  uint64_t completion(sass::Opcode Op, bool BypassL1, uint64_t Now,
                      double UniqueDramFraction, uint64_t GlobalWords,
                      uint64_t GlobalMinAddr, uint64_t SharedWords,
                      uint64_t ConstWords, PerfCounters &C);
};

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_PIPELINE_WRITEBACK_H
