//===- gpusim/Memory.h - Functional memory spaces --------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The functional (value-carrying) memory spaces of the simulated GPU:
/// a segmented 64-bit global address space, per-block shared memory and
/// the kernel-parameter constant bank. Out-of-segment accesses set a
/// fault flag and return a poison pattern instead of aborting — invalid
/// schedules must *measurably corrupt* results (that is what the paper's
/// probabilistic testing detects), not crash the host.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_MEMORY_H
#define CUASMRL_GPUSIM_MEMORY_H

#include <cstdint>
#include <cstring>
#include <vector>

namespace cuasmrl {
namespace gpusim {

/// Poison value returned by faulting reads.
constexpr uint32_t PoisonWord = 0xdeadbeefu;

/// Segmented global memory. Buffers are allocated at 256-byte aligned
/// addresses in a flat 64-bit space starting at 0x1000'0000.
class GlobalMemory {
public:
  /// Allocates \p Bytes and returns the device address.
  uint64_t allocate(uint64_t Bytes);

  /// Releases every allocation (used between measurement reps only to
  /// reset fault state; contents persist across kernel launches).
  void reset();

  /// \name Typed host access
  /// @{
  void write(uint64_t Addr, const void *Data, uint64_t Bytes);
  void read(uint64_t Addr, void *Data, uint64_t Bytes) const;

  template <typename T> void writeValue(uint64_t Addr, T Value) {
    write(Addr, &Value, sizeof(T));
  }
  template <typename T> T readValue(uint64_t Addr) const {
    T Value{};
    read(Addr, &Value, sizeof(T));
    return Value;
  }
  /// @}

  /// Device-side 32-bit word access with fault tracking.
  uint32_t loadWord(uint64_t Addr);
  void storeWord(uint64_t Addr, uint32_t Value);

  /// Device stores so far that changed the word they wrote (a store of
  /// the value already there does not count). A run that leaves this
  /// unchanged left every word as it found it.
  uint64_t changingStores() const { return ChangingStores; }

  bool faulted() const { return Fault; }
  void clearFault() { Fault = false; }

  /// Total bytes allocated.
  uint64_t bytesAllocated() const;

private:
  struct Segment {
    uint64_t Base;
    std::vector<uint8_t> Data;
  };
  Segment *find(uint64_t Addr, uint64_t Bytes);
  const Segment *find(uint64_t Addr, uint64_t Bytes) const;

  std::vector<Segment> Segments;
  /// Most-recently-hit segment: device word accesses stream through one
  /// buffer at a time, so checking it first makes find() O(1) on the
  /// simulator's load/store path.
  mutable size_t LastSeg = 0;
  uint64_t NextBase = 0x10000000ull;
  uint64_t ChangingStores = 0;
  bool Fault = false;
};

/// Per-block shared memory (byte-addressable scratchpad).
class SharedMemory {
public:
  explicit SharedMemory(uint32_t Bytes = 0) : Data(Bytes, 0) {}

  void resize(uint32_t Bytes) { Data.assign(Bytes, 0); }
  uint32_t size() const { return static_cast<uint32_t>(Data.size()); }

  uint32_t loadWord(uint32_t Addr);
  void storeWord(uint32_t Addr, uint32_t Value);

  bool faulted() const { return Fault; }
  void clearFault() { Fault = false; }

private:
  std::vector<uint8_t> Data;
  bool Fault = false;
};

/// The kernel-parameter constant bank (bank 0). Parameters live at the
/// conventional 0x160 offset, matching the `c[0x0][0x160]` spellings in
/// real Ampere SASS.
class ConstantBank {
public:
  static constexpr uint32_t ParamBase = 0x160;

  void setParams(const std::vector<uint8_t> &Params) { Data = Params; }

  /// Reads a 32-bit word at bank offset \p Offset (absolute, i.e.
  /// already including ParamBase).
  uint32_t loadWord(uint32_t Offset) const {
    if (Offset < ParamBase)
      return 0;
    uint32_t Rel = Offset - ParamBase;
    if (Rel + 4 > Data.size())
      return 0;
    uint32_t Value;
    std::memcpy(&Value, Data.data() + Rel, sizeof(Value));
    return Value;
  }

private:
  std::vector<uint8_t> Data;
};

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_MEMORY_H
