//===- gpusim/Memory.cpp ----------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Memory.h"

#include <cassert>

using namespace cuasmrl;
using namespace cuasmrl::gpusim;

uint64_t GlobalMemory::allocate(uint64_t Bytes) {
  Segment Seg;
  Seg.Base = NextBase;
  Seg.Data.assign(Bytes, 0);
  Segments.push_back(std::move(Seg));
  // 256-byte align the next base so distinct buffers never share a line.
  NextBase += (Bytes + 255) & ~255ull;
  return Segments.back().Base;
}

void GlobalMemory::reset() {
  Segments.clear();
  NextBase = 0x10000000ull;
  Fault = false;
}

GlobalMemory::Segment *GlobalMemory::find(uint64_t Addr, uint64_t Bytes) {
  return const_cast<Segment *>(
      static_cast<const GlobalMemory *>(this)->find(Addr, Bytes));
}

const GlobalMemory::Segment *GlobalMemory::find(uint64_t Addr,
                                                uint64_t Bytes) const {
  auto Holds = [&](const Segment &Seg) {
    return Addr >= Seg.Base && Addr + Bytes <= Seg.Base + Seg.Data.size();
  };
  if (LastSeg < Segments.size() && Holds(Segments[LastSeg]))
    return &Segments[LastSeg];
  for (size_t I = 0; I < Segments.size(); ++I) {
    if (Holds(Segments[I])) {
      LastSeg = I;
      return &Segments[I];
    }
  }
  return nullptr;
}

void GlobalMemory::write(uint64_t Addr, const void *Data, uint64_t Bytes) {
  Segment *Seg = find(Addr, Bytes);
  assert(Seg && "host write outside any allocation");
  std::memcpy(Seg->Data.data() + (Addr - Seg->Base), Data, Bytes);
}

void GlobalMemory::read(uint64_t Addr, void *Data, uint64_t Bytes) const {
  const Segment *Seg = find(Addr, Bytes);
  assert(Seg && "host read outside any allocation");
  std::memcpy(Data, Seg->Data.data() + (Addr - Seg->Base), Bytes);
}

uint32_t GlobalMemory::loadWord(uint64_t Addr) {
  const Segment *Seg = find(Addr, 4);
  if (!Seg) {
    Fault = true;
    return PoisonWord;
  }
  uint32_t Value;
  std::memcpy(&Value, Seg->Data.data() + (Addr - Seg->Base), sizeof(Value));
  return Value;
}

void GlobalMemory::storeWord(uint64_t Addr, uint32_t Value) {
  Segment *Seg = find(Addr, 4);
  if (!Seg) {
    Fault = true;
    return;
  }
  uint8_t *Word = Seg->Data.data() + (Addr - Seg->Base);
  if (std::memcmp(Word, &Value, sizeof(Value)) == 0)
    return;
  std::memcpy(Word, &Value, sizeof(Value));
  ++ChangingStores;
}

uint64_t GlobalMemory::bytesAllocated() const {
  uint64_t Total = 0;
  for (const Segment &Seg : Segments)
    Total += Seg.Data.size();
  return Total;
}

uint32_t SharedMemory::loadWord(uint32_t Addr) {
  if (Addr + 4 > Data.size()) {
    Fault = true;
    return PoisonWord;
  }
  uint32_t Value;
  std::memcpy(&Value, Data.data() + Addr, sizeof(Value));
  return Value;
}

void SharedMemory::storeWord(uint32_t Addr, uint32_t Value) {
  if (Addr + 4 > Data.size()) {
    Fault = true;
    return;
  }
  std::memcpy(Data.data() + Addr, &Value, sizeof(Value));
}
