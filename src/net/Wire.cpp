//===- net/Wire.cpp -------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include "kernels/Workload.h"

#include <cstring>
#include <type_traits>

using namespace cuasmrl;
using namespace cuasmrl::net;

namespace {

//===----------------------------------------------------------------------===//
// Little-endian primitives
//===----------------------------------------------------------------------===//

void putU8(std::vector<uint8_t> &Out, uint8_t V) { Out.push_back(V); }

void putU16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Out.push_back(static_cast<uint8_t>(V >> Shift));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Out.push_back(static_cast<uint8_t>(V >> Shift));
}

/// Doubles travel as their IEEE-754 bit pattern: exact round-trip, no
/// decimal formatting anywhere near the determinism contract.
void putDouble(std::vector<uint8_t> &Out, double V) {
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(V), "double is not 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

void putBool(std::vector<uint8_t> &Out, bool V) {
  putU8(Out, V ? 1 : 0);
}

void putString(std::vector<uint8_t> &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

void putBytes(std::vector<uint8_t> &Out, const std::vector<uint8_t> &B) {
  putU32(Out, static_cast<uint32_t>(B.size()));
  Out.insert(Out.end(), B.begin(), B.end());
}

/// Strict sequential reader over one payload. The first failed read
/// latches an error; every later read returns a harmless default so
/// decoders can run straight-line and check once. atEnd() makes
/// trailing garbage an error too.
class Cursor {
public:
  Cursor(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  uint8_t u8() {
    uint8_t V = 0;
    take(&V, 1, "u8");
    return V;
  }
  uint16_t u16() {
    uint8_t B[2] = {0, 0};
    take(B, 2, "u16");
    return static_cast<uint16_t>(B[0] | (B[1] << 8));
  }
  uint32_t u32() {
    uint8_t B[4] = {0, 0, 0, 0};
    take(B, 4, "u32");
    uint32_t V = 0;
    for (int I = 3; I >= 0; --I)
      V = (V << 8) | B[I];
    return V;
  }
  uint64_t u64() {
    uint8_t B[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    take(B, 8, "u64");
    uint64_t V = 0;
    for (int I = 7; I >= 0; --I)
      V = (V << 8) | B[I];
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V = 0.0;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  bool boolean() {
    uint8_t V = u8();
    if (V > 1)
      fail("boolean byte out of range");
    return V == 1;
  }
  std::string str() {
    uint32_t Len = u32();
    if (!ok())
      return std::string();
    if (Len > Size - Pos) {
      fail("string length exceeds payload");
      return std::string();
    }
    std::string S(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return S;
  }
  std::vector<uint8_t> bytes() {
    uint32_t Len = u32();
    if (!ok())
      return {};
    if (Len > Size - Pos) {
      fail("byte-array length exceeds payload");
      return {};
    }
    std::vector<uint8_t> B(Data + Pos, Data + Pos + Len);
    Pos += Len;
    return B;
  }

  void fail(const std::string &Why) {
    if (Err.empty())
      Err = Why;
  }

  /// Every decoded payload must consume exactly its frame's bytes.
  void atEnd() {
    if (ok() && Pos != Size)
      fail("trailing bytes after payload");
  }

private:
  void take(uint8_t *Out, size_t N, const char *What) {
    if (!ok())
      return;
    if (N > Size - Pos) {
      fail(std::string("truncated ") + What);
      return;
    }
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  std::string Err;
};

//===----------------------------------------------------------------------===//
// Config block: the result-relevant field list (core::visitResultFields)
// that the request key digests — the wire-carried config must decode to
// the same request key the client computed. Unsigned fields travel as
// u32, 64-bit ones (uint64_t, size_t) as u64.
//===----------------------------------------------------------------------===//

void putConfig(std::vector<uint8_t> &Out, const core::OptimizeConfig &C) {
  core::visitResultFields(C, [&Out](const auto &V) {
    using T = std::decay_t<decltype(V)>;
    if constexpr (std::is_same_v<T, analysis::StallTable>) {
      const auto &Entries = V.entries();
      putU32(Out, static_cast<uint32_t>(Entries.size()));
      for (const auto &[Key, Cycles] : Entries) {
        putString(Out, Key);
        putU32(Out, Cycles);
      }
    } else if constexpr (std::is_same_v<T, double>) {
      putDouble(Out, V);
    } else if constexpr (std::is_same_v<T, bool>) {
      putBool(Out, V);
    } else if constexpr (std::is_same_v<T, unsigned>) {
      putU32(Out, V);
    } else {
      static_assert(std::is_unsigned_v<T> && sizeof(T) == 8,
                    "unhandled config field type");
      putU64(Out, V);
    }
  });
}

core::OptimizeConfig takeConfig(Cursor &C) {
  // Wall-clock-only knobs (RolloutWorkers, AutotuneWorkers) and runtime
  // wiring (SharedCache, PrivateDevice, Context) keep their server-side
  // defaults: the client has no say over how the server spends its
  // threads.
  core::OptimizeConfig Cfg;
  core::visitResultFields(Cfg, [&C](auto &V) {
    using T = std::decay_t<decltype(V)>;
    if constexpr (std::is_same_v<T, analysis::StallTable>) {
      uint32_t TableCount = C.u32();
      V = analysis::StallTable::empty();
      for (uint32_t I = 0; I < TableCount && C.ok(); ++I) {
        std::string Key = C.str();
        uint32_t Cycles = C.u32();
        V.record(Key, Cycles);
      }
    } else if constexpr (std::is_same_v<T, double>) {
      V = C.f64();
    } else if constexpr (std::is_same_v<T, bool>) {
      V = C.boolean();
    } else if constexpr (std::is_same_v<T, unsigned>) {
      V = C.u32();
    } else {
      V = static_cast<T>(C.u64());
    }
  });
  // A measurement averages over its repeats; zero measures nothing.
  if (Cfg.Game.Measure.RepeatIters == 0 ||
      Cfg.AutotuneMeasure.RepeatIters == 0)
    C.fail("measure config with zero repeat iterations");
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame header
//===----------------------------------------------------------------------===//

void net::encodeHeader(std::vector<uint8_t> &Out, const FrameHeader &H) {
  putU32(Out, kMagic);
  putU16(Out, H.Version);
  putU16(Out, static_cast<uint16_t>(H.Type));
  putU64(Out, H.RequestId);
  putU32(Out, H.PayloadLen);
}

Expected<FrameHeader> net::decodeHeader(const uint8_t *Data, size_t Size,
                                        uint32_t MaxPayload) {
  Cursor C(Data, Size);
  if (Size < kHeaderSize)
    return Error("short frame header");
  if (C.u32() != kMagic)
    return Error("bad frame magic");
  FrameHeader H;
  H.Version = C.u16();
  if (H.Version != kVersion)
    return Error("unsupported wire version " + std::to_string(H.Version));
  uint16_t Type = C.u16();
  if (Type != static_cast<uint16_t>(FrameType::Request) &&
      Type != static_cast<uint16_t>(FrameType::Response))
    return Error("unknown frame type " + std::to_string(Type));
  H.Type = static_cast<FrameType>(Type);
  H.RequestId = C.u64();
  H.PayloadLen = C.u32();
  if (H.PayloadLen > MaxPayload)
    return Error("frame payload of " + std::to_string(H.PayloadLen) +
                 " bytes exceeds the " + std::to_string(MaxPayload) +
                 "-byte cap");
  return H;
}

//===----------------------------------------------------------------------===//
// Request
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
net::encodeRequestFrame(const serve::OptimizeRequest &R,
                        uint64_t RequestId) {
  std::vector<uint8_t> Payload;
  putU32(Payload, static_cast<uint32_t>(R.Kind));
  putU32(Payload, R.Shape.B);
  putU32(Payload, R.Shape.M);
  putU32(Payload, R.Shape.N);
  putU32(Payload, R.Shape.K);
  putU32(Payload, R.Shape.NHead);
  putU32(Payload, R.Shape.SeqLen);
  putU32(Payload, R.Shape.DHead);
  putU32(Payload, R.Shape.Rows);
  putU32(Payload, R.Shape.Cols);
  putString(Payload, R.GpuType);
  putU32(Payload, static_cast<uint32_t>(R.Priority));
  putU64(Payload, static_cast<uint64_t>(R.Timeout.count()));
  putBool(Payload, R.AllowDegraded);
  putBool(Payload, R.Config.has_value());
  if (R.Config)
    putConfig(Payload, *R.Config);

  std::vector<uint8_t> Frame;
  Frame.reserve(kHeaderSize + Payload.size());
  FrameHeader H;
  H.Type = FrameType::Request;
  H.RequestId = RequestId;
  H.PayloadLen = static_cast<uint32_t>(Payload.size());
  encodeHeader(Frame, H);
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return Frame;
}

Expected<serve::OptimizeRequest>
net::decodeRequestPayload(const uint8_t *Data, size_t Size) {
  Cursor C(Data, Size);
  serve::OptimizeRequest R;
  uint32_t Kind = C.u32();
  if (C.ok() && Kind >= kernels::allWorkloads().size())
    return Error("workload kind " + std::to_string(Kind) + " out of range");
  R.Kind = static_cast<kernels::WorkloadKind>(Kind);
  R.Shape.B = C.u32();
  R.Shape.M = C.u32();
  R.Shape.N = C.u32();
  R.Shape.K = C.u32();
  R.Shape.NHead = C.u32();
  R.Shape.SeqLen = C.u32();
  R.Shape.DHead = C.u32();
  R.Shape.Rows = C.u32();
  R.Shape.Cols = C.u32();
  R.GpuType = C.str();
  R.Priority = static_cast<int32_t>(C.u32());
  R.Timeout = std::chrono::milliseconds(static_cast<int64_t>(C.u64()));
  R.AllowDegraded = C.boolean();
  if (C.boolean())
    R.Config = takeConfig(C);
  C.atEnd();
  if (!C.ok())
    return Error("malformed request payload: " + C.error());
  return R;
}

//===----------------------------------------------------------------------===//
// Response
//===----------------------------------------------------------------------===//

const char *net::statusName(WireStatus St) {
  switch (St) {
  case WireStatus::Optimized:
    return "optimized";
  case WireStatus::LookupHit:
    return "lookup-hit";
  case WireStatus::Degraded:
    return "degraded";
  case WireStatus::Cancelled:
    return "cancelled";
  case WireStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case WireStatus::Failed:
    return "failed";
  case WireStatus::Rejected:
    return "rejected";
  case WireStatus::ResourceExhausted:
    return "resource-exhausted";
  case WireStatus::InvalidRequest:
    return "invalid-request";
  }
  return "unknown";
}

WireStatus net::toWireStatus(serve::OptimizeResponse::Status St) {
  switch (St) {
  case serve::OptimizeResponse::Status::Optimized:
    return WireStatus::Optimized;
  case serve::OptimizeResponse::Status::LookupHit:
    return WireStatus::LookupHit;
  case serve::OptimizeResponse::Status::Degraded:
    return WireStatus::Degraded;
  case serve::OptimizeResponse::Status::Cancelled:
    return WireStatus::Cancelled;
  case serve::OptimizeResponse::Status::DeadlineExceeded:
    return WireStatus::DeadlineExceeded;
  case serve::OptimizeResponse::Status::Failed:
    return WireStatus::Failed;
  case serve::OptimizeResponse::Status::Rejected:
    return WireStatus::Rejected;
  }
  return WireStatus::Failed;
}

WireResponse net::summarizeResponse(const serve::OptimizeResponse &R) {
  WireResponse W;
  W.St = toWireStatus(R.St);
  W.Key = R.Key;
  W.HasBinary = W.St == WireStatus::Optimized ||
                W.St == WireStatus::LookupHit ||
                W.St == WireStatus::Degraded;
  if (W.HasBinary)
    W.Binary = R.Binary;
  W.Persisted = R.Persisted;
  W.DegradedFrom = R.DegradedFrom;
  W.WarmStartedFrom = R.WarmStartedFrom;
  W.Error = R.Error;
  W.WallMs = R.WallMs;
  if (R.St == serve::OptimizeResponse::Status::Optimized) {
    W.AutotuneValid = R.Result.AutotuneValid;
    W.Verified = R.Result.Verified;
    W.TritonUs = R.Result.TritonUs;
    W.OptimizedUs = R.Result.OptimizedUs;
    W.TrainingUpdates = R.Result.Training.size();
    W.WarmStartTensors = R.Result.WarmStartTensors;
  }
  return W;
}

std::vector<uint8_t> net::encodeResponseFrame(const WireResponse &R,
                                              uint64_t RequestId) {
  std::vector<uint8_t> Payload;
  putU32(Payload, static_cast<uint32_t>(R.St));
  putString(Payload, R.Key);
  putBool(Payload, R.HasBinary);
  if (R.HasBinary)
    putBytes(Payload, R.Binary.serialize());
  putBool(Payload, R.Persisted);
  putString(Payload, R.DegradedFrom);
  putString(Payload, R.WarmStartedFrom);
  putString(Payload, R.Error);
  putDouble(Payload, R.WallMs);
  putBool(Payload, R.AutotuneValid);
  putBool(Payload, R.Verified);
  putDouble(Payload, R.TritonUs);
  putDouble(Payload, R.OptimizedUs);
  putU64(Payload, R.TrainingUpdates);
  putU64(Payload, R.WarmStartTensors);

  std::vector<uint8_t> Frame;
  Frame.reserve(kHeaderSize + Payload.size());
  FrameHeader H;
  H.Type = FrameType::Response;
  H.RequestId = RequestId;
  H.PayloadLen = static_cast<uint32_t>(Payload.size());
  encodeHeader(Frame, H);
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return Frame;
}

Expected<WireResponse> net::decodeResponsePayload(const uint8_t *Data,
                                                  size_t Size) {
  Cursor C(Data, Size);
  WireResponse R;
  uint32_t St = C.u32();
  if (C.ok() && St > static_cast<uint32_t>(WireStatus::InvalidRequest))
    return Error("response status " + std::to_string(St) + " out of range");
  R.St = static_cast<WireStatus>(St);
  R.Key = C.str();
  R.HasBinary = C.boolean();
  if (R.HasBinary) {
    std::vector<uint8_t> Bytes = C.bytes();
    if (C.ok()) {
      Expected<cubin::CubinFile> File = cubin::CubinFile::deserialize(Bytes);
      if (!File)
        return Error("embedded cubin: " + File.error().message());
      R.Binary = File.takeValue();
    }
  }
  R.Persisted = C.boolean();
  R.DegradedFrom = C.str();
  R.WarmStartedFrom = C.str();
  R.Error = C.str();
  R.WallMs = C.f64();
  R.AutotuneValid = C.boolean();
  R.Verified = C.boolean();
  R.TritonUs = C.f64();
  R.OptimizedUs = C.f64();
  R.TrainingUpdates = C.u64();
  R.WarmStartTensors = C.u64();
  C.atEnd();
  if (!C.ok())
    return Error("malformed response payload: " + C.error());
  return R;
}
