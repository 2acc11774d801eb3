//===- tests/net_test.cpp - wire format / RPC server / claims tests ------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front door's contracts:
///
///   - Wire: exact round-trips (IEEE-754 doubles included) and strict
///     rejection of every malformed-frame shape — truncation, bad
///     magic, version skew, oversized lengths, trailing garbage.
///   - Server: loopback responses bit-identical to in-process
///     submission, per-connection quotas and rate limits answered as
///     ResourceExhausted, malformed traffic dropping the connection
///     (never the server), and clean Rejected answers while draining.
///   - Cross-process claims: two services over one DeployCache
///     directory run exactly one optimize job per key.
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Server.h"
#include "net/Wire.h"
#include "serve/OptimizationService.h"
#include "support/Clock.h"
#include "support/FileLock.h"
#include "support/StringUtils.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cuasmrl;
using namespace cuasmrl::kernels;
using namespace cuasmrl::net;
using namespace cuasmrl::serve;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

core::OptimizeConfig tinyConfig() {
  core::OptimizeConfig C;
  C.Ppo.TotalSteps = 32;
  C.Ppo.RolloutLen = 16;
  C.Ppo.MiniBatches = 2;
  C.Ppo.Epochs = 2;
  C.Ppo.Channels = 4;
  C.Ppo.Hidden = 16;
  C.Game.EpisodeLength = 8;
  C.Game.Measure.WarmupIters = 1;
  C.Game.Measure.RepeatIters = 1;
  C.Game.Measure.NoiseStddev = 0.001;
  C.AutotuneMeasure.WarmupIters = 1;
  C.AutotuneMeasure.RepeatIters = 1;
  C.AutotuneMeasure.NoiseStddev = 0.0;
  C.ProbTestRounds = 1;
  return C;
}

ServiceConfig tinyService(unsigned Workers, std::string DeployDir = "") {
  ServiceConfig C;
  C.Workers = Workers;
  C.Seed = 11;
  C.DeployDir = std::move(DeployDir);
  C.Defaults = tinyConfig();
  return C;
}

OptimizeRequest request(WorkloadKind Kind, unsigned Rows = 0) {
  OptimizeRequest R;
  R.Kind = Kind;
  R.Shape = testShape(Kind);
  if (Rows != 0)
    R.Shape.Rows = Rows;
  return R;
}

/// Bit-identity of everything deterministic on a response. WallMs is
/// deliberately excluded: it measures the server's wall clock.
void expectWireIdentical(const WireResponse &A, const WireResponse &B) {
  EXPECT_EQ(A.St, B.St) << statusName(A.St) << " vs " << statusName(B.St);
  EXPECT_EQ(A.Key, B.Key);
  EXPECT_EQ(A.HasBinary, B.HasBinary);
  EXPECT_EQ(A.Binary.serialize(), B.Binary.serialize());
  EXPECT_EQ(A.Persisted, B.Persisted);
  EXPECT_EQ(A.DegradedFrom, B.DegradedFrom);
  EXPECT_EQ(A.WarmStartedFrom, B.WarmStartedFrom);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.AutotuneValid, B.AutotuneValid);
  EXPECT_EQ(A.Verified, B.Verified);
  EXPECT_EQ(A.TritonUs, B.TritonUs);       // Exact double bits.
  EXPECT_EQ(A.OptimizedUs, B.OptimizedUs); // Exact double bits.
  EXPECT_EQ(A.TrainingUpdates, B.TrainingUpdates);
  EXPECT_EQ(A.WarmStartTensors, B.WarmStartTensors);
}

/// A raw loopback TCP connection for byte-level server poking.
class RawConn {
public:
  explicit RawConn(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                  sizeof(Addr)) != 0) {
      ::close(Fd);
      Fd = -1;
      return;
    }
    timeval Tv{5, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }
  ~RawConn() { close(); }
  void close() {
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  bool ok() const { return Fd >= 0; }

  bool sendBytes(const std::vector<uint8_t> &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N =
          ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// True when the peer closed the stream (recv sees EOF) within the
  /// socket timeout.
  bool peerClosed() {
    uint8_t B;
    while (true) {
      ssize_t N = ::recv(Fd, &B, 1, 0);
      if (N == 0)
        return true;
      if (N < 0)
        return false; // Timeout: the server kept the connection.
    }
  }

  /// Reads one complete response frame.
  bool recvResponse(uint64_t &Id, WireResponse &R) {
    uint8_t Header[kHeaderSize];
    if (!recvExact(Header, sizeof(Header)))
      return false;
    Expected<FrameHeader> H = decodeHeader(Header, sizeof(Header));
    if (!H || H->Type != FrameType::Response)
      return false;
    std::vector<uint8_t> Payload(H->PayloadLen);
    if (H->PayloadLen > 0 && !recvExact(Payload.data(), Payload.size()))
      return false;
    Expected<WireResponse> Resp =
        decodeResponsePayload(Payload.data(), Payload.size());
    if (!Resp)
      return false;
    Id = H->RequestId;
    R = Resp.takeValue();
    return true;
  }

private:
  bool recvExact(uint8_t *Out, size_t Size) {
    size_t Off = 0;
    while (Off < Size) {
      ssize_t N = ::recv(Fd, Out + Off, Size - Off, 0);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  int Fd = -1;
};

/// Polls \p Pred for up to \p Budget; the IO thread needs real time to
/// observe closes.
bool eventually(const std::function<bool()> &Pred,
                std::chrono::milliseconds Budget =
                    std::chrono::milliseconds(5000)) {
  const auto Deadline = std::chrono::steady_clock::now() + Budget;
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Pred();
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire: headers
//===----------------------------------------------------------------------===//

TEST(WireTest, HeaderRoundTripAndRejections) {
  FrameHeader H;
  H.Type = FrameType::Response;
  H.RequestId = 0x1122334455667788ULL;
  H.PayloadLen = 4096;
  std::vector<uint8_t> Buf;
  encodeHeader(Buf, H);
  ASSERT_EQ(Buf.size(), kHeaderSize);

  Expected<FrameHeader> D = decodeHeader(Buf.data(), Buf.size());
  ASSERT_TRUE(static_cast<bool>(D));
  EXPECT_EQ(D->Version, kVersion);
  EXPECT_EQ(D->Type, FrameType::Response);
  EXPECT_EQ(D->RequestId, H.RequestId);
  EXPECT_EQ(D->PayloadLen, H.PayloadLen);

  // Truncated header.
  EXPECT_FALSE(static_cast<bool>(decodeHeader(Buf.data(), kHeaderSize - 1)));
  // Bad magic.
  std::vector<uint8_t> Bad = Buf;
  Bad[0] ^= 0xFF;
  EXPECT_FALSE(static_cast<bool>(decodeHeader(Bad.data(), Bad.size())));
  // Version skew.
  Bad = Buf;
  Bad[4] = 99;
  EXPECT_FALSE(static_cast<bool>(decodeHeader(Bad.data(), Bad.size())));
  // Unknown frame type.
  Bad = Buf;
  Bad[6] = 7;
  EXPECT_FALSE(static_cast<bool>(decodeHeader(Bad.data(), Bad.size())));
  // Oversized length prefix: a hostile 4GiB claim must not survive the
  // decoder (it would otherwise drive the allocation).
  Bad = Buf;
  Bad[16] = Bad[17] = Bad[18] = Bad[19] = 0xFF;
  EXPECT_FALSE(static_cast<bool>(decodeHeader(Bad.data(), Bad.size())));
  // A tighter per-server cap applies too.
  EXPECT_FALSE(
      static_cast<bool>(decodeHeader(Buf.data(), Buf.size(), 1024)));
}

//===----------------------------------------------------------------------===//
// Wire: request payloads
//===----------------------------------------------------------------------===//

TEST(WireTest, RequestRoundTripsExactly) {
  OptimizeRequest R;
  R.Kind = WorkloadKind::RmsNorm;
  R.Shape = testShape(WorkloadKind::RmsNorm);
  R.Shape.Rows = 4096;
  R.GpuType = "H100-SIM";
  R.Priority = -3; // Negative priorities survive the u32 transit.
  R.Timeout = std::chrono::milliseconds(2500);
  R.AllowDegraded = false;
  core::OptimizeConfig Cfg = tinyConfig();
  Cfg.Ppo.Lr = 0.1; // Not exactly representable: bit-pattern transit.
  Cfg.Ppo.Gamma = 1e-300;
  Cfg.Game.InvalidPenalty = -0.3333333333333333;
  Cfg.Game.Table = analysis::StallTable::empty();
  Cfg.Game.Table.record("LDG.E", 24);
  Cfg.Game.Table.record("FMUL", 4);
  R.Config = Cfg;

  std::vector<uint8_t> Frame = encodeRequestFrame(R, 42);
  Expected<FrameHeader> H = decodeHeader(Frame.data(), Frame.size());
  ASSERT_TRUE(static_cast<bool>(H));
  EXPECT_EQ(H->Type, FrameType::Request);
  EXPECT_EQ(H->RequestId, 42u);
  ASSERT_EQ(Frame.size(), kHeaderSize + H->PayloadLen);

  Expected<OptimizeRequest> D =
      decodeRequestPayload(Frame.data() + kHeaderSize, H->PayloadLen);
  ASSERT_TRUE(static_cast<bool>(D)) << D.error().message();
  EXPECT_EQ(D->Kind, R.Kind);
  EXPECT_EQ(D->Shape.Rows, 4096u);
  EXPECT_EQ(D->GpuType, "H100-SIM");
  EXPECT_EQ(D->Priority, -3);
  EXPECT_EQ(D->Timeout.count(), 2500);
  EXPECT_FALSE(D->AllowDegraded);
  ASSERT_TRUE(D->Config.has_value());
  EXPECT_EQ(D->Config->Ppo.Lr, 0.1);
  EXPECT_EQ(D->Config->Ppo.Gamma, 1e-300);
  EXPECT_EQ(D->Config->Game.InvalidPenalty, -0.3333333333333333);
  EXPECT_EQ(D->Config->Game.Table.entries().size(), 2u);
  EXPECT_EQ(D->Config->Game.Table.entries().at("LDG.E"), 24u);

  // Encoding is a pure function of the value: re-encoding the decode
  // reproduces the exact bytes (the cross-process determinism anchor).
  EXPECT_EQ(encodeRequestFrame(*D, 42), Frame);

  // A config-less request round-trips too.
  R.Config.reset();
  Frame = encodeRequestFrame(R, 7);
  H = decodeHeader(Frame.data(), Frame.size());
  ASSERT_TRUE(static_cast<bool>(H));
  D = decodeRequestPayload(Frame.data() + kHeaderSize, H->PayloadLen);
  ASSERT_TRUE(static_cast<bool>(D));
  EXPECT_FALSE(D->Config.has_value());
  EXPECT_EQ(encodeRequestFrame(*D, 7), Frame);
}

TEST(WireTest, RequestFrameLayoutIsPinned) {
  // The config block's field order and widths are the protocol: a
  // server must decode frames from clients built before any change.
  OptimizeRequest R;
  R.Kind = WorkloadKind::Softmax;
  R.Shape = testShape(WorkloadKind::Softmax);
  core::OptimizeConfig C = tinyConfig();
  C.Game.Table = analysis::StallTable::builtin();
  C.ConditionEmbedding = true;
  C.Ppo.Lr = 1e-3;
  C.Ppo.AnnealLr = false;
  C.Ppo.Channels = 8;
  C.Game.Measure.ClearL2BetweenReps = false;
  C.Game.Measure.MaxBlocks = 2;
  C.AutotuneSeed = 99;
  C.NumEnvs = 2;
  R.Config = C;
  std::vector<uint8_t> Frame = encodeRequestFrame(R, 7);
  EXPECT_EQ(Frame.size(), 457u);
  EXPECT_EQ(fnv1a64(std::string(Frame.begin(), Frame.end())),
            0xbd73e95d86fb7e45ull);
}

TEST(WireTest, ResponseRoundTripsExactly) {
  WireResponse R;
  R.St = WireStatus::Optimized;
  R.Key = "A100-SIM/softmax/r64c64";
  R.HasBinary = true;
  cubin::Section &S = R.Binary.addSection(".text");
  S.Data = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
  R.Binary.addSection(".info").Data = {1, 2, 3};
  R.Persisted = true;
  R.WarmStartedFrom = "A100-SIM/softmax/r32c64";
  R.WallMs = 123.456;
  R.AutotuneValid = true;
  R.Verified = true;
  R.TritonUs = 17.25;
  R.OptimizedUs = 13.125;
  R.TrainingUpdates = 9;
  R.WarmStartTensors = 4;

  std::vector<uint8_t> Frame = encodeResponseFrame(R, 99);
  Expected<FrameHeader> H = decodeHeader(Frame.data(), Frame.size());
  ASSERT_TRUE(static_cast<bool>(H));
  EXPECT_EQ(H->Type, FrameType::Response);
  Expected<WireResponse> D =
      decodeResponsePayload(Frame.data() + kHeaderSize, H->PayloadLen);
  ASSERT_TRUE(static_cast<bool>(D)) << D.error().message();
  expectWireIdentical(*D, R);
  EXPECT_EQ(D->WallMs, 123.456);
  EXPECT_EQ(encodeResponseFrame(*D, 99), Frame);

  // Binary-less (a rejection) round-trips.
  WireResponse E;
  E.St = WireStatus::ResourceExhausted;
  E.Error = "rate limit exceeded";
  Frame = encodeResponseFrame(E, 1);
  H = decodeHeader(Frame.data(), Frame.size());
  ASSERT_TRUE(static_cast<bool>(H));
  D = decodeResponsePayload(Frame.data() + kHeaderSize, H->PayloadLen);
  ASSERT_TRUE(static_cast<bool>(D));
  expectWireIdentical(*D, E);
}

//===----------------------------------------------------------------------===//
// Wire: fuzz robustness
//===----------------------------------------------------------------------===//

TEST(WireTest, EveryTruncationOfAValidPayloadIsRejected) {
  OptimizeRequest R = request(WorkloadKind::Softmax);
  R.Config = tinyConfig();
  std::vector<uint8_t> Frame = encodeRequestFrame(R, 1);
  const uint8_t *Payload = Frame.data() + kHeaderSize;
  const size_t Len = Frame.size() - kHeaderSize;
  // Strict decoding means no prefix of the payload parses: every field
  // is consumed in order and atEnd() demands exact consumption.
  for (size_t Cut = 0; Cut < Len; ++Cut)
    EXPECT_FALSE(static_cast<bool>(decodeRequestPayload(Payload, Cut)))
        << "prefix of " << Cut << " bytes parsed";
  ASSERT_TRUE(static_cast<bool>(decodeRequestPayload(Payload, Len)));

  WireResponse W;
  W.St = WireStatus::Optimized;
  W.Key = "k";
  W.HasBinary = true;
  W.Binary.addSection(".text").Data = {1, 2, 3, 4};
  std::vector<uint8_t> RFrame = encodeResponseFrame(W, 2);
  const uint8_t *RPayload = RFrame.data() + kHeaderSize;
  const size_t RLen = RFrame.size() - kHeaderSize;
  for (size_t Cut = 0; Cut < RLen; ++Cut)
    EXPECT_FALSE(static_cast<bool>(decodeResponsePayload(RPayload, Cut)));
  ASSERT_TRUE(static_cast<bool>(decodeResponsePayload(RPayload, RLen)));
}

TEST(WireTest, CorruptPayloadBytesAreRejectedNotCrashes) {
  OptimizeRequest R = request(WorkloadKind::Softmax);
  std::vector<uint8_t> Frame = encodeRequestFrame(R, 1);
  std::vector<uint8_t> Payload(Frame.begin() + kHeaderSize, Frame.end());

  // Trailing garbage.
  std::vector<uint8_t> Long = Payload;
  Long.push_back(0);
  EXPECT_FALSE(
      static_cast<bool>(decodeRequestPayload(Long.data(), Long.size())));

  // Out-of-range workload kind.
  std::vector<uint8_t> BadKind = Payload;
  BadKind[0] = 0xFF;
  EXPECT_FALSE(static_cast<bool>(
      decodeRequestPayload(BadKind.data(), BadKind.size())));

  // A non-0/1 boolean byte (AllowDegraded is the last-but-one field).
  std::vector<uint8_t> BadBool = Payload;
  BadBool[BadBool.size() - 2] = 2;
  EXPECT_FALSE(static_cast<bool>(
      decodeRequestPayload(BadBool.data(), BadBool.size())));

  // Out-of-range response status.
  WireResponse W;
  W.St = WireStatus::Failed;
  std::vector<uint8_t> RFrame = encodeResponseFrame(W, 1);
  std::vector<uint8_t> RPayload(RFrame.begin() + kHeaderSize, RFrame.end());
  RPayload[0] = 0x77;
  EXPECT_FALSE(static_cast<bool>(
      decodeResponsePayload(RPayload.data(), RPayload.size())));

  // An embedded cubin that does not deserialize.
  WireResponse B;
  B.St = WireStatus::Optimized;
  B.HasBinary = true;
  B.Binary.addSection(".text").Data = {9, 9, 9, 9};
  std::vector<uint8_t> BFrame = encodeResponseFrame(B, 1);
  std::vector<uint8_t> BPayload(BFrame.begin() + kHeaderSize, BFrame.end());
  // The cubin blob starts after status(4) + key-len(4) + has-binary(1)
  // + blob-len(4); smash its magic.
  BPayload[13] ^= 0xFF;
  EXPECT_FALSE(static_cast<bool>(
      decodeResponsePayload(BPayload.data(), BPayload.size())));

  // Deterministic pseudo-random garbage: decoding must fail cleanly
  // (no crash, no throw) for any byte soup.
  uint64_t X = 0x9E3779B97F4A7C15ULL;
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<uint8_t> Junk((X % 256) + 1);
    for (uint8_t &ByteV : Junk) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      ByteV = static_cast<uint8_t>(X);
    }
    (void)decodeRequestPayload(Junk.data(), Junk.size());
    (void)decodeResponsePayload(Junk.data(), Junk.size());
  }
}

//===----------------------------------------------------------------------===//
// Server: loopback vs in-process determinism
//===----------------------------------------------------------------------===//

TEST(NetServerTest, LoopbackStreamMatchesInProcessSubmission) {
  // >= 64 mixed requests over loopback must resolve bit-identically to
  // the same stream submitted in-process — for any worker count.
  gpusim::Gpu Device;
  std::vector<OptimizeRequest> Stream;
  for (unsigned I = 0; I < 64; ++I) {
    // Four distinct keys, cycled. Indices 0 and 2 are cold
    // optimizations; 1 and 3 are near misses of them, answered
    // Degraded while a background upgrade optimizes their own key.
    // Each leg drains after index 3, so from index 4 on every request
    // is a deterministic deploy-cache hit. (Without the drain, index 5
    // or 7 could attach to a still-running upgrade and answer
    // Optimized in one leg and LookupHit in the other.)
    switch (I % 4) {
    case 0:
      Stream.push_back(request(WorkloadKind::Softmax, 64));
      break;
    case 1:
      Stream.push_back(request(WorkloadKind::Softmax, 96));
      break;
    case 2:
      Stream.push_back(request(WorkloadKind::RmsNorm, 64));
      break;
    default:
      Stream.push_back(request(WorkloadKind::RmsNorm, 128));
      break;
    }
  }

  for (unsigned Workers : {1u, 2u}) {
    // In-process baseline.
    test::TempDir Tmp;
    std::string DirA = Tmp.sub("inproc");
    std::vector<WireResponse> InProc;
    {
      OptimizationService Service(Device, tinyService(Workers, DirA));
      for (size_t I = 0; I < Stream.size(); ++I) {
        Ticket T = Service.submit(Stream[I]);
        ASSERT_TRUE(T.valid());
        InProc.push_back(summarizeResponse(*T.Response.get()));
        if (I == 3)
          Service.drain();
      }
      Service.shutdown();
    }

    // The same stream through the network front door.
    std::string DirB = Tmp.sub("loopback");
    std::vector<WireResponse> OverNet;
    {
      OptimizationService Service(Device, tinyService(Workers, DirB));
      Server Srv(Service, ServerConfig{});
      Expected<uint16_t> Port = Srv.start();
      ASSERT_TRUE(static_cast<bool>(Port)) << Port.error().message();
      ClientConfig CC;
      CC.Port = *Port;
      Client Cli(CC);
      for (size_t I = 0; I < Stream.size(); ++I) {
        Expected<WireResponse> Resp = Cli.call(Stream[I]);
        ASSERT_TRUE(static_cast<bool>(Resp)) << Resp.error().message();
        OverNet.push_back(Resp.takeValue());
        if (I == 3)
          Service.drain();
      }
      NetStats NS = Srv.stats();
      EXPECT_EQ(NS.FramesReceived, 64u);
      EXPECT_EQ(NS.ResponsesSent, 64u);
      EXPECT_EQ(NS.RequestsSubmitted, 64u);
      EXPECT_EQ(NS.DecodeErrors, 0u);
      Srv.stop();
      Service.shutdown();
    }

    ASSERT_EQ(InProc.size(), OverNet.size());
    for (size_t I = 0; I < InProc.size(); ++I)
      expectWireIdentical(OverNet[I], InProc[I]);
    // The stream exercised cold, near-miss and hit answers.
    EXPECT_EQ(InProc[0].St, WireStatus::Optimized);
    EXPECT_EQ(InProc[1].St, WireStatus::Degraded);
    EXPECT_EQ(InProc[4].St, WireStatus::LookupHit);
    EXPECT_EQ(InProc[5].St, WireStatus::LookupHit);
  }
}

TEST(NetServerTest, PipelinedResponsesMatchByRequestId) {
  gpusim::Gpu Device;
  OptimizationService Service(Device, tinyService(/*Workers=*/2));
  Server Srv(Service, ServerConfig{});
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port));

  ClientConfig CC;
  CC.Port = *Port;
  Client Cli(CC);
  // Two distinct keys, interleaved in flight; responses may complete
  // in any order and must match back by id.
  std::vector<uint64_t> Ids;
  std::vector<std::string> WantKey;
  for (unsigned I = 0; I < 8; ++I) {
    OptimizeRequest R = request(WorkloadKind::Softmax, I % 2 ? 64 : 96);
    Expected<uint64_t> Id = Cli.send(R);
    ASSERT_TRUE(static_cast<bool>(Id));
    Ids.push_back(*Id);
  }
  std::map<uint64_t, WireResponse> ById;
  for (unsigned I = 0; I < 8; ++I) {
    Expected<std::pair<uint64_t, WireResponse>> Next = Cli.receive();
    ASSERT_TRUE(static_cast<bool>(Next)) << Next.error().message();
    ById.emplace(Next->first, std::move(Next->second));
  }
  ASSERT_EQ(ById.size(), 8u);
  // Same-key responses are identical wherever they landed in the
  // pipeline (duplicates attach to the in-flight job).
  for (unsigned I = 2; I < 8; ++I) {
    const WireResponse &First = ById.at(Ids[I % 2]);
    const WireResponse &Later = ById.at(Ids[I]);
    EXPECT_EQ(First.Key, Later.Key);
    EXPECT_EQ(First.Binary.serialize(), Later.Binary.serialize());
  }
  Srv.stop();
  Service.shutdown();
}

//===----------------------------------------------------------------------===//
// Server: malformed traffic
//===----------------------------------------------------------------------===//

TEST(NetServerTest, MalformedTrafficDropsTheConnectionNotTheServer) {
  gpusim::Gpu Device;
  ServiceConfig SC = tinyService(/*Workers=*/1);
  SC.StartPaused = true; // No jobs needed: framing dies before admission.
  OptimizationService Service(Device, SC);
  Server Srv(Service, ServerConfig{});
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port));

  // Garbage bytes: the stream is unframeable, the connection drops.
  {
    RawConn C(*Port);
    ASSERT_TRUE(C.ok());
    ASSERT_TRUE(C.sendBytes(std::vector<uint8_t>(64, 0xAB)));
    EXPECT_TRUE(C.peerClosed());
  }
  // Version skew.
  {
    RawConn C(*Port);
    ASSERT_TRUE(C.ok());
    std::vector<uint8_t> Frame =
        encodeRequestFrame(request(WorkloadKind::Softmax), 1);
    Frame[4] = 9; // Unknown version.
    ASSERT_TRUE(C.sendBytes(Frame));
    EXPECT_TRUE(C.peerClosed());
  }
  // Hostile length prefix (4GiB claim).
  {
    RawConn C(*Port);
    ASSERT_TRUE(C.ok());
    std::vector<uint8_t> Header;
    FrameHeader H;
    H.Type = FrameType::Request;
    encodeHeader(Header, H);
    Header[16] = Header[17] = Header[18] = Header[19] = 0xFF;
    ASSERT_TRUE(C.sendBytes(Header));
    EXPECT_TRUE(C.peerClosed());
  }
  // A truncated frame followed by EOF leaks nothing.
  {
    RawConn C(*Port);
    ASSERT_TRUE(C.ok());
    std::vector<uint8_t> Frame =
        encodeRequestFrame(request(WorkloadKind::Softmax), 1);
    Frame.resize(kHeaderSize + 3); // Claims a payload it never sends.
    ASSERT_TRUE(C.sendBytes(Frame));
  } // Client closes; the server must reap the slot.

  // A well-framed but undecodable payload answers InvalidRequest and
  // keeps the connection open.
  {
    RawConn C(*Port);
    ASSERT_TRUE(C.ok());
    std::vector<uint8_t> Frame;
    FrameHeader H;
    H.Type = FrameType::Request;
    H.RequestId = 77;
    H.PayloadLen = 4;
    encodeHeader(Frame, H);
    Frame.insert(Frame.end(), {0xFF, 0xFF, 0xFF, 0xFF}); // Bad kind.
    ASSERT_TRUE(C.sendBytes(Frame));
    uint64_t Id = 0;
    WireResponse R;
    ASSERT_TRUE(C.recvResponse(Id, R));
    EXPECT_EQ(Id, 77u);
    EXPECT_EQ(R.St, WireStatus::InvalidRequest);
    EXPECT_FALSE(R.Error.empty());
    // The connection survived: a valid request on the same socket gets
    // a real answer (Rejected-by-quota shapes aside, the service is
    // paused so it enqueues; just assert more bytes flow by sending a
    // response-typed frame, which is answered InvalidRequest too).
    std::vector<uint8_t> Odd = encodeResponseFrame(WireResponse{}, 78);
    ASSERT_TRUE(C.sendBytes(Odd));
    ASSERT_TRUE(C.recvResponse(Id, R));
    EXPECT_EQ(Id, 78u);
    EXPECT_EQ(R.St, WireStatus::InvalidRequest);
  }

  // Every poked connection was reaped; the server itself never died.
  EXPECT_TRUE(eventually([&] {
    NetStats S = Srv.stats();
    return S.ConnectionsClosed == S.ConnectionsAccepted;
  }));
  NetStats S = Srv.stats();
  EXPECT_EQ(S.ConnectionsAccepted, 5u);
  EXPECT_GE(S.DecodeErrors, 5u);
  EXPECT_EQ(S.ActiveConnections, 0u);

  // And it still serves: a fresh, healthy client talks to it.
  {
    RawConn C(*Port);
    ASSERT_TRUE(C.ok());
    std::vector<uint8_t> Odd = encodeResponseFrame(WireResponse{}, 5);
    ASSERT_TRUE(C.sendBytes(Odd));
    uint64_t Id = 0;
    WireResponse R;
    ASSERT_TRUE(C.recvResponse(Id, R));
    EXPECT_EQ(R.St, WireStatus::InvalidRequest);
  }
  Srv.stop();
  Service.shutdown();
}

TEST(NetServerTest, ZeroMiniBatchesConfigIsAnsweredNotFatal) {
  // A client's config block reaches the PPO trainer as sent, so
  // MiniBatches == 0 must not divide by zero: SIGFPE would take the
  // whole server process down, not fail one response.
  gpusim::Gpu Device;
  OptimizationService Service(Device, tinyService(/*Workers=*/1));
  Server Srv(Service, ServerConfig{});
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port));
  ClientConfig CC;
  CC.Port = *Port;
  Client Cli(CC);

  OptimizeRequest Hostile = request(WorkloadKind::Softmax);
  Hostile.Config = tinyConfig();
  Hostile.Config->Ppo.MiniBatches = 0;
  Expected<WireResponse> R = Cli.call(Hostile);
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  EXPECT_EQ(R->St, WireStatus::Optimized);

  // Zero trains as one minibatch: the same schedule as MiniBatches 1.
  OptimizeRequest One = Hostile;
  One.Config->Ppo.MiniBatches = 1;
  Expected<WireResponse> R1 = Cli.call(One);
  ASSERT_TRUE(static_cast<bool>(R1)) << R1.error().message();
  EXPECT_EQ(R->Binary.serialize(), R1->Binary.serialize());
  EXPECT_EQ(R->OptimizedUs, R1->OptimizedUs);

  // The server is still up for everyone else.
  Expected<WireResponse> Next = Cli.call(request(WorkloadKind::RmsNorm));
  ASSERT_TRUE(static_cast<bool>(Next)) << Next.error().message();
  EXPECT_EQ(Next->St, WireStatus::Optimized);
  Srv.stop();
  Service.shutdown();
}

TEST(NetServerTest, ZeroRepeatItersConfigIsAnsweredNotFatal) {
  // Both measurement configs in a client's config block would reach
  // measureKernel, which averages over RepeatIters: zero used to divide
  // by zero and take the whole server down with SIGFPE. The decoder
  // now refuses it.
  gpusim::Gpu Device;
  OptimizationService Service(Device, tinyService(/*Workers=*/1));
  Server Srv(Service, ServerConfig{});
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port));
  ClientConfig CC;
  CC.Port = *Port;
  Client Cli(CC);

  for (bool Autotune : {true, false}) {
    SCOPED_TRACE(Autotune ? "AutotuneMeasure" : "Game.Measure");
    OptimizeRequest Hostile = request(WorkloadKind::Softmax);
    Hostile.Config = tinyConfig();
    (Autotune ? Hostile.Config->AutotuneMeasure : Hostile.Config->Game.Measure)
        .RepeatIters = 0;
    Expected<WireResponse> R = Cli.call(Hostile);
    ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
    EXPECT_EQ(R->St, WireStatus::InvalidRequest);
    EXPECT_NE(R->Error.find("repeat iterations"), std::string::npos)
        << R->Error;
  }

  // The server is still up for everyone else.
  Expected<WireResponse> Next = Cli.call(request(WorkloadKind::RmsNorm));
  ASSERT_TRUE(static_cast<bool>(Next)) << Next.error().message();
  EXPECT_EQ(Next->St, WireStatus::Optimized);
  Srv.stop();
  Service.shutdown();
}

//===----------------------------------------------------------------------===//
// Server: admission quotas
//===----------------------------------------------------------------------===//

TEST(NetServerTest, InFlightQuotaAnswersResourceExhausted) {
  gpusim::Gpu Device;
  ServiceConfig SC = tinyService(/*Workers=*/1);
  SC.StartPaused = true; // Jobs stay queued: in-flight never drains.
  OptimizationService Service(Device, SC);
  ServerConfig NC;
  NC.MaxInFlightPerConn = 2;
  Server Srv(Service, NC);
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port));

  ClientConfig CC;
  CC.Port = *Port;
  Client Cli(CC);
  std::vector<uint64_t> Ids;
  for (unsigned Rows : {64u, 96u, 128u, 160u}) {
    Expected<uint64_t> Id = Cli.send(request(WorkloadKind::Softmax, Rows));
    ASSERT_TRUE(static_cast<bool>(Id));
    Ids.push_back(*Id);
  }
  // Requests 3 and 4 bounce off the per-connection cap immediately;
  // 1 and 2 stay parked in the paused service.
  std::map<uint64_t, WireResponse> ById;
  for (int I = 0; I < 2; ++I) {
    Expected<std::pair<uint64_t, WireResponse>> Next = Cli.receive();
    ASSERT_TRUE(static_cast<bool>(Next)) << Next.error().message();
    ById.emplace(Next->first, std::move(Next->second));
  }
  ASSERT_TRUE(ById.count(Ids[2]));
  ASSERT_TRUE(ById.count(Ids[3]));
  EXPECT_EQ(ById.at(Ids[2]).St, WireStatus::ResourceExhausted);
  EXPECT_NE(ById.at(Ids[2]).Error.find("in-flight"), std::string::npos);
  EXPECT_EQ(Srv.stats().QuotaRejections, 2u);

  // Shutting the service down cancels the parked jobs; their callbacks
  // still stream Cancelled frames back out.
  Service.shutdown();
  for (int I = 0; I < 2; ++I) {
    Expected<std::pair<uint64_t, WireResponse>> Next = Cli.receive();
    ASSERT_TRUE(static_cast<bool>(Next)) << Next.error().message();
    ById.emplace(Next->first, std::move(Next->second));
  }
  EXPECT_EQ(ById.at(Ids[0]).St, WireStatus::Cancelled);
  EXPECT_EQ(ById.at(Ids[1]).St, WireStatus::Cancelled);
  Srv.stop();
}

TEST(NetServerTest, TokenBucketRateLimitsArrivals) {
  gpusim::Gpu Device;
  OptimizationService Service(Device, tinyService(/*Workers=*/1));
  support::FakeClock Clock; // Frozen: the bucket never refills.
  ServerConfig NC;
  NC.RatePerSec = 10.0;
  NC.RateBurst = 2.0;
  NC.ClockSrc = &Clock;
  Server Srv(Service, NC);
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port));

  ClientConfig CC;
  CC.Port = *Port;
  Client Cli(CC);
  // Same key three times: the first two spend the burst (one runs, one
  // attaches), the third arrives with an empty bucket.
  std::vector<uint64_t> Ids;
  for (int I = 0; I < 3; ++I) {
    Expected<uint64_t> Id = Cli.send(request(WorkloadKind::Softmax, 64));
    ASSERT_TRUE(static_cast<bool>(Id));
    Ids.push_back(*Id);
  }
  std::map<uint64_t, WireResponse> ById;
  for (int I = 0; I < 3; ++I) {
    Expected<std::pair<uint64_t, WireResponse>> Next = Cli.receive();
    ASSERT_TRUE(static_cast<bool>(Next)) << Next.error().message();
    ById.emplace(Next->first, std::move(Next->second));
  }
  EXPECT_EQ(ById.at(Ids[2]).St, WireStatus::ResourceExhausted);
  EXPECT_NE(ById.at(Ids[2]).Error.find("rate limit"), std::string::npos);
  EXPECT_EQ(ById.at(Ids[0]).St, WireStatus::Optimized);
  EXPECT_EQ(ById.at(Ids[1]).St, WireStatus::Optimized);
  expectWireIdentical(ById.at(Ids[0]), ById.at(Ids[1]));
  EXPECT_EQ(Srv.stats().RateLimited, 1u);

  // Advancing the clock refills the bucket: the next arrival passes.
  Clock.advance(std::chrono::milliseconds(200)); // 2 tokens at 10/s.
  Expected<WireResponse> Again = Cli.call(request(WorkloadKind::Softmax, 64));
  ASSERT_TRUE(static_cast<bool>(Again));
  // No deploy dir here, so the repeat re-optimizes — the point is that
  // it was admitted at all.
  EXPECT_EQ(Again->St, WireStatus::Optimized);
  EXPECT_EQ(Srv.stats().RateLimited, 1u); // No new rejections.
  Srv.stop();
  Service.shutdown();
}

//===----------------------------------------------------------------------===//
// Server: draining service
//===----------------------------------------------------------------------===//

TEST(NetServerTest, ShutdownMidConnectionRejectsCleanly) {
  gpusim::Gpu Device;
  OptimizationService Service(Device, tinyService(/*Workers=*/1));
  Server Srv(Service, ServerConfig{});
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port));

  // The client connects while the service is healthy...
  ClientConfig CC;
  CC.Port = *Port;
  Client Cli(CC);
  ASSERT_TRUE(static_cast<bool>(Cli.connect()));

  // ...and the service shuts down mid-connection. The submission must
  // resolve as a clean wire-level Rejected — never a hang, never a
  // dropped connection.
  Service.shutdown();
  Expected<WireResponse> R = Cli.call(request(WorkloadKind::Softmax));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  EXPECT_EQ(R->St, WireStatus::Rejected);
  EXPECT_NE(R->Error.find("draining or shut down"), std::string::npos);

  // A fresh connection sees the same clean rejection (the server stays
  // up even though its service is gone).
  Client Cli2(CC);
  Expected<WireResponse> R2 = Cli2.call(request(WorkloadKind::RmsNorm));
  ASSERT_TRUE(static_cast<bool>(R2));
  EXPECT_EQ(R2->St, WireStatus::Rejected);
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// Server: unix-domain transport
//===----------------------------------------------------------------------===//

TEST(NetServerTest, UnixDomainTransportServes) {
  gpusim::Gpu Device;
  test::TempDir Tmp;
  std::string Sock = Tmp.sub("serve.sock");

  OptimizationService Service(Device, tinyService(/*Workers=*/1));
  ServerConfig NC;
  NC.EnableTcp = false;
  NC.UnixPath = Sock;
  Server Srv(Service, NC);
  Expected<uint16_t> Port = Srv.start();
  ASSERT_TRUE(static_cast<bool>(Port)) << Port.error().message();
  EXPECT_EQ(*Port, 0u); // No TCP listener.

  ClientConfig CC;
  CC.UnixPath = Sock;
  Client Cli(CC);
  Expected<WireResponse> R = Cli.call(request(WorkloadKind::Softmax));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  EXPECT_EQ(R->St, WireStatus::Optimized);
  EXPECT_TRUE(R->HasBinary);
  Srv.stop();
  EXPECT_FALSE(std::filesystem::exists(Sock)); // stop() unlinks it.
  Service.shutdown();
}

//===----------------------------------------------------------------------===//
// Cross-process claims over one DeployCache directory
//===----------------------------------------------------------------------===//

TEST(NetClaimTest, TwoServicesRunExactlyOneJobPerKey) {
  gpusim::Gpu Device;
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");

  auto claimedService = [&] {
    ServiceConfig SC = tinyService(/*Workers=*/1, Dir);
    SC.CrossProcessClaims = true;
    SC.ClaimPollInterval = std::chrono::milliseconds(5);
    SC.StartPaused = true; // Admit to both before either runs.
    return SC;
  };
  OptimizationService A(Device, claimedService());
  OptimizationService B(Device, claimedService());

  OptimizeRequest R = request(WorkloadKind::Softmax);
  Ticket TA = A.submit(R);
  Ticket TB = B.submit(R);
  ASSERT_EQ(TA.How, Admission::Enqueued);
  ASSERT_EQ(TB.How, Admission::Enqueued);
  A.start();
  B.start();
  ResponsePtr RA = TA.Response.get();
  ResponsePtr RB = TB.Response.get();
  A.drain();
  B.drain();

  // Exactly one optimize job ran across both services; the other side
  // adopted the winner's persisted result.
  ServiceStats SA = A.stats();
  ServiceStats SB = B.stats();
  EXPECT_EQ(SA.OptimizeRuns + SB.OptimizeRuns, 1u);
  EXPECT_EQ(SA.ClaimHits + SB.ClaimHits, 1u);
  const ResponsePtr &Winner = SA.OptimizeRuns == 1 ? RA : RB;
  const ResponsePtr &Loser = SA.OptimizeRuns == 1 ? RB : RA;
  EXPECT_EQ(Winner->St, OptimizeResponse::Status::Optimized);
  EXPECT_EQ(Loser->St, OptimizeResponse::Status::LookupHit);
  EXPECT_TRUE(Loser->Persisted);
  EXPECT_EQ(Winner->Binary.serialize(), Loser->Binary.serialize());
  EXPECT_EQ(Winner->Key, Loser->Key);

  A.shutdown();
  B.shutdown();
}

TEST(NetClaimTest, WaiterPollsUntilTheClaimReleases) {
  gpusim::Gpu Device;
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  ServiceConfig SC = tinyService(/*Workers=*/1, Dir);
  SC.CrossProcessClaims = true;
  SC.ClaimPollInterval = std::chrono::milliseconds(5);
  SC.StartPaused = true;
  OptimizationService Service(Device, SC);

  // A foreign "process" (a plain FileLock holder) claims the key
  // before the worker starts; the service must wait, not run.
  Ticket T = Service.submit(request(WorkloadKind::Softmax));
  ASSERT_EQ(T.How, Admission::Enqueued);
  std::string ClaimPath = Dir + "/.claims/" + T.Key + ".lock";
  std::string Foreign = support::FileLock::makeToken();
  ASSERT_TRUE(support::FileLock::tryClaim(ClaimPath, Foreign));

  Service.start();
  // The job is stuck polling; the deploy dir never gains the key.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(T.Response.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(Service.stats().OptimizeRuns, 0u);
  EXPECT_EQ(Service.stats().ClaimWaits, 1u);

  // Releasing the foreign claim un-sticks it: the service claims and
  // optimizes normally.
  ASSERT_TRUE(support::FileLock::release(ClaimPath, Foreign));
  ResponsePtr R = T.Response.get();
  EXPECT_EQ(R->St, OptimizeResponse::Status::Optimized);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.OptimizeRuns, 1u);
  EXPECT_EQ(S.ClaimWaits, 1u);
  EXPECT_EQ(S.ClaimBreaks, 0u);
  Service.shutdown();
  // Its own claim was released after persisting.
  EXPECT_FALSE(std::filesystem::exists(ClaimPath));
}

TEST(NetClaimTest, StaleClaimsAreBrokenNotWaitedOn) {
  gpusim::Gpu Device;
  test::TempDir Tmp;
  std::string Dir = Tmp.sub("deploy");
  ServiceConfig SC = tinyService(/*Workers=*/1, Dir);
  SC.CrossProcessClaims = true;
  SC.ClaimPollInterval = std::chrono::milliseconds(5);
  SC.ClaimStaleAfter = std::chrono::milliseconds(500);
  SC.StartPaused = true;
  OptimizationService Service(Device, SC);

  // A claim whose owner crashed long ago: its heartbeat is ancient.
  Ticket T = Service.submit(request(WorkloadKind::Softmax));
  ASSERT_EQ(T.How, Admission::Enqueued);
  std::string ClaimPath = Dir + "/.claims/" + T.Key + ".lock";
  ASSERT_TRUE(support::FileLock::tryClaim(
      ClaimPath, support::FileLock::makeToken()));
  std::filesystem::last_write_time(
      ClaimPath, std::filesystem::file_time_type::clock::now() -
                     std::chrono::seconds(60));

  Service.start();
  ResponsePtr R = T.Response.get();
  EXPECT_EQ(R->St, OptimizeResponse::Status::Optimized);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.OptimizeRuns, 1u);
  EXPECT_GE(S.ClaimBreaks, 1u);
  Service.shutdown();
}
