//===- perfbench/src/Bench.h - Shared pieces of the serving benchmark ------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: job configs and request keys, per-run
/// temporary directories, the loopback serving rig (one service behind
/// one net::Server, driven by one net::Client on the calling thread),
/// response classification, the oracle output checker, and the state a
/// run accumulates. Common.cpp implements these, Replay.cpp the traced
/// replay and probes, Workloads.cpp the four workloads, main.cpp the
/// metrics, self-tests and driver.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_BENCH_H
#define CUASMRL_PERFBENCH_BENCH_H

#include "Stats.h"
#include "Trace.h"

#include "core/Optimizer.h"
#include "net/Client.h"
#include "net/Server.h"
#include "net/Wire.h"
#include "serve/OptimizationService.h"
#include "serve/PolicyStore.h"

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace cu = cuasmrl;
using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double secondsSince(Clock::time_point A) {
  return std::chrono::duration<double>(Clock::now() - A).count();
}

/// One run of the host probe (HostProbe.cpp): fixed work in the program's
/// own style. \returns its wall time in milliseconds.
double probeHostMs();
/// A probe time within the range seen on the 4-vCPU Xeon VM the
/// benchmark was tuned on (0.10-0.16 ms). Reported times are scaled to a
/// host where the probe takes this long:
/// time * kProbeNominalMs / (the run's probe time).
constexpr double kProbeNominalMs = 0.13;
/// Probe runs before each cold request.
constexpr unsigned kColdProbes = 8;
/// warm_lookup pauses every this many milliseconds, drains its window
/// and runs kWarmProbes probes.
constexpr double kWarmSegmentMs = 25.0;
constexpr unsigned kWarmProbes = 4;
/// mixed_serve probes while it waits for a due time at least this far off.
constexpr double kMixedProbeGapMs = 0.5;

/// Responses are a pure function of (service seed, key), so the
/// benchmark seed only ever shapes the request stream.
constexpr uint64_t kServiceSeed = 11;
constexpr const char *kGpuType = "A100-SIM";
/// Set-up runs this many times per run; setup_s is the median.
constexpr unsigned kSetupRepeats = 5;

/// The serving-sized PPO job (bench_serve_throughput's job config).
cu::core::OptimizeConfig servingConfig();
/// The serving job with PpoConfig's default network (Channels 16,
/// Hidden 64), which makes a test-shape job RL-bound.
cu::core::OptimizeConfig rlBoundConfig();

struct KeySpec {
  cu::kernels::WorkloadKind Kind = cu::kernels::WorkloadKind::Softmax;
  cu::kernels::WorkloadShape Shape;
  std::string Key; ///< Deploy-cache key under the workload's config.

  cu::serve::OptimizeRequest request(bool AllowDegraded) const;
};

KeySpec makeKey(cu::kernels::WorkloadKind Kind,
                const cu::kernels::WorkloadShape &Shape,
                const cu::core::OptimizeConfig &Job);
/// Every kernel at its test shape with the work dimension (GEMM M,
/// attention sequence, row-wise rows) multiplied by \p Scale.
std::vector<KeySpec> testKeys(const cu::core::OptimizeConfig &Job,
                              unsigned Scale);
/// The request every cold set-up sends first: Softmax at three times its
/// test rows, a key no workload measures. Set-up then covers one whole
/// cold job through the stack, and the measured window starts warm.
KeySpec warmupKey(const cu::core::OptimizeConfig &Job);
cu::serve::ServiceConfig serviceConfig(const cu::core::OptimizeConfig &Job,
                                       unsigned Workers,
                                       const std::string &DeployDir);

/// A fresh mkdtemp directory under \p Root, removed with its contents
/// on destruction: deploy, policy and claim state is never shared
/// between runs.
class TempDir {
public:
  explicit TempDir(const std::string &Root);
  ~TempDir();
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  std::string sub(const char *Name) const { return Path + "/" + Name; }

private:
  std::string Path;
};

/// A service behind a loopback TCP server plus one connected client.
/// Destroyed client first, then server (joins its IO thread), then
/// service (joins its workers).
struct Rig {
  Rig(const cu::gpusim::Gpu &Proto, cu::serve::ServiceConfig SC);
  Rig(const Rig &) = delete;
  Rig &operator=(const Rig &) = delete;

  cu::serve::OptimizationService Service;
  cu::net::Server Server;
  std::unique_ptr<cu::net::Client> Client;
};

/// What a request is fixes the statuses it may be answered with.
enum class RequestClass {
  Cold,     ///< Closed-loop cold request: Optimized.
  Lookup,   ///< Seeded key: LookupHit.
  Miss,     ///< Unseeded key, degradation off: Optimized.
  MissDup,  ///< Duplicate of a Miss: attaches (Optimized) or hits.
  NearMiss, ///< Unseeded shape of a seeded kind: Degraded.
};
bool statusAllowed(RequestClass C, cu::net::WireStatus St);
Verdict classify(RequestClass C, const cu::net::WireResponse &R,
                 const std::string &ExpectedKey);
/// Byte-for-byte container equality (launch info and every section).
bool sameCubin(const cu::cubin::CubinFile &A, const cu::cubin::CubinFile &B);
/// Every field but WallMs, which is wall clock.
bool wireIdentical(const cu::net::WireResponse &A,
                   const cu::net::WireResponse &B);

/// Checks served cubins. The first cubin served for a key is remembered
/// and every later one must match it byte for byte (cheap, inside the
/// timed window). verifyAll() then disassembles each remembered cubin,
/// finds the Triton -O3 build it came from (same launch geometry, same
/// statement multiset) and runs both schedules on the architectural
/// oracle with seeded inputs; output buffers must agree bit for bit.
class OutputChecker {
public:
  OutputChecker(const cu::gpusim::Gpu &Proto, uint64_t Seed)
      : Proto(Proto), Seed(Seed) {}
  void know(const KeySpec &K) { Specs[K.Key] = K; }
  bool note(const std::string &ServedKey, const cu::cubin::CubinFile &Bin);
  /// \returns how many responses carried a cubin that failed.
  uint64_t verifyAll() const;
  size_t keys() const { return Entries.size(); }

private:
  struct Entry {
    cu::cubin::CubinFile Bin;
    uint64_t Responses = 0;
  };
  bool oracleCheck(const KeySpec &K, const cu::cubin::CubinFile &Bin) const;

  const cu::gpusim::Gpu &Proto;
  uint64_t Seed;
  std::map<std::string, KeySpec> Specs;
  std::map<std::string, Entry> Entries;
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TmpRoot;
  std::string ReportPath;
  std::string SpansPath;
};

/// One traced replay of a cold job.
struct ReplayOutcome {
  cu::core::OptimizeResult Result;
  std::string WarmStartedFrom;
  double OptimizeMs = 0.0;
  uint64_t AutotuneCandidates = 0;
  uint64_t TimedIssuedInstrs = 0;
};

/// A cold job the traced run replays, with the service's answer to it.
struct ReplayTarget {
  KeySpec Key;
  cu::net::WireResponse Reference;
};

/// Everything one run accumulates.
struct RunData {
  std::vector<double> SetupS;
  double WindowS = 0.0;   ///< Summed measurement-window time.
  /// Requests follow a schedule, so their rate is the schedule's.
  bool OpenLoop = false;
  uint64_t Completed = 0; ///< Requests answered inside the window.
  std::vector<double> LatencyMs, MissLatencyMs, LatenessMs, WallMs;
  /// Cold workloads: each key's latencies over the passes.
  std::map<std::string, std::vector<double>> KeyLatencyMs;
  /// Host probe times (ms), taken between requests inside the window.
  std::vector<double> ProbeMs;
  FailureTally Fail;
  bool SetupOk = true;
  bool IdentityOk = true;
  uint64_t IdentityChecked = 0;
  /// The Optimized responses that define schedule quality, by key.
  std::map<std::string, cu::net::WireResponse> Quality;
  cu::serve::ServiceStats Service; ///< Summed over the run's rigs.
  cu::net::NetStats Net;

  // Traced run only.
  Tracer Trace{false};
  std::vector<ReplayTarget> Replays;
  std::unique_ptr<TempDir> ShelfDir; ///< Kept alive for the replay.
  std::unique_ptr<cu::serve::PolicyStore> Shelf;
  std::vector<ReplayOutcome> Replayed;
  bool ReplayIdentical = true;
  bool DirectIdentical = true;
  double OverheadShare = 0.0;
  std::vector<double> QueueWaitMs;
  std::vector<double> CallUs, SubmitUs, LoadUs, DeserializeUs, DisassembleUs,
      EncodeUs, DecodeUs;
  bool ProbesOk = true;
};

void addServiceStats(cu::serve::ServiceStats &Acc,
                     const cu::serve::ServiceStats &S);
void addNetStats(cu::net::NetStats &Acc, const cu::net::NetStats &S);

/// Warm-path probes on deployed keys (traced run): net round trips,
/// in-process submits, deploy-cache loads, cubin deserialization and
/// disassembly, response encode and decode.
void probeWarmPath(RunData &D, Rig &R, const std::string &DeployDir,
                   const std::vector<KeySpec> &Deployed, unsigned Iters);
/// Traced run: replays every cold job in D.Replays with a span around
/// each call into a layer and checks each bit for bit against the
/// service's answer; the cheapest is run once more untraced through
/// core::Optimizer::optimize for the tracing overhead.
void replayColdJobs(RunData &D, const cu::gpusim::Gpu &Proto,
                    const cu::core::OptimizeConfig &Job,
                    const std::string &TmpRoot);

void runCold(RunData &D, const Options &O, const cu::gpusim::Gpu &Proto,
             OutputChecker &Checker, const cu::core::OptimizeConfig &Job,
             const std::vector<KeySpec> &Keys);
void runWarm(RunData &D, const Options &O, const cu::gpusim::Gpu &Proto,
             OutputChecker &Checker);
void runMixed(RunData &D, const Options &O, const cu::gpusim::Gpu &Proto,
              OutputChecker &Checker);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_BENCH_H
