//===- perfbench/src/main.cpp - End-to-end serving benchmark driver --------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's end-to-end benchmark (see Workloads.cpp for the
/// workloads). Usage:
///
///   cuasmrl_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                     --tmp-root DIR [--report PATH] [--spans PATH]
///   cuasmrl_perfbench --self-test
///
/// The last stdout line is one JSON object {correct, attempted, failed,
/// metrics}: the end-to-end metrics with --trace 0, the per-layer
/// metrics with --trace 1. --report writes the run as a schema-v1
/// stats::BenchReport (tools/bench_compare.py diffs two of them);
/// --spans writes the traced run's spans as JSON lines.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "stats/BenchReport.h"
#include "support/Rng.h"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace cuasmrl;
using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  bool HigherIsBetter;
};

constexpr double kMaxUnattributed = 0.05;
/// Share of probe runs kept (the fastest) for the host's speed.
constexpr double kProbeKeep = 0.9;

double orZero(std::optional<double> V) { return V ? *V : 0.0; }

/// How much slower than nominal the host ran during the window: a time
/// divided by this reads as on the tuning host in its usual state.
double hostSlowdown(const RunData &D) {
  const double Probe = lowMean(D.ProbeMs, kProbeKeep);
  return Probe > 0 ? Probe / kProbeNominalMs : 1.0;
}

/// The timings as measured on this host, unscaled.
struct RawTimings {
  double SetupS, RequestsPerS, P50;
};

RawTimings rawTimings(const RunData &D) {
  // Timings are medians over the whole run. This shared host's speed
  // drifts by a third and more over seconds; a long run's median evens
  // that out, where a best case (a minimum, the fastest slice) swings
  // with whether the run happened to catch a fast phase.
  double RequestsPerS = D.WindowS > 0 ? double(D.Completed) / D.WindowS : 0.0;
  double P50 = orZero(percentile(D.LatencyMs, 0.5));
  if (!D.KeyLatencyMs.empty()) {
    // A cold job is the same work on every pass: each key counts once, at
    // its median pass. Throughput is one pass at those latencies.
    const std::vector<double> PerKey = keyMedians(D.KeyLatencyMs);
    P50 = orZero(percentile(PerKey, 0.5));
    RequestsPerS = double(PerKey.size()) /
                   (std::accumulate(PerKey.begin(), PerKey.end(), 0.0) / 1e3);
  }
  return {orZero(percentile(D.SetupS, 0.5)), RequestsPerS, P50};
}

std::vector<Metric> endToEndMetrics(const RunData &D) {
  std::vector<double> Speedups;
  double Verified = 0.0;
  for (const auto &[Key, W] : D.Quality) {
    if (W.OptimizedUs > 0.0)
      Speedups.push_back(W.TritonUs / W.OptimizedUs);
    Verified += W.Verified ? 1.0 : 0.0;
  }
  const double Keys = std::max<double>(1.0, double(D.Quality.size()));
  // Between runs, and between the two halves of one hour, this host's
  // speed for the program's work drifts by 30% and more, outside any one
  // run's control; the host probe measures that drift inside the window
  // and the times are scaled by it.
  const RawTimings Raw = rawTimings(D);
  const double Slowdown = hostSlowdown(D);
  return {
      {"setup_s", Raw.SetupS / Slowdown, "s", false},
      {"requests_per_s", Raw.RequestsPerS * (D.OpenLoop ? 1.0 : Slowdown),
       "1/s", true},
      {"latency_ms.p50", Raw.P50 / Slowdown, "ms", false},
      {"schedule_speedup.geomean", orZero(geomean(Speedups)), "x", true},
      {"verified_share", Verified / Keys, "ratio", true},
  };
}

/// Figures kept in the BenchReport only: a p99 exists only where the
/// run has 1000 samples, miss latency only on mixed_serve, failed_share
/// is zero on a healthy run, and the unscaled timings and the probe show
/// what the scaling did. Latency p99 and miss latency are unscaled.
std::vector<Metric> reportOnlyMetrics(const RunData &D) {
  std::vector<Metric> M;
  if (std::optional<double> P99 = percentile(D.LatencyMs, 0.99))
    M.push_back({"latency_ms.p99", *P99, "ms", false});
  if (std::optional<double> Miss = percentile(D.MissLatencyMs, 0.5))
    M.push_back({"miss_latency_ms.p50", *Miss, "ms", false});
  M.push_back({"failed_share", D.Fail.failedShare(), "ratio", false});
  const RawTimings Raw = rawTimings(D);
  M.push_back({"raw.setup_s", Raw.SetupS, "s", false});
  M.push_back({"raw.requests_per_s", Raw.RequestsPerS, "1/s", true});
  M.push_back({"raw.latency_ms.p50", Raw.P50, "ms", false});
  M.push_back({"host.probe_ms", lowMean(D.ProbeMs, kProbeKeep), "ms", false});
  M.push_back({"host.probe_runs", double(D.ProbeMs.size()), "count", false});
  return M;
}

std::vector<Metric> perLayerMetrics(const RunData &D) {
  const std::map<std::string, LayerTotals> Tot = totalsByName(D.Trace.spans());
  auto Get = [&](const char *Name) {
    auto It = Tot.find(Name);
    return It == Tot.end() ? LayerTotals() : It->second;
  };
  const double Jobs = std::max<double>(1.0, double(D.Replayed.size()));
  auto PerJobMs = [&](const char *Name) {
    return double(Get(Name).TotalNs) / 1e6 / Jobs;
  };
  auto PerCallUs = [&](const char *Name) {
    const LayerTotals L = Get(Name);
    return L.Count ? double(L.TotalNs) / 1e3 / double(L.Count) : 0.0;
  };
  uint64_t Issued = 0, Hits = 0, Lookups = 0, Executions = 0, Candidates = 0;
  for (const ReplayOutcome &R : D.Replayed) {
    Issued += R.TimedIssuedInstrs + R.Result.RolloutCounters.IssuedInstrs;
    Hits += R.Result.RolloutCounters.MeasureCacheHits;
    Lookups += R.Result.RolloutCounters.MeasureCacheHits +
               R.Result.RolloutCounters.MeasureCacheMisses;
    Executions += R.Result.KernelExecutions;
    Candidates += R.AutotuneCandidates;
  }
  // Timed simulation runs inside env steps (the reward measurements) and
  // in the probabilistic test's verification run; issued_instrs_per_s
  // counts both over the time of the spans around them. sim_timed_us is
  // the verification run alone, the one timed run with a span of its own.
  const int64_t TimedNs = Get("env.step").TotalNs + Get("env.reset").TotalNs +
                          Get("gpusim.sim_timed").TotalNs;
  const LayerTotals Collect = Get("rl.collect");
  const LayerTotals Optimize = Get("core.optimize");
  const serve::ServiceStats &S = D.Service;
  const double Submitted = std::max<double>(1.0, double(S.Submitted));
  auto Share = [](double Part, double Whole) {
    return Whole > 0 ? Part / Whole : 0.0;
  };
  return {
      {"gpusim.sim_timed_us", PerCallUs("gpusim.sim_timed"), "us", false},
      {"gpusim.sim_oracle_us", PerCallUs("gpusim.sim_oracle"), "us", false},
      {"gpusim.issued_instrs_per_s",
       Share(double(Issued), double(TimedNs) / 1e9), "1/s", true},
      {"gpusim.measure_cache_hit_rate", Share(double(Hits), double(Lookups)),
       "ratio", true},
      {"gpusim.kernel_executions", double(Executions) / Jobs, "count", false},
      {"triton.autotune_ms", PerJobMs("triton.autotune"), "ms", false},
      {"triton.autotune_candidates", double(Candidates) / Jobs, "count",
       false},
      {"triton.compile_ms", PerJobMs("triton.compile"), "ms", false},
      {"triton.probtest_ms", PerJobMs("triton.probtest"), "ms", false},
      {"env.step_us", PerCallUs("env.step"), "us", false},
      {"env.reset_us", PerCallUs("env.reset"), "us", false},
      {"env.mask_us", PerCallUs("env.mask"), "us", false},
      {"rl.collect_ms", PerJobMs("rl.collect"), "ms", false},
      {"rl.policy_ms", double(Collect.SelfNs) / 1e6 / Jobs, "ms", false},
      {"rl.update_ms", PerJobMs("rl.update"), "ms", false},
      {"rl.greedy_ms", PerJobMs("rl.greedy"), "ms", false},
      {"rl.env_share",
       Share(double(Collect.TotalNs - Collect.SelfNs), double(Collect.TotalNs)),
       "ratio", false},
      {"core.optimize_ms", PerJobMs("core.optimize"), "ms", false},
      {"trace.unattributed_share",
       Share(double(Optimize.SelfNs), double(Optimize.TotalNs)), "ratio",
       false},
      {"trace.overhead_share", D.OverheadShare, "ratio", false},
      {"net.call_us.p50", orZero(percentile(D.CallUs, 0.5)), "us", false},
      {"net.encode_us", mean(D.EncodeUs), "us", false},
      {"net.decode_us", mean(D.DecodeUs), "us", false},
      {"net.decode_errors", double(D.Net.DecodeErrors), "count", false},
      {"net.quota_rejections", double(D.Net.QuotaRejections), "count",
       false},
      {"serve.submit_us.p50", orZero(percentile(D.SubmitUs, 0.5)), "us",
       false},
      {"triton.deploy_load_us", mean(D.LoadUs), "us", false},
      {"cubin.deserialize_us", mean(D.DeserializeUs), "us", false},
      {"cubin.disassemble_us", mean(D.DisassembleUs), "us", false},
      {"serve.response_wall_ms.p50", orZero(percentile(D.WallMs, 0.5)), "ms",
       false},
      {"serve.queue_wait_ms.p50", orZero(percentile(D.QueueWaitMs, 0.5)),
       "ms", false},
      {"triton.deploy_store_ms", PerCallUs("triton.deploy_store") / 1e3, "ms",
       false},
      {"serve.hit_share", double(S.LookupHits) / Submitted, "ratio", true},
      {"serve.attach_share", double(S.Merged) / Submitted, "ratio", true},
      {"serve.degraded_share", double(S.DegradedHits) / Submitted, "ratio",
       false},
      {"serve.warm_start_share",
       Share(double(S.WarmStarts), double(S.OptimizeRuns)), "ratio", true},
      {"harness.lateness_ms.p99", orZero(percentile(D.LatenessMs, 0.99)),
       "ms", false},
  };
}

/// Worst per-request share of core.optimize no child span covers.
double worstUnattributedShare(const Tracer &T) {
  const std::vector<Span> &Spans = T.spans();
  const std::vector<int64_t> Self = selfTimes(Spans);
  double Worst = 0.0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (std::string(Spans[I].Name) == "core.optimize" &&
        Spans[I].durationNs() > 0)
      Worst = std::max(Worst, double(Self[I]) / double(Spans[I].durationNs()));
  return Worst;
}

/// Self-tests of the benchmark's own arithmetic.
bool selfTest(std::string &Why) {
  auto Fail = [&](const char *What) {
    Why = What;
    return false;
  };
  std::vector<double> Ramp;
  for (int I = 1; I <= 1000; ++I)
    Ramp.push_back(double(I));
  if (std::fabs(orZero(percentile(Ramp, 0.99)) - 990.01) > 1e-9)
    return Fail("p99 of 1..1000 must be 990.01");
  Ramp.pop_back();
  if (percentile(Ramp, 0.99))
    return Fail("a p99 below 1000 samples must be refused");
  if (!percentile(Ramp, 0.9) || percentile({1, 2, 3}, 0.9))
    return Fail("p90 needs 100 samples");
  if (orZero(percentile({4, 1, 3, 2}, 0.5)) != 2.5 ||
      orZero(percentile({7}, 0.5)) != 7.0 || percentile({}, 0.5))
    return Fail("median");

  if (std::fabs(orZero(geomean({1, 4})) - 2.0) > 1e-12 ||
      std::fabs(orZero(geomean({2, 8, 4})) - 4.0) > 1e-12 || geomean({}) ||
      geomean({1, 0}) || geomean({2, -1}))
    return Fail("geomean");

  if (keyMedians({{"a", {3, 1, 2}}, {"b", {}}, {"c", {20, 10}}}) !=
      std::vector<double>{2, 15})
    return Fail("per-key medians");
  // Ten values keep nine at 0.9: the outlier 100 is dropped.
  if (lowMean({1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, 0.9) != 5.0 ||
      lowMean({4}, 0.9) != 4.0 || lowMean({}, 0.9) != 0.0)
    return Fail("low mean");

  // Nested synthetic spans: overlapping children count once, a child
  // running past its parent is clipped, grandchildren only reduce their
  // own parent.
  Tracer T(true);
  const int32_t Root = T.add("root", 0, 100, -1, 1);
  const int32_t A = T.add("a", 10, 40, Root, 1);
  T.add("b", 30, 60, Root, 1);
  T.add("a.child", 15, 20, A, 1);
  T.add("late", 90, 120, Root, 1);
  if (selfTimes(T.spans()) != std::vector<int64_t>{40, 25, 30, 5, 30})
    return Fail("span self times");
  std::map<std::string, LayerTotals> Tot = totalsByName(T.spans());
  if (Tot["root"].Count != 1 || Tot["root"].SelfNs != 40 ||
      Tot["a"].TotalNs != 30)
    return Fail("span totals");

  // failed_share: refusals and mismatches count, clean answers do not.
  net::WireResponse Good;
  Good.St = net::WireStatus::LookupHit;
  Good.Key = "k";
  Good.HasBinary = true;
  net::WireResponse Refused = Good, Rejected = Good, WrongKey = Good;
  Refused.St = net::WireStatus::ResourceExhausted;
  Rejected.St = net::WireStatus::Rejected;
  WrongKey.Key = "other";
  FailureTally F;
  F.record(classify(RequestClass::Lookup, Good, "k"));
  F.record(classify(RequestClass::Lookup, Refused, "k"));
  F.record(classify(RequestClass::Lookup, Rejected, "k"));
  F.record(classify(RequestClass::Lookup, WrongKey, "k"));
  F.record(Verdict::TransportError);
  if (F.Attempted != 5 || F.failed() != 4 || F.WrongStatus != 2 ||
      F.CheckFailed != 1 || F.Transport != 1 ||
      std::fabs(F.failedShare() - 0.8) > 1e-12)
    return Fail("failure tally");
  F.demote(1); // The clean answer's cubin failed the deferred oracle check.
  if (F.failed() != 5 || F.failedShare() != 1.0)
    return Fail("deferred check failure");
  if (!statusAllowed(RequestClass::MissDup, net::WireStatus::LookupHit) ||
      statusAllowed(RequestClass::Miss, net::WireStatus::Degraded) ||
      statusAllowed(RequestClass::Cold, net::WireStatus::Rejected))
    return Fail("status classes");
  return true;
}

std::string formatNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

int runWorkload(const Options &O, bool SelfTestOk) {
  gpusim::Gpu Proto;
  OutputChecker Checker(Proto, mixSeed(O.Seed, 0x636865636bull));
  RunData D;
  D.Trace = Tracer(O.Trace);
  core::OptimizeConfig Job = servingConfig();

  if (O.Workload == "cold_paper_shapes") {
    std::vector<KeySpec> Keys;
    for (kernels::WorkloadKind W : kernels::allWorkloads())
      Keys.push_back(makeKey(W, kernels::paperShape(W), Job));
    runCold(D, O, Proto, Checker, Job, Keys);
  } else if (O.Workload == "cold_rl_bound") {
    Job = rlBoundConfig();
    std::vector<KeySpec> Keys = testKeys(Job, 1);
    for (const KeySpec &K : testKeys(Job, 2))
      Keys.push_back(K);
    runCold(D, O, Proto, Checker, Job, Keys);
  } else if (O.Workload == "warm_lookup") {
    runWarm(D, O, Proto, Checker);
  } else if (O.Workload == "mixed_serve") {
    runMixed(D, O, Proto, Checker);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  // Deferred correctness: every served cubin on the oracle.
  D.Fail.demote(Checker.verifyAll());
  if (O.Trace)
    replayColdJobs(D, Proto, Job, O.TmpRoot);

  const std::vector<Metric> EndToEnd = endToEndMetrics(D);
  const std::vector<Metric> Printed = O.Trace ? perLayerMetrics(D) : EndToEnd;
  bool MetricsOk = true;
  for (const Metric &M : Printed)
    MetricsOk = MetricsOk && std::isfinite(M.Value);
  // Spans must cover all but kMaxUnattributed of every replayed job.
  const bool TraceOk =
      !O.Trace || (D.ReplayIdentical && D.DirectIdentical && D.ProbesOk &&
                   !D.Replayed.empty() &&
                   worstUnattributedShare(D.Trace) <= kMaxUnattributed);
  const bool Correct = SelfTestOk && D.SetupOk && D.IdentityOk && TraceOk &&
                       MetricsOk && D.Fail.failed() == 0 &&
                       D.Fail.Attempted > 0;

  stats::RunMeta Meta;
  Meta.Build = CUASMRL_BUILD_TYPE;
  Meta.Timestamp = stats::isoTimestampUtcNow();
  Meta.HardwareThreads = std::thread::hardware_concurrency();
  stats::BenchReport Rep("perfbench_" + O.Workload, Meta);
  for (const std::vector<Metric> *Set : {&EndToEnd, &Printed})
    for (const Metric &M : *Set)
      Rep.addMetric(M.Name, M.Value, M.Unit, M.HigherIsBetter);
  for (const Metric &M : reportOnlyMetrics(D))
    Rep.addMetric(M.Name, M.Value, M.Unit, M.HigherIsBetter);
  Rep.setServiceStats(D.Service);
  Rep.setNetStats(D.Net);
  Rep.setSimCounters(D.Service.Counters);
  stats::JsonValue Extra = stats::JsonValue::object();
  Extra.set("workload", stats::JsonValue(O.Workload));
  Extra.set("seed", stats::JsonValue(O.Seed));
  Extra.set("traced", stats::JsonValue(O.Trace));
  Extra.set("correct", stats::JsonValue(Correct));
  Extra.set("attempted", stats::JsonValue(D.Fail.Attempted));
  Extra.set("failed", stats::JsonValue(D.Fail.failed()));
  Extra.set("oracle_checked_keys", stats::JsonValue(uint64_t(Checker.keys())));
  Extra.set("identity_checked", stats::JsonValue(D.IdentityChecked));
  Extra.set("identity_ok", stats::JsonValue(D.IdentityOk));
  if (O.Trace) {
    Extra.set("replayed_jobs", stats::JsonValue(uint64_t(D.Replayed.size())));
    Extra.set("replay_identical", stats::JsonValue(D.ReplayIdentical));
    Extra.set("direct_identical", stats::JsonValue(D.DirectIdentical));
    Extra.set("worst_unattributed_share",
              stats::JsonValue(worstUnattributedShare(D.Trace)));
  }
  Rep.setExtra(std::move(Extra));
  if (!O.ReportPath.empty())
    if (std::FILE *F = std::fopen(O.ReportPath.c_str(), "w")) {
      std::fputs(Rep.serialize().c_str(), F);
      std::fclose(F);
    }
  if (O.Trace && !O.SpansPath.empty())
    writeSpans(O.SpansPath, D.Trace.spans());

  std::fprintf(stderr,
               "perfbench %s seed=%llu trace=%d: %llu attempted, %llu failed, "
               "%zu keys oracle-checked, identity %s, setup ok %d\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               int(O.Trace), static_cast<unsigned long long>(D.Fail.Attempted),
               static_cast<unsigned long long>(D.Fail.failed()),
               Checker.keys(), D.IdentityOk ? "ok" : "MISMATCH",
               int(D.SetupOk));
  if (O.Trace)
    std::fprintf(stderr, "  replay identical %d, direct identical %d, "
                         "probes ok %d\n",
                 int(D.ReplayIdentical), int(D.DirectIdentical),
                 int(D.ProbesOk));
  for (const Metric &M : Printed)
    std::fprintf(stderr, "  %-32s %14.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());

  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(D.Fail.Attempted) +
                     ", \"failed\": " + std::to_string(D.Fail.failed()) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Printed.size(); ++I)
    Line += (I ? ", \"" : "\"") + Printed[I].Name + "\": {\"value\": " +
            formatNumber(Printed[I].Value) + ", \"unit\": \"" +
            Printed[I].Unit + "\"}";
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool SelfTestOnly = false;
  try {
    for (int I = 1; I < argc; ++I) {
      const std::string Arg = argv[I];
      auto Value = [&]() -> std::string {
        if (I + 1 >= argc)
          throw std::invalid_argument("missing value for " + Arg);
        return argv[++I];
      };
      if (Arg == "--workload")
        O.Workload = Value();
      else if (Arg == "--seed")
        O.Seed = std::stoull(Value());
      else if (Arg == "--seconds")
        O.Seconds = std::stod(Value());
      else if (Arg == "--trace")
        O.Trace = Value() != "0";
      else if (Arg == "--tmp-root")
        O.TmpRoot = Value();
      else if (Arg == "--report")
        O.ReportPath = Value();
      else if (Arg == "--spans")
        O.SpansPath = Value();
      else if (Arg == "--self-test")
        SelfTestOnly = true;
      else
        throw std::invalid_argument("unknown argument " + Arg);
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }

  std::string Why;
  const bool SelfTestOk = selfTest(Why);
  if (SelfTestOnly) {
    std::printf("perfbench self-test: %s %s\n", SelfTestOk ? "PASS" : "FAIL",
                Why.c_str());
    return SelfTestOk ? 0 : 1;
  }
  if (!SelfTestOk)
    std::fprintf(stderr, "perfbench: self-test failed: %s\n", Why.c_str());
  if (O.Workload.empty() || O.TmpRoot.empty() || !(O.Seconds > 0)) {
    std::fprintf(stderr, "perfbench: --workload, --tmp-root and a positive "
                         "--seconds are required\n");
    return 2;
  }
  try {
    return runWorkload(O, SelfTestOk);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
