//===- perfbench/src/Stats.h - The benchmark's own arithmetic ---------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Percentiles, geometric means, per-key medians, trimmed means and
/// failure accounting, kept apart from the harness so the self-tests
/// (selfTest() in main.cpp) pin them.
///
/// Percentile rule: a percentile is reported only when at least ten
/// samples lie beyond it — p99 needs 1000 samples, p90 needs 100 — and
/// the median needs one. Below that the value is refused (nullopt), never
/// extrapolated from a handful of points.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_STATS_H
#define CUASMRL_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// True when \p N samples are enough to report quantile \p Q.
inline bool enoughSamples(size_t N, double Q) {
  if (N == 0)
    return false;
  if (Q <= 0.5)
    return true;
  // N * (1 - Q) >= 10, tolerant of the rounding in 1 - Q.
  return static_cast<double>(N) * (1.0 - Q) >= 10.0 - 1e-6;
}

/// Quantile \p Q in [0, 1] of \p Values by linear interpolation between
/// the closest ranks; nullopt when the sample count is refused.
inline std::optional<double> percentile(std::vector<double> Values,
                                        double Q) {
  if (!enoughSamples(Values.size(), Q))
    return std::nullopt;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
}

/// Geometric mean; nullopt for an empty set or any non-positive value.
inline std::optional<double> geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return std::nullopt;
  double LogSum = 0.0;
  for (double V : Values) {
    if (!(V > 0.0))
      return std::nullopt;
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// The median of each key's samples, in key order; keys without samples
/// are skipped.
inline std::vector<double>
keyMedians(const std::map<std::string, std::vector<double>> &ByKey) {
  std::vector<double> Medians;
  for (const auto &[Key, Values] : ByKey)
    if (std::optional<double> M = percentile(Values, 0.5))
      Medians.push_back(*M);
  return Medians;
}

/// Mean of the smallest \p Keep share of \p Values (at least one value);
/// 0 when empty. Drops the rare sample a preemption stretched.
inline double lowMean(std::vector<double> Values, double Keep) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const size_t N = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(Keep * double(Values.size()) - 1e-9)), 1,
      Values.size());
  double Sum = 0.0;
  for (size_t I = 0; I < N; ++I)
    Sum += Values[I];
  return Sum / static_cast<double>(N);
}

inline double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

/// How one request ended, as the harness saw it. Anything but Ok is a
/// failure: the request was never answered, answered with a status its
/// class does not allow (refusals included), or answered with bytes
/// that failed a correctness check.
enum class Verdict { Ok, TransportError, WrongStatus, CheckFailed };

/// Failure accounting over every request the harness sent.
struct FailureTally {
  uint64_t Attempted = 0;
  uint64_t Transport = 0;
  uint64_t WrongStatus = 0;
  uint64_t CheckFailed = 0;

  void record(Verdict V) {
    ++Attempted;
    switch (V) {
    case Verdict::Ok:
      break;
    case Verdict::TransportError:
      ++Transport;
      break;
    case Verdict::WrongStatus:
      ++WrongStatus;
      break;
    case Verdict::CheckFailed:
      ++CheckFailed;
      break;
    }
  }
  /// Requests first counted Ok whose bytes failed a deferred check (the
  /// oracle comparison runs after the timed window).
  void demote(uint64_t N) { CheckFailed += N; }

  uint64_t failed() const {
    return std::min(Attempted, Transport + WrongStatus + CheckFailed);
  }
  double failedShare() const {
    return Attempted ? double(failed()) / double(Attempted) : 0.0;
  }
};

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_STATS_H
