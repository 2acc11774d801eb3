//===- perfbench/src/Trace.h - In-memory spans at layer boundaries ----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Every span is (name, start, end,
/// parent, request id); spans are kept in memory and written out as JSON
/// lines when the run ends. Spans are opened only from the benchmark's
/// own files, around calls into a library module's public functions, so
/// the library itself is measured unmodified.
///
/// A span's self time is its duration minus the part of its interval
/// covered by its direct children (the union of their intervals, clipped
/// to the parent) — the time the layer spent in its own code.
///
/// A disabled Tracer records nothing and costs one branch per span.
/// Single-threaded: the harness opens spans from its driving thread only.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_TRACE_H
#define CUASMRL_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval at a layer boundary.
struct Span {
  const char *Name = ""; ///< Static "layer.operation" string.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;   ///< Index of the enclosing span; -1 = root.
  uint64_t Request = 0;  ///< Spans of one request share this id.

  int64_t durationNs() const { return EndNs - StartNs; }
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled) {}

  bool enabled() const { return On; }

  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span nested in the innermost open one; a zero \p Request
  /// inherits the parent's. \returns its index, or -1 when disabled.
  int32_t open(const char *Name, uint64_t Request = 0);
  void close(int32_t Id);

  /// Records an already-finished span (synthetic spans in self-tests).
  int32_t add(const char *Name, int64_t StartNs, int64_t EndNs,
              int32_t Parent, uint64_t Request);

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool On;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack; ///< Open spans, innermost last.
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, uint64_t Request = 0)
      : T(T), Id(T.open(Name, Request)) {}
  ~ScopedSpan() { T.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

/// Self time of every span (parallel to \p Spans).
std::vector<int64_t> selfTimes(const std::vector<Span> &Spans);

/// Per-name aggregate: calls, summed duration, summed self time.
struct LayerTotals {
  uint64_t Count = 0;
  int64_t TotalNs = 0;
  int64_t SelfNs = 0;
};
std::map<std::string, LayerTotals> totalsByName(const std::vector<Span> &Spans);

/// Writes one JSON object per span (with its self time) to \p Path.
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_TRACE_H
