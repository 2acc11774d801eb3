//===- perfbench/src/Trace.cpp ----------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace perfbench;

int32_t Tracer::open(const char *Name, uint64_t Request) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request =
      Request == 0 && S.Parent >= 0 ? Spans[size_t(S.Parent)].Request : Request;
  S.StartNs = nowNs();
  Spans.push_back(S);
  const int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void Tracer::close(int32_t Id) {
  if (Id < 0)
    return;
  Spans[size_t(Id)].EndNs = nowNs();
  // Spans close in LIFO order (ScopedSpan), so Id is the innermost.
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

int32_t Tracer::add(const char *Name, int64_t StartNs, int64_t EndNs,
                    int32_t Parent, uint64_t Request) {
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  S.Parent = Parent;
  S.Request = Request;
  Spans.push_back(S);
  return static_cast<int32_t>(Spans.size() - 1);
}

std::vector<int64_t> perfbench::selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && size_t(S.Parent) < Spans.size())
      Children[size_t(S.Parent)].push_back({S.StartNs, S.EndNs});

  std::vector<int64_t> Self(Spans.size(), 0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    std::vector<std::pair<int64_t, int64_t>> &C = Children[I];
    std::sort(C.begin(), C.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t Covered = 0;
    int64_t RunStart = 0, RunEnd = 0;
    bool InRun = false;
    for (auto [Start, End] : C) {
      Start = std::max(Start, P.StartNs);
      End = std::min(End, P.EndNs);
      if (End <= Start)
        continue;
      if (InRun && Start <= RunEnd) {
        RunEnd = std::max(RunEnd, End);
        continue;
      }
      if (InRun)
        Covered += RunEnd - RunStart;
      RunStart = Start;
      RunEnd = End;
      InRun = true;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    Self[I] = P.durationNs() - Covered;
  }
  return Self;
}

std::map<std::string, LayerTotals>
perfbench::totalsByName(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self = selfTimes(Spans);
  std::map<std::string, LayerTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    LayerTotals &T = Out[Spans[I].Name];
    ++T.Count;
    T.TotalNs += Spans[I].durationNs();
    T.SelfNs += Self[I];
  }
  return Out;
}

bool perfbench::writeSpans(const std::string &Path,
                           const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<int64_t> Self = selfTimes(Spans);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu,"
                 "\"self_ns\":%lld}\n",
                 I, S.Name, static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs), S.Parent,
                 static_cast<unsigned long long>(S.Request),
                 static_cast<long long>(Self[I]));
  }
  return std::fclose(F) == 0;
}
