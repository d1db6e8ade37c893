//===- perfbench/Trace.cpp - Spans and counters for the traced run --------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

using namespace perfbench;
using namespace perfbench::trace;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point Epoch = Clock::now();
std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextId{1};
std::atomic<uint32_t> NextTid{1};

std::mutex Mtx; // Guards everything below.
std::vector<Span> Done;
std::map<std::string, double> Counters;
std::map<std::string, std::pair<double, uint64_t>> Gauges;
std::unordered_map<uint64_t, uint64_t> RequestRoots; // Req -> span id.

thread_local uint32_t ThreadId = 0;
thread_local std::vector<uint64_t> Open; // Ids of this thread's open spans.
thread_local uint64_t CurReq = 0;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

} // namespace

void trace::setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char *Name) : Name(Name) {
  if (!enabled())
    return;
  Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Req = CurReq;
  if (!Open.empty()) {
    Parent = Open.back();
  } else if (Req != 0) {
    std::lock_guard<std::mutex> L(Mtx);
    auto It = RequestRoots.find(Req);
    if (It != RequestRoots.end())
      Parent = It->second;
  }
  Open.push_back(Id);
  StartNs = nowNs();
}

Scope::~Scope() {
  if (!Id)
    return;
  const int64_t EndNs = nowNs();
  Open.pop_back();
  if (!ThreadId)
    ThreadId = NextTid.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> L(Mtx);
  Done.push_back({Id, Parent, Req, Name, ThreadId, StartNs, EndNs - StartNs});
}

RequestScope::RequestScope(uint64_t R, bool Root)
    : Prev(CurReq), Req(R), IsRoot(Root && enabled() && !Open.empty()) {
  CurReq = Req;
  if (IsRoot) {
    std::lock_guard<std::mutex> L(Mtx);
    RequestRoots[Req] = Open.back();
  }
}

RequestScope::~RequestScope() {
  if (IsRoot) {
    std::lock_guard<std::mutex> L(Mtx);
    RequestRoots.erase(Req);
  }
  CurReq = Prev;
}

void trace::count(const char *Name, double V) {
  std::lock_guard<std::mutex> L(Mtx);
  Counters[Name] += V;
}

void trace::observe(const char *Name, double V) {
  std::lock_guard<std::mutex> L(Mtx);
  auto &G = Gauges[Name];
  G.first += V;
  ++G.second;
}

void trace::reset() {
  std::lock_guard<std::mutex> L(Mtx);
  Done.clear();
  Counters.clear();
  Gauges.clear();
}

std::vector<Span> trace::spans() {
  std::lock_guard<std::mutex> L(Mtx);
  return Done;
}

std::map<std::string, double> trace::counters() {
  std::lock_guard<std::mutex> L(Mtx);
  return Counters;
}

std::map<std::string, double> trace::gauges() {
  std::lock_guard<std::mutex> L(Mtx);
  std::map<std::string, double> Out;
  for (const auto &[Name, G] : Gauges)
    Out[Name] = G.second ? G.first / G.second : 0.0;
  return Out;
}

std::map<std::string, LayerTime>
trace::selfTimes(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, int64_t> ChildNs;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildNs[S.Parent] += S.DurNs;
  std::map<std::string, LayerTime> Out;
  for (const Span &S : Spans) {
    int64_t Self = S.DurNs;
    if (auto It = ChildNs.find(S.Id); It != ChildNs.end())
      Self -= It->second;
    LayerTime &T = Out[S.Name];
    T.SelfMs += (Self > 0 ? Self : 0) / 1e6;
    ++T.Calls;
  }
  return Out;
}

bool trace::writeChromeTrace(const std::string &Path,
                             const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"req\": %llu}}%s\n",
                 S.Name, S.StartNs / 1e3, S.DurNs / 1e3, S.Tid,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Req),
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}
