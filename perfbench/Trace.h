//===- perfbench/Trace.h - Spans and counters for the traced run -*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: spans opened around calls into the layers'
/// public entry points (from the workloads, and from the link-time
/// wrappers in Wrap.cpp for calls the program makes internally), plus
/// named counters read off the layers' results. Everything is kept in
/// memory and written out once the run ends.
///
/// Tracing is off unless setEnabled(true); a disabled Scope costs one
/// relaxed atomic load, so untraced runs measure the same binary.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_PERFBENCH_TRACE_H
#define USHER_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

/// One finished span. Times are steady-clock nanoseconds since the first
/// span of the process.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root.
  uint64_t Req = 0;    ///< Program/request id shared by a unit's spans.
  const char *Name = "";
  uint32_t Tid = 0;
  int64_t StartNs = 0;
  int64_t DurNs = 0;
};

void setEnabled(bool On);
bool enabled();

/// Times one layer call on the current thread. Spans nest by scope; the
/// first span opened on a thread with no open span attaches to the root
/// registered for the thread's current request (see RequestScope).
class Scope {
public:
  explicit Scope(const char *Name);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  bool active() const { return Id != 0; }

private:
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Req = 0;
  const char *Name;
  int64_t StartNs = 0;
};

/// Marks the current thread as working for request \p Req until the scope
/// ends. With \p IsRoot the innermost span open on this thread becomes the
/// parent of spans other threads open for the same request (the client's
/// call span parents the daemon worker's Session::handle span).
class RequestScope {
public:
  RequestScope(uint64_t Req, bool IsRoot);
  ~RequestScope();
  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

private:
  uint64_t Prev;
  uint64_t Req;
  bool IsRoot;
};

/// Adds \p V to counter \p Name (summed over the run).
void count(const char *Name, double V);
/// Records one observation of gauge \p Name (averaged over the run).
void observe(const char *Name, double V);

/// Drops every span and counter recorded so far.
void reset();
std::vector<Span> spans();
std::map<std::string, double> counters();
std::map<std::string, double> gauges();

/// Per span name: summed self time in ms (duration minus the part covered
/// by child spans, on any thread) and number of spans.
struct LayerTime {
  double SelfMs = 0;
  uint64_t Calls = 0;
};
std::map<std::string, LayerTime> selfTimes(const std::vector<Span> &Spans);

/// Writes \p Spans as Chrome trace-event JSON (viewable in Perfetto).
bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans);

} // namespace trace
} // namespace perfbench

#endif // USHER_PERFBENCH_TRACE_H
