//===- perfbench/main.cpp - Usher end-to-end benchmark driver -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and prints a human-readable report followed, as the
/// last line of standard output, by one JSON object:
///
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
///
/// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
/// report the per-layer metrics and write a Chrome trace. See README.md.
///
/// Usage: perfbench --workload <suite-exec|synth-large|pta-deref|serve-edit>
///                  --seed N --seconds S --trace 0|1 [--tiny] [--out-dir D]
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>

using namespace perfbench;

//===----------------------------------------------------------------------===//
// Shared plumbing
//===----------------------------------------------------------------------===//

void Outcome::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", What.c_str());
  }
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double perfbench::mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / V.size();
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

namespace {

volatile uint64_t CalibrationSink; // Keeps the kernel's result alive.

double calibrationKernelMs() {
  auto T0 = Clock::now();
  std::unordered_map<uint64_t, uint64_t> M;
  std::vector<uint64_t> V;
  uint64_t X = 42;
  for (int I = 0; I != 100000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    M[(X >> 33) % 50000] += I;
    V.push_back(X >> 7);
  }
  std::sort(V.begin(), V.end());
  uint64_t S = V[V.size() / 2];
  for (const auto &[K, C] : M)
    S += K ^ C;
  CalibrationSink = S;
  return msSince(T0);
}

} // namespace

void Calibrator::tick() {
  if (!Samples.empty() && msSince(Last) < 200)
    return;
  Samples.push_back(calibrationKernelMs());
  Last = Clock::now();
}

double Calibrator::totalMs() const {
  double S = 0;
  for (double X : Samples)
    S += X;
  return S;
}

void perfbench::reportOverhead(const char *Name, double Untraced,
                               double Traced) {
  std::printf("  %-12s untraced %10.4f cal  traced %10.4f cal  overhead "
              "%+9.4f cal (%+.1f%%)\n",
              Name, Untraced, Traced, Traced - Untraced,
              Untraced > 0 ? 100.0 * (Traced - Untraced) / Untraced : 0.0);
}

void perfbench::report(const char *Name, double Value, const char *Unit,
                       const std::string &Note) {
  std::printf("  %-28s %14.4f %-6s %s\n", Name, Value, Unit, Note.c_str());
}

namespace {

/// Per-layer metrics in the order BENCHMARK.json lists them. Spans give
/// self times; counters and gauges are read off each layer's results.
struct LayerDef {
  const char *Metric;
  const char *Unit;
  enum { SpanMs, Counter, Gauge, Extra } Kind;
  const char *Source; ///< Span or counter name.
};

const LayerDef LayerDefs[] = {
    {"parse.ms", "ms", LayerDef::SpanMs, "parse"},
    {"preset.ms", "ms", LayerDef::SpanMs, "preset"},
    {"callgraph.ms", "ms", LayerDef::SpanMs, "callgraph"},
    {"pta.ms", "ms", LayerDef::SpanMs, "pta"},
    {"pta.propagations", "count", LayerDef::Counter, "pta.propagations"},
    {"pta.pops", "count", LayerDef::Counter, "pta.pops"},
    {"pta.collapses", "count", LayerDef::Counter, "pta.collapses"},
    {"pta.avg_pts_size", "locs", LayerDef::Gauge, "pta.avg_pts_size"},
    {"modref.ms", "ms", LayerDef::SpanMs, "modref"},
    {"memssa.ms", "ms", LayerDef::SpanMs, "memssa"},
    {"vfg.ms", "ms", LayerDef::SpanMs, "vfg"},
    {"vfg.nodes", "count", LayerDef::Counter, "vfg.nodes"},
    {"vfg.edges", "count", LayerDef::Counter, "vfg.edges"},
    {"definedness.ms", "ms", LayerDef::SpanMs, "definedness"},
    {"definedness.undef_nodes", "count", LayerDef::Counter,
     "definedness.undef_nodes"},
    {"opt2.ms", "ms", LayerDef::SpanMs, "opt2"},
    {"opt2.redirected", "count", LayerDef::Counter, "opt2.redirected"},
    {"plan.ms", "ms", LayerDef::SpanMs, "plan"},
    {"plan.checks", "count", LayerDef::Counter, "plan.checks"},
    {"plan.shadow_ops", "count", LayerDef::Counter, "plan.shadow_ops"},
    {"plan.simplified_mfcs", "count", LayerDef::Counter,
     "plan.simplified_mfcs"},
    {"shadowopt.ms", "ms", LayerDef::SpanMs, "shadowopt"},
    {"exec.native_ms", "ms", LayerDef::SpanMs, "exec.native"},
    {"exec.msan_ms", "ms", LayerDef::SpanMs, "exec.msan"},
    {"exec.usher_ms", "ms", LayerDef::SpanMs, "exec.usher"},
    {"exec.steps", "count", LayerDef::Counter, "exec.steps"},
    {"exec.dyn_shadow_ops", "count", LayerDef::Counter, "exec.dyn_shadow_ops"},
    {"exec.dyn_checks", "count", LayerDef::Counter, "exec.dyn_checks"},
    {"exec.ns_per_step", "ns", LayerDef::Extra, nullptr},
    {"costmodel.rank_corr", "rho", LayerDef::Extra, nullptr},
    {"serve.wire_ms", "ms", LayerDef::SpanMs, "request"},
    {"serve.session_ms", "ms", LayerDef::SpanMs, "session"},
    {"serve.warm_hit_ratio", "ratio", LayerDef::Extra, nullptr},
    {"snapshot.load_ms", "ms", LayerDef::SpanMs, "snapshot.load"},
    {"snapshot.save_ms", "ms", LayerDef::SpanMs, "snapshot.save"},
    {"snapshot.hits", "count", LayerDef::Counter, "snapshot.hits"},
    {"snapshot.misses", "count", LayerDef::Counter, "snapshot.misses"},
    {"snapshot.writes", "count", LayerDef::Counter, "snapshot.writes"},
};

} // namespace

void perfbench::addLayerMetrics(Outcome &Out, double Units,
                                const std::vector<Metric> &Extra) {
  const std::vector<trace::Span> Spans = trace::spans();
  const auto Self = trace::selfTimes(Spans);
  const auto Counters = trace::counters();
  const auto Gauges = trace::gauges();
  const double PerUnit = Units > 0 ? 1.0 / Units : 0.0;

  for (const LayerDef &D : LayerDefs) {
    double V = 0;
    switch (D.Kind) {
    case LayerDef::SpanMs:
      if (auto It = Self.find(D.Source); It != Self.end())
        V = It->second.SelfMs * PerUnit;
      break;
    case LayerDef::Counter:
      if (auto It = Counters.find(D.Source); It != Counters.end())
        V = It->second * PerUnit;
      break;
    case LayerDef::Gauge:
      if (auto It = Gauges.find(D.Source); It != Gauges.end())
        V = It->second;
      break;
    case LayerDef::Extra:
      for (const Metric &M : Extra)
        if (M.Name == D.Metric)
          V = M.Value;
      break;
    }
    Out.Layers.push_back({D.Metric, V, D.Unit});
  }

  // Every span the run recorded, including the benchmark's own unit and
  // request roots, so the table accounts for the whole traced interval.
  std::vector<std::pair<std::string, trace::LayerTime>> Rows(Self.begin(),
                                                             Self.end());
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second.SelfMs > B.second.SelfMs;
  });
  double Total = 0;
  for (const auto &R : Rows)
    Total += R.second.SelfMs;
  std::printf("per-layer self time (%zu spans, %.0f units):\n", Spans.size(),
              Units);
  std::printf("  %-16s %12s %12s %8s %8s\n", "span", "ms/unit", "total_ms",
              "calls", "share");
  for (const auto &[Name, T] : Rows)
    std::printf("  %-16s %12.4f %12.3f %8llu %7.1f%%\n", Name.c_str(),
                T.SelfMs * PerUnit, T.SelfMs,
                static_cast<unsigned long long>(T.Calls),
                Total > 0 ? 100.0 * T.SelfMs / Total : 0.0);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<suite-exec|synth-large|pta-deref|serve-edit> --seed N "
               "--seconds S --trace 0|1 [--tiny] [--out-dir DIR]\n",
               Msg);
  std::exit(2);
}

void printMetrics(const std::vector<Metric> &Ms) {
  std::printf("\"metrics\": {");
  for (size_t I = 0; I != Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}");
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--out-dir")
      O.OutDir = Next();
    else if (A == "--tiny")
      O.Tiny = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");

  Outcome Out;
  if (O.Workload == "suite-exec" || O.Workload == "synth-large" ||
      O.Workload == "pta-deref")
    Out = runCompileRun(O);
  else if (O.Workload == "serve-edit")
    Out = runServeEdit(O);
  else
    usage(("unknown workload '" + O.Workload + "'").c_str());

  std::printf("failed_frac %.6f (%llu of %llu operations)\n",
              Out.Attempted ? double(Out.Failed) / Out.Attempted : 0.0,
              static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              Out.Failed == 0 && Out.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  printMetrics(O.Trace ? Out.Layers : Out.EndToEnd);
  std::printf("}\n");
  return 0;
}
