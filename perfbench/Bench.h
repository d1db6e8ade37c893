//===- perfbench/Bench.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run options, the outcome record the
/// driver turns into the result line, sample statistics, and the
/// per-layer metric table computed from a traced phase.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_PERFBENCH_BENCH_H
#define USHER_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Self-test sizes: every workload once, in well under a second each.
  bool Tiny = false;
  /// Where the traced run writes its Chrome trace.
  std::string OutDir = ".";
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything one workload run produced.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The end-to-end metrics (from an untraced phase).
  std::vector<Metric> EndToEnd;
  /// The per-layer metrics (from the traced phase; empty when untraced).
  std::vector<Metric> Layers;

  /// Counts one checked operation; a false \p Ok is reported on stderr.
  void check(bool Ok, const std::string &What);
};

/// Nearest-rank percentile (\p P in [0, 1]); 0 for no samples.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}
double mean(const std::vector<double> &V);


/// The speed of the machine right now, measured between units of work.
///
/// On a shared host the same work can take twice as long from one minute
/// to the next, and no statistic over raw wall times removes that. A fixed
/// kernel that no change to the repository can touch (hash-map updates and
/// a sort, ~15 ms) is timed at most every 200 ms of measured work; a unit's
/// time divided by the median of the last five kernel times is then in
/// "cal" units, which move when the program's speed changes and not when
/// the machine's does. The raw milliseconds are reported alongside.
class Calibrator {
public:
  /// Times the kernel if 200 ms have passed since the last sample.
  void tick();
  /// \p Ms in cal units at the machine's recent speed.
  double cal(double Ms) const {
    const size_t N = std::min<size_t>(5, Samples.size());
    return Ms / median({Samples.end() - N, Samples.end()});
  }
  double medianMs() const { return median(Samples); }
  /// Time spent in the kernel, to leave out of throughput.
  double totalMs() const;

private:
  std::vector<double> Samples;
  Clock::time_point Last;
};

/// Process high-water resident set (VmHWM), in MiB.
double peakRssMb();

/// Prints one human-readable report line: name, value, unit, note.
void report(const char *Name, double Value, const char *Unit,
            const std::string &Note = "");

/// Prints one tracing-overhead line: traced minus untraced, in cal units.
void reportOverhead(const char *Name, double Untraced, double Traced);

/// Runs setup \p Reps times and returns the median wall time in seconds;
/// \p Setup is called with the repetition index and must leave the state
/// of the last repetition in place for the measurement.
template <typename Fn> double timeSetup(unsigned Reps, Fn &&Setup) {
  std::vector<double> S;
  for (unsigned R = 0; R != Reps; ++R) {
    auto T0 = Clock::now();
    Setup(R);
    S.push_back(msSince(T0) / 1000.0);
  }
  return median(S);
}

/// Fills Out.Layers from the spans and counters recorded since the last
/// trace::reset(). Per-layer times and counts are per unit of the
/// workload's loop (one program turnaround, or one served request).
/// \p Extra carries metrics only the workload can compute (exec split by
/// plan, warm-hit ratio, rank correlation). Also prints the layer table.
void addLayerMetrics(Outcome &Out, double Units,
                     const std::vector<Metric> &Extra);

/// The three workloads that compile a program and run it (suite-exec,
/// synth-large, pta-deref), and the service workload (serve-edit).
Outcome runCompileRun(const Options &O);
Outcome runServeEdit(const Options &O);

} // namespace perfbench

#endif // USHER_PERFBENCH_BENCH_H
