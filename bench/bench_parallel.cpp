//===- bench/bench_parallel.cpp - Parallel pipeline speedup ----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the full analysis pipeline (preset + runUsher) at --jobs=1
/// against --jobs=<hardware concurrency> over the 15-program SPEC-like
/// suite and emits machine-readable BENCH_parallel.json (schema
/// usher-bench-parallel-v1, validated by tools/check_bench_json.py).
///
/// Because jobs=N is contractually byte-identical to jobs=1, the harness
/// also cross-checks an analysis fingerprint (plan counts + VFG shape)
/// between the two configurations and aborts on any mismatch: a speedup
/// bought with a different answer is a bug, not a result.
///
/// The JSON header also records cores_available.
///
/// On a single-core host the "parallel" configuration degenerates to the
/// pool scheduling the same work on one worker; the JSON records the
/// measured ratio and the jobs count honestly, and EXPERIMENTS.md
/// interprets it. No thresholds are baked in here.
///
/// Usage: bench_parallel [--smoke] [--jobs=N] [--out=FILE]
///   --smoke     first three suite programs, single timing iteration;
///               used by the bench-smoke ctest.
///   --jobs=N    parallel configuration's worker count (default: all
///               cores).
///   --out=FILE  where to write the JSON (default: BENCH_parallel.json).
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "support/ThreadPool.h"
#include "transforms/Transforms.h"
#include "workload/Spec2000.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace usher;

namespace {

/// Cheap deterministic digest of everything the analysis decided. Any
/// serial-vs-parallel divergence that matters shows up in at least one of
/// these counters.
struct Fingerprint {
  uint64_t Checks = 0;
  uint64_t ShadowOps = 0;
  uint64_t VFGNodes = 0;
  uint64_t VFGEdges = 0;
  uint64_t Redirected = 0;
  bool operator==(const Fingerprint &O) const = default;
};

struct ConfigResult {
  double AnalyzeMs = 1e100; ///< Best-of-iterations wall time.
  Fingerprint FP;
};

/// One full analysis of \p B at \p Jobs workers; parses fresh per
/// iteration (the preset and heap cloning mutate the module).
ConfigResult runConfig(const workload::BenchmarkProgram &B, unsigned Jobs,
                       unsigned Iters) {
  ConfigResult R;
  for (unsigned It = 0; It != Iters; ++It) {
    auto M = workload::loadBenchmark(B);
    std::unique_ptr<ThreadPool> Pool;
    if (Jobs > 1)
      Pool = std::make_unique<ThreadPool>(Jobs);

    auto T0 = std::chrono::steady_clock::now();
    transforms::runPreset(*M, transforms::OptPreset::O1, Pool.get());
    core::UsherOptions Opts;
    Opts.Variant = core::ToolVariant::UsherFull;
    Opts.Jobs = Jobs;
    core::UsherResult UR = core::runUsher(*M, Opts);
    auto T1 = std::chrono::steady_clock::now();

    double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    Fingerprint FP{UR.Plan.countChecks(), UR.Plan.countShadowOps(),
                   UR.Stats.NumVFGNodes, UR.Stats.NumVFGEdges,
                   UR.Stats.NumRedirectedNodes};
    if (It > 0 && !(FP == R.FP)) {
      std::fprintf(stderr, "FATAL: %s: analysis not reproducible across "
                           "iterations at jobs=%u\n",
                   B.Name.c_str(), Jobs);
      std::abort();
    }
    R.FP = FP;
    if (Ms < R.AnalyzeMs)
      R.AnalyzeMs = Ms;
    if (UR.Degradation.Degraded) {
      std::fprintf(stderr, "FATAL: %s degraded with no budget armed\n",
                   B.Name.c_str());
      std::abort();
    }
  }
  return R;
}

struct BenchRow {
  std::string Name;
  ConfigResult Serial;
  ConfigResult Parallel;
  double speedup() const {
    return Parallel.AnalyzeMs > 0 ? Serial.AnalyzeMs / Parallel.AnalyzeMs : 0;
  }
};

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  unsigned Jobs = ThreadPool::defaultJobs();
  std::string OutPath = "BENCH_parallel.json";
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strncmp(argv[I], "--jobs=", 7) == 0) {
      Jobs = static_cast<unsigned>(std::strtoul(argv[I] + 7, nullptr, 10));
      if (Jobs == 0 || Jobs > 64) {
        std::fprintf(stderr, "bad --jobs value\n");
        return 2;
      }
    } else if (std::strncmp(argv[I], "--out=", 6) == 0) {
      OutPath = argv[I] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--jobs=N] [--out=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  // A 1-core default still exercises the pool machinery: schedule the
  // "parallel" configuration on at least two workers.
  if (Jobs < 2)
    Jobs = 2;

  const unsigned Iters = Smoke ? 1 : 3;
  const std::vector<workload::BenchmarkProgram> &Suite =
      workload::spec2000Suite();
  const size_t Count = Smoke ? std::min<size_t>(3, Suite.size())
                             : Suite.size();

  std::printf("parallel configuration: %u workers (hardware: %u)\n", Jobs,
              ThreadPool::defaultJobs());
  std::printf("%-12s %12s %12s %8s\n", "benchmark", "serial_ms",
              "parallel_ms", "speedup");
  std::vector<BenchRow> Rows;
  double MinSpeedup = 1e100, GeoAcc = 1.0;
  for (size_t I = 0; I != Count; ++I) {
    const workload::BenchmarkProgram &B = Suite[I];
    BenchRow Row;
    Row.Name = B.Name;
    Row.Serial = runConfig(B, 1, Iters);
    Row.Parallel = runConfig(B, Jobs, Iters);
    if (!(Row.Serial.FP == Row.Parallel.FP)) {
      std::fprintf(stderr,
                   "FATAL: %s: jobs=%u analysis diverged from serial\n",
                   B.Name.c_str(), Jobs);
      std::abort();
    }
    std::printf("%-12s %12.3f %12.3f %7.2fx\n", Row.Name.c_str(),
                Row.Serial.AnalyzeMs, Row.Parallel.AnalyzeMs, Row.speedup());
    if (Row.speedup() < MinSpeedup)
      MinSpeedup = Row.speedup();
    GeoAcc *= Row.speedup();
    Rows.push_back(std::move(Row));
  }
  double Geomean = Rows.empty() ? 0 : std::pow(GeoAcc, 1.0 / Rows.size());
  std::printf("min speedup %.2fx, geomean %.2fx%s\n", MinSpeedup, Geomean,
              Smoke ? " (smoke sizes; not meaningful)" : "");

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n  \"schema\": \"usher-bench-parallel-v1\",\n");
  std::fprintf(F, "  \"smoke\": %s,\n", Smoke ? "true" : "false");
  std::fprintf(F, "  \"iterations\": %u,\n", Iters);
  std::fprintf(F, "  \"jobs\": %u,\n", Jobs);
  std::fprintf(F, "  \"hardware_concurrency\": %u,\n",
               ThreadPool::defaultJobs());
  std::fprintf(F, "  \"cores_available\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(F, "  \"benchmarks\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const BenchRow &Row = Rows[I];
    std::fprintf(F, "    {\"name\": \"%s\", \"serial_ms\": %.4f, "
                    "\"parallel_ms\": %.4f, \"speedup\": %.4f, "
                    "\"vfg_nodes\": %llu, \"vfg_edges\": %llu, "
                    "\"checks\": %llu}%s\n",
                 Row.Name.c_str(), Row.Serial.AnalyzeMs,
                 Row.Parallel.AnalyzeMs, Row.speedup(),
                 static_cast<unsigned long long>(Row.Serial.FP.VFGNodes),
                 static_cast<unsigned long long>(Row.Serial.FP.VFGEdges),
                 static_cast<unsigned long long>(Row.Serial.FP.Checks),
                 I + 1 != Rows.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F, "  \"summary\": {\"min_speedup\": %.4f, "
                  "\"geomean_speedup\": %.4f}\n}\n",
               MinSpeedup, Geomean);
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
