//===- bench/bench_scale.cpp - Pipeline scaling curves ---------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how every pipeline phase scales with program size, using the
/// workload synthesizer (workload/Synthesizer.h) as the size dial: five
/// shape specs spanning roughly 1k to about 500k VFG nodes (counted
/// unpruned: the nodes built plus the memory versions pruned), each run
/// through the reference pipeline (configuration andersen-global).
///
/// Per size the JSON (schema usher-bench-scale-v1,
/// validated by tools/check_bench_json.py) records wall time for parse,
/// mem2reg (the O1 preset), and each runUsher phase (pointer analysis,
/// memory SSA, VFG, definedness, Opt II), plus peak RSS — the raw data
/// behind the scaling-curve analysis in EXPERIMENTS.md.
///
/// The harness checks answers, not just times: the pipeline must
/// reproduce its fingerprint (plan counts, VFG shape and runtime
/// warnings) on every iteration. Any mismatch aborts: a curve bought with
/// a different answer is a bug, not a result.
///
/// Usage: bench_scale [--smoke] [--out=FILE]
///   --smoke     two smallest sizes, single iteration; used by the
///               bench-smoke ctest.
///   --out=FILE  where to write the JSON (default: BENCH_scale.json).
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/JsonWriter.h"
#include "transforms/Transforms.h"
#include "workload/Synthesizer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace usher;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// One size rung of the scaling ladder. The smallest rung uses a shallow
/// shape: the default 6-deep/3-wide call graph has a ~25-function skeleton
/// whose VFG floor is ~9k nodes, so "about 1k nodes" needs fewer
/// functions, not just a smaller target.
struct SizeSpec {
  const char *Name;
  workload::ShapeSpec Shape;
};

std::vector<SizeSpec> sizeLadder() {
  std::vector<SizeSpec> Sizes;
  {
    workload::ShapeSpec S;
    S.TargetNodes = 2'000;
    S.CallDepth = 2;
    S.Fanout = 2;
    S.RecursionRings = 1;
    S.RingSize = 2;
    Sizes.push_back({"tiny", S});
  }
  {
    workload::ShapeSpec S;
    S.TargetNodes = 10'000;
    Sizes.push_back({"small", S});
  }
  {
    workload::ShapeSpec S;
    S.TargetNodes = 40'000;
    Sizes.push_back({"medium", S});
  }
  {
    // Calibrated to land comfortably past the 100k-node mark (the dial
    // undershoots by ~3% at this scale).
    workload::ShapeSpec S;
    S.TargetNodes = 150'000;
    Sizes.push_back({"large", S});
  }
  {
    // About half a million unpruned nodes, where superlinear phases show.
    workload::ShapeSpec S;
    S.TargetNodes = 600'000;
    Sizes.push_back({"xlarge", S});
  }
  return Sizes;
}

/// Everything the analysis decided plus everything the instrumented run
/// observed; repeated iterations compare the whole struct.
struct Fingerprint {
  uint64_t Checks = 0;
  uint64_t ShadowOps = 0;
  uint64_t VFGNodes = 0;
  uint64_t VFGEdges = 0;
  uint64_t Redirected = 0;
  int64_t RunResult = 0;
  std::vector<std::string> RunWarnings; ///< Sorted warningSiteKey()s.
  bool operator==(const Fingerprint &O) const = default;
};

struct ConfigRow {
  std::string Name;
  double ParseMs = 0;
  double Mem2RegMs = 0;
  double AnalyzeMs = 0; ///< runUsher wall time (sum of the phases).
  double PtaMs = 0;
  double SsaMs = 0;
  double VfgMs = 0;
  double DefinednessMs = 0;
  double Opt2Ms = 0;
  uint64_t PeakRSSBytes = 0;
  Fingerprint FP;
  /// Memory SSA versions the unpruned VFG leaves out; plus FP.VFGNodes,
  /// the unpruned graph's size, which is the ladder's size axis.
  uint64_t VFGPruned = 0;
  uint64_t unprunedNodes() const { return FP.VFGNodes + VFGPruned; }
};

struct SizeRow {
  std::string Name;
  unsigned TargetNodes = 0;
  double SynthesizeMs = 0;
  uint64_t Functions = 0;
  uint64_t Instructions = 0;
  ConfigRow Config;
};

/// The one configuration's name in the report.
constexpr const char *ConfigName = "andersen-global";

double phaseMs(const core::UsherResult &UR, const char *Key) {
  auto It = UR.Stats.PhaseSeconds.find(Key);
  return It == UR.Stats.PhaseSeconds.end() ? 0.0 : It->second * 1000.0;
}

/// One full pipeline + instrumented execution of \p Source. Parses fresh
/// per iteration (the preset and heap cloning mutate the module); times
/// are best-of-\p Iters, the fingerprint must reproduce.
ConfigRow runConfig(const std::string &Source, unsigned Iters) {
  ConfigRow Row;
  Row.Name = ConfigName;
  double BestTotal = 1e100;
  for (unsigned It = 0; It != Iters; ++It) {
    auto T0 = Clock::now();
    parser::ParseResult PR = parser::parseModule(Source);
    double ParseMs = msSince(T0);
    if (!PR.succeeded()) {
      std::fprintf(stderr, "FATAL: synthesized program failed to parse\n");
      std::abort();
    }

    T0 = Clock::now();
    transforms::runPreset(*PR.M, transforms::OptPreset::O1);
    double Mem2RegMs = msSince(T0);

    T0 = Clock::now();
    core::UsherResult UR = core::runUsher(*PR.M, core::UsherOptions());
    double AnalyzeMs = msSince(T0);
    if (UR.Degradation.Degraded) {
      std::fprintf(stderr, "FATAL: degraded with no budget armed\n");
      std::abort();
    }

    runtime::ExecutionReport Rep =
        runtime::Interpreter(*PR.M, &UR.Plan).run();
    if (Rep.Reason != runtime::ExitReason::Finished) {
      std::fprintf(stderr, "FATAL: run did not finish: %s\n",
                   Rep.TrapMessage.c_str());
      std::abort();
    }

    Fingerprint FP;
    FP.Checks = UR.Plan.countChecks();
    FP.ShadowOps = UR.Plan.countShadowOps();
    FP.VFGNodes = UR.Stats.NumVFGNodes;
    FP.VFGEdges = UR.Stats.NumVFGEdges;
    FP.Redirected = UR.Stats.NumRedirectedNodes;
    FP.RunResult = Rep.MainResult;
    for (const runtime::Warning &W : Rep.ToolWarnings)
      FP.RunWarnings.push_back(workload::warningSiteKey(W.At));
    std::sort(FP.RunWarnings.begin(), FP.RunWarnings.end());
    if (It > 0 && !(FP == Row.FP)) {
      std::fprintf(stderr,
                   "FATAL: analysis not reproducible across iterations\n");
      std::abort();
    }
    Row.FP = std::move(FP);

    if (AnalyzeMs < BestTotal) {
      BestTotal = AnalyzeMs;
      Row.ParseMs = ParseMs;
      Row.Mem2RegMs = Mem2RegMs;
      Row.AnalyzeMs = AnalyzeMs;
      Row.PtaMs = phaseMs(UR, "1.pointer-analysis");
      Row.SsaMs = phaseMs(UR, "2.memory-ssa");
      Row.VfgMs = phaseMs(UR, "3.vfg");
      Row.DefinednessMs = phaseMs(UR, "4.definedness");
      Row.Opt2Ms = phaseMs(UR, "5.opt2");
      Row.PeakRSSBytes = UR.Stats.PeakRSSBytes;
    }
  }
  return Row;
}

/// Fills \p Row's VFGPruned: one more run of \p Source, then the
/// unpruned measurement. Its build would raise the process-wide peak RSS,
/// so it runs only after every row's peak has been read.
void measureVFGPruned(const std::string &Source, ConfigRow &Row) {
  parser::ParseResult PR = parser::parseModule(Source);
  transforms::runPreset(*PR.M, transforms::OptPreset::O1);
  const core::UsherOptions Opts;
  core::UsherResult UR = core::runUsher(*PR.M, Opts);
  core::measureUnpruned(*PR.M, Opts, UR);
  Row.VFGPruned = UR.Stats.NumPrunedMemVersions;
}

void printConfigJson(JsonWriter &W, const ConfigRow &R) {
  W.beginObject(JsonWriter::Layout::Inline);
  W.members("name", R.Name, "parse_ms", R.ParseMs, "mem2reg_ms", R.Mem2RegMs,
            "analyze_ms", R.AnalyzeMs, "peak_rss_bytes", R.PeakRSSBytes);
  W.key("phases").beginObject(JsonWriter::Layout::Inline);
  W.members("pointer_analysis_ms", R.PtaMs, "memory_ssa_ms", R.SsaMs,
            "vfg_ms", R.VfgMs, "definedness_ms", R.DefinednessMs,
            "opt2_ms", R.Opt2Ms);
  W.end().members("vfg_nodes", R.FP.VFGNodes, "vfg_edges", R.FP.VFGEdges,
                  "vfg_pruned", R.VFGPruned, "checks", R.FP.Checks,
                  "shadow_ops", R.FP.ShadowOps,
                  "warning_sites", R.FP.RunWarnings.size());
  W.end();
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_scale.json";
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strncmp(argv[I], "--out=", 6) == 0) {
      OutPath = argv[I] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=FILE]\n", argv[0]);
      return 2;
    }
  }

  const unsigned Iters = Smoke ? 1 : 2;
  std::vector<SizeSpec> Sizes = sizeLadder();
  if (Smoke)
    Sizes.resize(2); // tiny + small: the curve's shape, not its reach.

  std::vector<SizeRow> Rows;
  for (const SizeSpec &S : Sizes) {
    SizeRow Row;
    Row.Name = S.Name;
    Row.TargetNodes = S.Shape.TargetNodes;

    auto T0 = Clock::now();
    std::string Source = workload::synthesizeProgram(S.Shape);
    Row.SynthesizeMs = msSince(T0);

    {
      parser::ParseResult PR = parser::parseModule(Source);
      if (!PR.succeeded()) {
        std::fprintf(stderr, "FATAL: %s failed to parse\n", S.Name);
        return 1;
      }
      workload::ShapeMetrics Met = workload::measureShape(*PR.M);
      Row.Functions = Met.NumFunctions;
      Row.Instructions = Met.NumInstructions;
    }

    Row.Config = runConfig(Source, Iters);
    Rows.push_back(std::move(Row));
  }

  // Last, once every timing and peak is read: the unpruned sizes.
  for (size_t I = 0; I != Rows.size(); ++I) {
    SizeRow &Row = Rows[I];
    const std::string Source = workload::synthesizeProgram(Sizes[I].Shape);
    measureVFGPruned(Source, Row.Config);
    std::printf("%-8s %8llu instrs %9llu nodes (%llu unpruned)  %s=%.0fms\n",
                Row.Name.c_str(),
                static_cast<unsigned long long>(Row.Instructions),
                static_cast<unsigned long long>(Row.Config.FP.VFGNodes),
                static_cast<unsigned long long>(Row.Config.unprunedNodes()),
                Row.Config.Name.c_str(), Row.Config.AnalyzeMs);
  }

  // The ladder must actually climb: strictly more unpruned VFG nodes per
  // rung.
  for (size_t I = 1; I != Rows.size(); ++I) {
    if (Rows[I].Config.unprunedNodes() <=
        Rows[I - 1].Config.unprunedNodes()) {
      std::fprintf(stderr, "FATAL: size ladder is not monotone\n");
      std::abort();
    }
  }

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  raw_fd_ostream OS(F);
  JsonWriter W(OS);
  W.beginObject().members("schema", "usher-bench-scale-v1", "smoke", Smoke,
                          "iterations", Iters, "hardware_concurrency",
                          std::max(1u, std::thread::hardware_concurrency()));
  W.key("sizes").beginArray();
  for (const SizeRow &Row : Rows) {
    W.beginObject().members(
        "name", Row.Name, "target_nodes", Row.TargetNodes,
        "synthesize_ms", Row.SynthesizeMs, "functions", Row.Functions,
        "instructions", Row.Instructions, "fingerprints_equal", true);
    W.key("configs").beginArray();
    printConfigJson(W, Row.Config);
    W.end().end();
  }
  W.end().key("summary").beginObject(JsonWriter::Layout::Inline);
  W.members("min_vfg_nodes", Rows.front().Config.unprunedNodes(),
            "max_vfg_nodes", Rows.back().Config.unprunedNodes());
  W.end().end();
  OS.flush();
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
