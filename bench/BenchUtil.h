//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: run one
/// benchmark under one tool variant and collect both static plan counts
/// and dynamic execution results.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_BENCH_BENCHUTIL_H
#define USHER_BENCH_BENCHUTIL_H

#include "core/PlanOpt.h"
#include "core/Usher.h"
#include "runtime/Interpreter.h"
#include "support/FaultInjection.h"
#include "support/RawStream.h"
#include "transforms/Transforms.h"
#include "workload/Spec2000.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace usher {
namespace bench {

/// Everything one (benchmark, preset, variant) run produces.
struct RunResult {
  core::UsherStatistics Stats;
  runtime::ExecutionReport Report;
};

/// Loads \p B, applies \p Preset, runs the \p Variant pipeline and
/// executes the instrumented program. Aborts loudly if the program result
/// or the expected bug count diverges (the harness must never report
/// numbers from a broken run).
///
/// Unless the caller configures its own budget or fault, every phase runs
/// under a generous per-program watchdog, so a pathological analysis
/// prints DEGRADED(<rung>) on stderr instead of hanging the whole table.
/// USHER_INJECT_FAULT (same grammar as usher-cli's --inject-fault=) is
/// honored, so the degraded path can be exercised from the shell.
///
/// With \p Unpruned, the statistics also get Table 1's unpruned-graph
/// fields (core::measureUnpruned), outside the analysis time.
inline RunResult runBenchmark(const workload::BenchmarkProgram &B,
                              transforms::OptPreset Preset,
                              core::ToolVariant Variant,
                              core::UsherOptions BaseOpts = {},
                              bool Unpruned = false) {
  auto M = workload::loadBenchmark(B);
  transforms::runPreset(*M, Preset);

  core::UsherOptions Opts = BaseOpts;
  Opts.Variant = Variant;
  if (!Opts.Fault)
    Opts.Fault = faultPlanFromEnv();
  if (!Opts.Limits.any() && !Opts.Fault) {
    Opts.Limits.PhaseDeadlineMs = 120'000;
    Opts.Limits.MaxStepsPerPhase = 1'000'000'000;
  }
  core::UsherResult R = core::runUsher(*M, Opts);
  if (Unpruned)
    core::measureUnpruned(*M, Opts, R);
  if (R.Degradation.Degraded)
    std::fprintf(stderr, "DEGRADED(%s): %s under %s/%s: %s\n",
                 core::toolVariantName(R.Degradation.Rung), B.Name.c_str(),
                 transforms::optPresetName(Preset),
                 core::toolVariantName(Variant),
                 R.Degradation.summary().c_str());
  // The paper's O1/O2 pipelines re-optimize the *instrumented* code
  // (Section 4.6); model that by eliminating dead shadow computations.
  if (Preset != transforms::OptPreset::O0IM) {
    Budget PostOpt(Opts.Limits);
    PostOpt.beginPhase(BudgetPhase::OptI);
    core::optimizeShadowPlan(R.Plan, *M, &PostOpt);
    if (PostOpt.exhausted())
      std::fprintf(stderr,
                   "DEGRADED(%s): %s under %s/%s: shadow-plan cleanup hit "
                   "%s, kept partial result\n",
                   core::toolVariantName(R.Degradation.Rung), B.Name.c_str(),
                   transforms::optPresetName(Preset),
                   core::toolVariantName(Variant),
                   exhaustKindName(PostOpt.exhaustKind()));
  }

  runtime::Interpreter Interp(*M, &R.Plan);
  RunResult Out{std::move(R.Stats), Interp.run()};

  if (Out.Report.Reason != runtime::ExitReason::Finished) {
    std::fprintf(stderr, "FATAL: %s under %s/%s did not finish: %s\n",
                 B.Name.c_str(), transforms::optPresetName(Preset),
                 core::toolVariantName(Variant),
                 Out.Report.TrapMessage.c_str());
    std::abort();
  }
  // A program with a genuine undefined-value use has no single correct
  // result above O0: optimizations may legally change what the undefined
  // read observes (the paper's Section 4.6 caveat). Pin results otherwise.
  bool ResultIsPinned =
      B.ExpectedBugSites == 0 || Preset == transforms::OptPreset::O0IM;
  if (ResultIsPinned && Out.Report.MainResult != B.ExpectedResult) {
    std::fprintf(stderr,
                 "FATAL: %s under %s/%s computed %lld, expected %lld\n",
                 B.Name.c_str(), transforms::optPresetName(Preset),
                 core::toolVariantName(Variant),
                 static_cast<long long>(Out.Report.MainResult),
                 static_cast<long long>(B.ExpectedResult));
    std::abort();
  }
  return Out;
}

/// The five variants in the paper's presentation order.
inline const core::ToolVariant AllVariants[] = {
    core::ToolVariant::MSanFull, core::ToolVariant::UsherTL,
    core::ToolVariant::UsherTLAT, core::ToolVariant::UsherOptI,
    core::ToolVariant::UsherFull};

} // namespace bench
} // namespace usher

#endif // USHER_BENCH_BENCHUTIL_H
