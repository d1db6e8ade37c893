//===- perfbench/CompileRun.cpp - Analyze-then-run workloads --------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads that take a program from source text to an USHER
/// instrumentation plan and then run it under that plan:
///
///   suite-exec   the 15 SPEC-like programs under O0+IM; each is also
///                analyzed for MSan and run natively and under the MSan
///                plan, so the measured Figure 10 slowdowns come out.
///                Execution dominates.
///   synth-large  one ~122k-VFG-node synthesized program under O1.
///                Analysis dominates.
///   pta-deref    one heap-hub program of the deref_mesh family.
///                Pointer analysis dominates.
///
/// One unit of work is one program's turnaround: analysis, then the
/// instrumented run. Units run in passes over the workload's programs
/// (order shuffled per pass from the seed) until the time is up; every
/// unit's answer is checked against the workload's reference.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "core/PlanOpt.h"
#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/RNG.h"
#include "transforms/Transforms.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>

using namespace perfbench;
using namespace usher;

namespace {

struct Program {
  std::string Name;
  std::string Source;
  /// Pinned main() result and tool-warning count (the suite's own
  /// expectations); synthesized programs are checked against a reference
  /// run instead.
  std::optional<int64_t> Result;
  std::optional<unsigned> BugSites;
};

struct Workload {
  transforms::OptPreset Preset = transforms::OptPreset::O0IM;
  /// Also analyze for MSan and run natively and under the MSan plan.
  bool Figure10 = false;
  std::vector<Program> Programs;
};

/// What must not change between two turnarounds of one program: the plan
/// and VFG sizes, and what the instrumented run computed and reported.
struct Fingerprint {
  uint64_t Checks = 0;
  uint64_t ShadowOps = 0;
  uint64_t VFGNodes = 0;
  uint64_t VFGEdges = 0;
  int64_t Result = 0;
  std::vector<std::string> Warnings; ///< Sorted warningSiteKey()s.
  /// False while only the analysis part is known (suite set-up analyzes
  /// but does not run; the first turnaround supplies the run part).
  bool RunKnown = true;
  bool operator==(const Fingerprint &) const = default;
};

struct Analyzed {
  std::unique_ptr<ir::Module> M;
  std::optional<core::InstrumentationPlan> Plan;
  uint64_t VFGNodes = 0;
  uint64_t VFGEdges = 0;
  bool Degraded = false;
  double Ms = 0;
};

/// Source text to instrumentation plan: parse, preset, runUsher, and the
/// shadow-plan cleanup the O1/O2 pipelines apply to instrumented code.
Analyzed analyze(const Program &P, transforms::OptPreset Preset,
                 core::ToolVariant V) {
  Analyzed A;
  std::optional<core::UsherResult> R; // Torn down after the timed interval.
  {
    trace::Scope S("analyze");
    auto T0 = Clock::now();
    parser::ParseResult PR = parser::parseModule(P.Source);
    if (!PR.succeeded())
      return A;
    {
      trace::Scope S("preset");
      transforms::runPreset(*PR.M, Preset);
    }
    core::UsherOptions Opts;
    Opts.Variant = V;
    R.emplace(core::runUsher(*PR.M, Opts));
    if (Preset != transforms::OptPreset::O0IM) {
      trace::Scope S("shadowopt");
      core::optimizeShadowPlan(R->Plan, *PR.M);
    }
    A.Ms = msSince(T0);
    A.M = std::move(PR.M);
  }
  A.Plan.emplace(std::move(R->Plan));
  A.VFGNodes = R->Stats.NumVFGNodes;
  A.VFGEdges = R->Stats.NumVFGEdges;
  A.Degraded = R->Degradation.Degraded;
  trace::Scope S("free");
  R.reset();
  return A;
}

runtime::ExecutionReport execute(const ir::Module &M,
                                 const core::InstrumentationPlan *Plan,
                                 const char *Span, double &Ms) {
  trace::Scope S(Span);
  auto T0 = Clock::now();
  runtime::ExecutionReport R = runtime::Interpreter(M, Plan).run();
  Ms = msSince(T0);
  return R;
}

std::vector<std::string> warningKeys(const runtime::ExecutionReport &R) {
  std::vector<std::string> Keys;
  for (const runtime::Warning &W : R.ToolWarnings)
    Keys.push_back(workload::warningSiteKey(W.At));
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

Fingerprint fingerprint(const Analyzed &A, const runtime::ExecutionReport &R) {
  Fingerprint F;
  F.Checks = A.Plan->countChecks();
  F.ShadowOps = A.Plan->countShadowOps();
  F.VFGNodes = A.VFGNodes;
  F.VFGEdges = A.VFGEdges;
  F.Result = R.MainResult;
  F.Warnings = warningKeys(R);
  return F;
}

std::vector<size_t> shuffled(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  RNG R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

Workload suiteExec(bool Tiny) {
  Workload W;
  W.Preset = transforms::OptPreset::O0IM;
  W.Figure10 = true;
  for (const workload::BenchmarkProgram &B : workload::spec2000Suite()) {
    if (Tiny && B.Name != "164.gzip" && B.Name != "197.parser")
      continue;
    // Load once to validate the text; the timed analyses re-parse it.
    workload::loadBenchmark(B);
    W.Programs.push_back({B.Name, B.Source, B.ExpectedResult,
                          B.ExpectedBugSites});
  }
  return W;
}

Workload synthLarge(uint64_t Seed, bool Tiny) {
  workload::ShapeSpec S;
  S.Seed = Seed;
  S.TargetNodes = Tiny ? 10'000 : 150'000;
  Workload W;
  W.Preset = transforms::OptPreset::O1;
  W.Programs.push_back({"synth", workload::synthesizeProgram(S), {}, {}});
  return W;
}

/// A deref_mesh program: \p Hubs functions, each with one hub pointer that
/// receives \p Pointees distinct heap objects and is read back by
/// \p Readers loads draining into one sink. Andersen materializes
/// Hubs x Readers x Pointees points-to bits, while every other phase sees
/// only Hubs x (Readers + Pointees) statements. The hub pointer may name
/// either of two cells, so its stores are weak and the VFG builder's
/// semi-strong-update walk stops at once instead of scanning every earlier
/// store. Each hub then branches on the contents of an uninitialized
/// pointee: one genuine bug site per hub. The seed permutes the order of
/// the hub functions, which leaves every phase's total work unchanged.
std::string derefMesh(uint64_t Seed, unsigned Hubs, unsigned Readers,
                      unsigned Pointees) {
  std::string Src;
  for (size_t H : shuffled(Hubs, Seed)) {
    Src += "func hub" + std::to_string(H) +
           "() {\n  s = 0;\n  c = 1;\n  h = alloc heap 1 uninit;\n"
           "  if c goto A;\n  h = alloc heap 1 uninit;\nA:\n";
    for (unsigned J = 0; J != Pointees; ++J)
      Src += "  o = alloc heap 1 uninit;\n  *h = o;\n";
    for (unsigned I = 0; I != Readers; ++I) {
      const std::string P = "p" + std::to_string(I);
      Src += "  " + P + " = *h;\n  s = " + P + ";\n";
    }
    Src += "  v = *s;\n  if v goto L;\nL:\n  ret 0;\n}\n\n";
  }
  Src += "func main() {\n  t = 0;\n";
  for (unsigned H = 0; H != Hubs; ++H) {
    const std::string R = "r" + std::to_string(H);
    Src += "  " + R + " = hub" + std::to_string(H) + "();\n  t = t + " + R +
           ";\n";
  }
  Src += "  ret t;\n}\n";
  return Src;
}

Workload ptaDeref(uint64_t Seed, bool Tiny) {
  // At 2048 x 2048 per hub the solver's propagation work outgrows every
  // statement-linear phase; with a few hundred, parsing and VFG building
  // still dominate.
  const unsigned Hubs = Tiny ? 2 : 4, PerHub = Tiny ? 512 : 2048;
  Workload W;
  W.Preset = transforms::OptPreset::O0IM;
  W.Programs.push_back(
      {"deref_mesh", derefMesh(Seed, Hubs, PerHub, PerHub), 0, Hubs});
  return W;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// Samples and sums of one measured phase.
struct Phase {
  std::vector<double> Analyze;    ///< Per pass: USHER analyses, ms.
  std::vector<double> Turnaround; ///< Per pass: analyses + USHER runs, ms.
  std::vector<double> Exec;       ///< Per pass: USHER runs, ms.
  double NativeMs = 0, MSanMs = 0, UsherMs = 0; ///< Sums over the phase.
  std::vector<double> Modeled;    ///< Per program: modeled USHER slowdown.
  uint64_t PlanOps = 0;           ///< One pass's USHER checks + shadow ops.
  unsigned Passes = 0;
  unsigned Programs = 0;          ///< Program turnarounds.
  double WallMs = 0;
  Calibrator Cal;
  /// The same per-pass times with each program's share in cal units, and
  /// the whole phase's unit time in cal units.
  std::vector<double> AnalyzeCal, TurnaroundCal;
  double UnitCal = 0;

  double throughput() const {
    return 1000.0 * Passes / (WallMs - Cal.totalMs());
  }
};

class CompileRun {
public:
  CompileRun(const Options &O, Outcome &Out) : O(O), Out(Out) {}

  void setUp();
  Phase measure(double Seconds, uint64_t Salt);
  void costModelPass(std::vector<Metric> &Extra);

  Workload W;
  double SetupS = 0;

private:
  /// Per-pass sums one program's turnaround adds to.
  struct PassSums {
    double Analyze = 0, Exec = 0, AnalyzeCal = 0, TurnaroundCal = 0;
  };
  void unit(size_t ProgIdx, unsigned Rotation, Phase &Ph, PassSums &Sums);

  const Options &O;
  Outcome &Out;
  /// Per program: the reference fingerprint from a fresh runUsher at
  /// set-up. Synthesized programs are also run there; the suite's run part
  /// comes from each program's first turnaround (its results are pinned by
  /// the suite already, and a reference run would cost seconds).
  std::vector<std::optional<Fingerprint>> Ref;
};

void CompileRun::setUp() {
  auto Build = [&](unsigned) {
    if (O.Workload == "suite-exec")
      W = suiteExec(O.Tiny);
    else if (O.Workload == "synth-large")
      W = synthLarge(O.Seed, O.Tiny);
    else
      W = ptaDeref(O.Seed, O.Tiny);
    Ref.assign(W.Programs.size(), std::nullopt);
    for (size_t I = 0; I != W.Programs.size(); ++I) {
      Analyzed A = analyze(W.Programs[I], W.Preset, core::ToolVariant::UsherFull);
      if (!A.M)
        continue;
      runtime::ExecutionReport R;
      if (!W.Figure10) {
        double Ms;
        R = execute(*A.M, &*A.Plan, "exec.usher", Ms);
      }
      Ref[I] = fingerprint(A, R);
      Ref[I]->RunKnown = !W.Figure10;
    }
  };
  SetupS = timeSetup(O.Tiny ? 1 : 5, Build);
}

void CompileRun::unit(size_t ProgIdx, unsigned Rotation, Phase &Ph,
                      PassSums &Sums) {
  const Program &P = W.Programs[ProgIdx];
  trace::RequestScope RS(Ph.Programs + 1, /*IsRoot=*/false);
  trace::Scope S("unit");
  const auto T0 = Clock::now();

  Analyzed MSan;
  if (W.Figure10)
    MSan = analyze(P, W.Preset, core::ToolVariant::MSanFull);
  Analyzed U = analyze(P, W.Preset, core::ToolVariant::UsherFull);
  Out.check(U.M && !U.Degraded, P.Name + ": USHER analysis failed or degraded");
  Out.check(!W.Figure10 || (MSan.M && !MSan.Degraded),
            P.Name + ": MSan analysis failed");
  if (!U.M || (W.Figure10 && !MSan.M))
    return;

  // Rotate the run order so drift in machine speed spreads evenly.
  runtime::ExecutionReport Native, MSanRep, Usher;
  double NativeMs = 0, MSanMs = 0, UsherMs = 0;
  for (unsigned K = 0; K != 3; ++K) {
    switch ((Rotation + K) % 3) {
    case 0:
      if (W.Figure10)
        Native = execute(*U.M, nullptr, "exec.native", NativeMs);
      break;
    case 1:
      if (W.Figure10)
        MSanRep = execute(*MSan.M, &*MSan.Plan, "exec.msan", MSanMs);
      break;
    case 2:
      Usher = execute(*U.M, &*U.Plan, "exec.usher", UsherMs);
      break;
    }
  }
  if (trace::enabled()) {
    trace::count("exec.steps", Usher.Steps);
    trace::count("exec.dyn_shadow_ops", Usher.DynShadowOps);
    trace::count("exec.dyn_checks", Usher.DynChecks);
  }

  // Correctness: every run finishes; pinned results and bug-site counts
  // hold; the USHER plan reports exactly the sites MSan reports; the
  // analysis and its run reproduce the reference fingerprint.
  const runtime::ExecutionReport *Runs[] = {&Usher, &Native, &MSanRep};
  for (unsigned I = 0; I != (W.Figure10 ? 3u : 1u); ++I) {
    const runtime::ExecutionReport &R = *Runs[I];
    Out.check(R.Reason == runtime::ExitReason::Finished,
              P.Name + ": run did not finish: " + R.TrapMessage);
    if (P.Result)
      Out.check(R.MainResult == *P.Result,
                P.Name + ": main returned " + std::to_string(R.MainResult));
  }
  if (P.BugSites)
    Out.check(Usher.ToolWarnings.size() == *P.BugSites,
              P.Name + ": USHER reported " +
                  std::to_string(Usher.ToolWarnings.size()) + " bug sites");
  if (W.Figure10) {
    Out.check(MSanRep.ToolWarnings.size() == *P.BugSites,
              P.Name + ": MSan reported " +
                  std::to_string(MSanRep.ToolWarnings.size()) + " bug sites");
    Out.check(warningKeys(MSanRep) == warningKeys(Usher),
              P.Name + ": USHER and MSan warning sites differ");
  }
  Fingerprint F = fingerprint(U, Usher);
  std::optional<Fingerprint> &Want = Ref[ProgIdx];
  if (Want && !Want->RunKnown) {
    Want->Result = F.Result;
    Want->Warnings = F.Warnings;
    Want->RunKnown = true;
  }
  Out.check(Want && F == *Want, P.Name + ": fingerprint differs from reference");

  Ph.NativeMs += NativeMs;
  Ph.MSanMs += MSanMs;
  Ph.UsherMs += UsherMs;
  Ph.Modeled.push_back(Usher.slowdownPercent());
  Sums.Analyze += U.Ms;
  Sums.Exec += UsherMs;
  Sums.AnalyzeCal += Ph.Cal.cal(U.Ms);
  Sums.TurnaroundCal += Ph.Cal.cal(U.Ms + UsherMs);
  ++Ph.Programs;

  {
    trace::Scope Free("free");
    U = Analyzed();
    MSan = Analyzed();
  }
  Ph.UnitCal += Ph.Cal.cal(msSince(T0));
}

Phase CompileRun::measure(double Seconds, uint64_t Salt) {
  Phase Ph;
  const auto T0 = Clock::now();
  for (unsigned Pass = 0;; ++Pass) {
    // Whole passes only; stop once the next pass would overrun the time
    // by more than half a pass.
    const double E = msSince(T0);
    if (Pass > 0 && E + E / Pass > Seconds * 1000.0 + E / Pass / 2)
      break;
    PassSums Sums;
    unsigned Rotation = Pass;
    for (size_t I :
         shuffled(W.Programs.size(), O.Seed * 1000003 + Salt + Pass)) {
      Ph.Cal.tick();
      unit(I, Rotation++, Ph, Sums);
    }
    Ph.Analyze.push_back(Sums.Analyze);
    Ph.Exec.push_back(Sums.Exec);
    Ph.Turnaround.push_back(Sums.Analyze + Sums.Exec);
    Ph.AnalyzeCal.push_back(Sums.AnalyzeCal);
    Ph.TurnaroundCal.push_back(Sums.TurnaroundCal);
    ++Ph.Passes;
  }
  Ph.WallMs = msSince(T0);
  for (const std::optional<Fingerprint> &F : Ref)
    if (F)
      Ph.PlanOps += F->Checks + F->ShadowOps;
  return Ph;
}

/// Spearman's rank correlation (ties get their average rank).
double spearman(const std::vector<double> &X, const std::vector<double> &Y) {
  auto Ranks = [](const std::vector<double> &V) {
    std::vector<size_t> Idx(V.size());
    std::iota(Idx.begin(), Idx.end(), 0);
    std::sort(Idx.begin(), Idx.end(),
              [&](size_t A, size_t B) { return V[A] < V[B]; });
    std::vector<double> R(V.size());
    for (size_t I = 0; I != Idx.size();) {
      size_t J = I;
      while (J + 1 != Idx.size() && V[Idx[J + 1]] == V[Idx[I]])
        ++J;
      for (size_t K = I; K <= J; ++K)
        R[Idx[K]] = (I + J) / 2.0 + 1;
      I = J + 1;
    }
    return R;
  };
  std::vector<double> RX = Ranks(X), RY = Ranks(Y);
  double MX = mean(RX), MY = mean(RY), Sxy = 0, Sxx = 0, Syy = 0;
  for (size_t I = 0; I != RX.size(); ++I) {
    Sxy += (RX[I] - MX) * (RY[I] - MY);
    Sxx += (RX[I] - MX) * (RX[I] - MX);
    Syy += (RY[I] - MY) * (RY[I] - MY);
  }
  return Sxx > 0 && Syy > 0 ? Sxy / std::sqrt(Sxx * Syy) : 0.0;
}

/// The cost-model check: every program under all five variants, modeled
/// slowdown (CostModel) against measured wall-clock slowdown.
void CompileRun::costModelPass(std::vector<Metric> &Extra) {
  const core::ToolVariant Variants[] = {
      core::ToolVariant::MSanFull, core::ToolVariant::UsherTL,
      core::ToolVariant::UsherTLAT, core::ToolVariant::UsherOptI,
      core::ToolVariant::UsherFull};
  std::vector<double> Modeled, Measured;
  std::printf("cost model: modeled vs measured slowdown %% per program\n");
  std::printf("  %-12s", "program");
  for (core::ToolVariant V : Variants)
    std::printf(" %19s", core::toolVariantName(V));
  std::printf("\n");
  for (const Program &P : W.Programs) {
    std::printf("  %-12s", P.Name.c_str());
    Analyzed Base = analyze(P, W.Preset, core::ToolVariant::MSanFull);
    if (!Base.M)
      continue;
    double NativeMs = 0;
    execute(*Base.M, nullptr, "exec.native", NativeMs);
    for (core::ToolVariant V : Variants) {
      Analyzed A = analyze(P, W.Preset, V);
      double Ms = 0;
      runtime::ExecutionReport R = execute(*A.M, &*A.Plan, "exec.variant", Ms);
      Out.check(R.Reason == runtime::ExitReason::Finished &&
                    (!P.Result || R.MainResult == *P.Result) &&
                    (!P.BugSites || R.ToolWarnings.size() == *P.BugSites),
                P.Name + " under " + core::toolVariantName(V) +
                    ": wrong result or bug-site count");
      Modeled.push_back(R.slowdownPercent());
      Measured.push_back(100.0 * (Ms - NativeMs) / NativeMs);
      std::printf("  %7.1f / %7.1f", Modeled.back(), Measured.back());
    }
    std::printf("\n");
  }
  const double Rho = spearman(Modeled, Measured);
  std::printf("  costmodel.rank_corr = %.4f over %zu (program, variant) "
              "pairs\n",
              Rho, Modeled.size());
  Extra.push_back({"costmodel.rank_corr", Rho, "rho"});
}

/// The raw figures; the bounded metrics follow them.
void reportPhase(const Workload &W, const Phase &Ph) {
  const std::string N = "n=" + std::to_string(Ph.Passes) + " passes";
  report("analyze_ms.p50", median(Ph.Analyze), "ms", N);
  report("analyze_ms.p90", percentile(Ph.Analyze, 0.9), "ms", N);
  report("turnaround_ms.p50", median(Ph.Turnaround), "ms", N);
  report("turnaround_ms.p90", percentile(Ph.Turnaround, 0.9), "ms", N);
  report("exec_ms.p50", median(Ph.Exec), "ms", "under USHER plans, " + N);
  if (W.Figure10) {
    report("slowdown_pct.usher", 100.0 * (Ph.UsherMs - Ph.NativeMs) / Ph.NativeMs,
           "%", "measured");
    report("slowdown_pct.msan", 100.0 * (Ph.MSanMs - Ph.NativeMs) / Ph.NativeMs,
           "%", "measured");
    report("modeled_slowdown_pct.usher", mean(Ph.Modeled), "%", "CostModel");
  }
  report("plan_ops", Ph.PlanOps, "count", "checks + shadow ops");
  report("throughput_per_s", Ph.throughput(), "1/s", "passes");
  report("calibration_ms", Ph.Cal.medianMs(), "ms", "median kernel time");
}

/// The bounded end-to-end metrics: times in calibration units.
std::vector<Metric> endToEnd(const Phase &Ph, double SetupS) {
  return {
      {"setup_s", SetupS, "s"},
      {"analyze_cal.p50", median(Ph.AnalyzeCal), "cal"},
      {"turnaround_cal.p50", median(Ph.TurnaroundCal), "cal"},
      {"throughput_per_cal", Ph.Passes / Ph.UnitCal, "1/cal"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
  };
}

double sumDur(const std::vector<trace::Span> &Spans, const char *Name) {
  double Ms = 0;
  for (const trace::Span &S : Spans)
    if (std::string_view(S.Name) == Name)
      Ms += S.DurNs / 1e6;
  return Ms;
}

} // namespace

Outcome perfbench::runCompileRun(const Options &O) {
  Outcome Out;
  CompileRun C(O, Out);
  C.setUp();
  std::printf("perfbench %s seed=%llu: %zu program(s)\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), C.W.Programs.size());

  const double Untimed = O.Trace ? O.Seconds / 2 : O.Seconds;
  Phase Ph = C.measure(Untimed, 0);
  std::printf("untraced: %u pass(es), %u programs in %.2f s\n", Ph.Passes,
              Ph.Programs, Ph.WallMs / 1000);
  reportPhase(C.W, Ph);

  Out.EndToEnd = endToEnd(Ph, C.SetupS);
  for (const Metric &M : Out.EndToEnd)
    report(M.Name.c_str(), M.Value, M.Unit.c_str());
  if (!O.Trace)
    return Out;

  // Traced phase: same loop, spans on.
  trace::reset();
  trace::setEnabled(true);
  Phase Tr = C.measure(O.Seconds / 2, 7919);
  trace::setEnabled(false);
  const std::vector<trace::Span> Spans = trace::spans();
  const double Units = Tr.Passes;
  std::printf("traced: %u pass(es), %u programs in %.2f s\n", Tr.Passes,
              Tr.Programs, Tr.WallMs / 1000);

  const auto Self = trace::selfTimes(Spans);
  auto SelfMs = [&](const char *Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0.0 : It->second.SelfMs;
  };
  std::vector<Metric> Extra;
  const double Steps = trace::counters()["exec.steps"];
  Extra.push_back({"exec.ns_per_step",
                   Steps > 0 ? SelfMs("exec.usher") * 1e6 / Steps : 0.0, "ns"});

  // Tracing overhead: the same means with and without spans, in cal units
  // so that a change in machine speed between the halves does not show.
  auto ExecCal = [](const Phase &P) {
    std::vector<double> V;
    for (size_t I = 0; I != P.Passes; ++I)
      V.push_back(P.TurnaroundCal[I] - P.AnalyzeCal[I]);
    return mean(V);
  };
  std::printf("tracing overhead (traced - untraced mean per pass):\n");
  reportOverhead("analyze", mean(Ph.AnalyzeCal), mean(Tr.AnalyzeCal));
  reportOverhead("exec", ExecCal(Ph), ExecCal(Tr));
  reportOverhead("turnaround", mean(Ph.TurnaroundCal), mean(Tr.TurnaroundCal));

  // The layers under each traced "analyze" span partition it, so their
  // self times sum to the traced analyze time by construction.
  const char *AnalysisSpans[] = {"analyze", "parse", "preset", "runUsher",
                                 "callgraph", "pta", "modref", "memssa",
                                 "vfg", "definedness", "opt2", "plan",
                                 "shadowopt"};
  double AnalysisMs = 0;
  for (const char *N : AnalysisSpans)
    AnalysisMs += SelfMs(N);
  const double ExecMs =
      SelfMs("exec.native") + SelfMs("exec.msan") + SelfMs("exec.usher");
  const double UnitMs = sumDur(Spans, "unit");
  std::printf("accounting per pass: analysis layers %.4f ms (traced analyze "
              "%.4f ms), exec layers %.4f ms (traced exec %.4f ms)\n",
              AnalysisMs / Units, sumDur(Spans, "analyze") / Units,
              ExecMs / Units, (Tr.NativeMs + Tr.MSanMs + Tr.UsherMs) / Units);

  // Untraced, after the traced phase: its runs add no spans.
  if (C.W.Figure10)
    C.costModelPass(Extra);
  addLayerMetrics(Out, Units, Extra);

  // Does the workload stress what it was chosen for?
  if (O.Workload == "suite-exec")
    std::printf("stress: execution is %.1f%% of measured time (want >= 90%%)\n",
                100.0 * ExecMs / UnitMs);
  else if (O.Workload == "synth-large")
    std::printf("stress: analysis, with freeing its results, is %.1f%% of "
                "measured time (want >= 90%%)\n",
                100.0 * (AnalysisMs + SelfMs("free")) / UnitMs);

  // Top layers by self time, for the self-test's shape comparison.
  std::vector<std::pair<double, std::string>> Top;
  for (const auto &[Name, T] : Self)
    if (Name != "unit" && Name != "analyze")
      Top.push_back({T.SelfMs, Name});
  std::sort(Top.rbegin(), Top.rend());
  if (O.Workload == "pta-deref")
    std::printf("stress: largest layer is %s (want pta)\n",
                Top.empty() ? "-" : Top[0].second.c_str());
  std::printf("shape {\"vfg_nodes\": %.0f, \"top_layers\": [",
              trace::counters()["vfg.nodes"] / Tr.Programs);
  for (size_t I = 0; I != std::min<size_t>(3, Top.size()); ++I)
    std::printf("%s\"%s\"", I ? ", " : "", Top[I].second.c_str());
  std::printf("]}\n");

  const std::string Path = O.OutDir + "/trace-" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + ".json";
  if (trace::writeChromeTrace(Path, Spans))
    std::printf("chrome trace: %s (%zu spans)\n", Path.c_str(), Spans.size());
  else
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  return Out;
}
