//===- tests/BudgetTest.cpp - Budgets, faults, degradation ladder ----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the Budget token and the fault-spec parser, plus
/// end-to-end tests that each injected phase exhaustion lands the driver
/// on the expected rung of the degradation ladder.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

using namespace usher;
using core::ToolVariant;

namespace {

//===----------------------------------------------------------------------===//
// Budget token
//===----------------------------------------------------------------------===//

TEST(Budget, UnlimitedNeverExhausts) {
  Budget B;
  B.beginPhase(BudgetPhase::PointerAnalysis);
  for (int I = 0; I != 100'000; ++I)
    ASSERT_TRUE(B.step());
  EXPECT_FALSE(B.exhausted());
  EXPECT_EQ(B.exhaustKind(), ExhaustKind::None);
}

TEST(Budget, StepLimitExhausts) {
  BudgetLimits L;
  L.MaxStepsPerPhase = 10;
  Budget B(L);
  B.beginPhase(BudgetPhase::Definedness);
  uint64_t Granted = 0;
  while (B.step() && Granted < 1000)
    ++Granted;
  EXPECT_EQ(Granted, 10u);
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.exhaustKind(), ExhaustKind::Steps);
  // Once exhausted, it stays exhausted until re-armed.
  EXPECT_FALSE(B.step());
}

TEST(Budget, BeginPhaseRearms) {
  BudgetLimits L;
  L.MaxStepsPerPhase = 1;
  Budget B(L);
  B.beginPhase(BudgetPhase::OptI);
  EXPECT_TRUE(B.step());
  EXPECT_FALSE(B.step());
  ASSERT_TRUE(B.exhausted());
  B.beginPhase(BudgetPhase::OptII);
  EXPECT_FALSE(B.exhausted());
  EXPECT_EQ(B.currentPhase(), BudgetPhase::OptII);
  EXPECT_TRUE(B.step());
}

TEST(Budget, DeadlineExhausts) {
  BudgetLimits L;
  L.PhaseDeadlineMs = 1;
  Budget B(L);
  B.beginPhase(BudgetPhase::PointerAnalysis);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The clock is probed every 128 calls, so a bounded number of steps must
  // observe the expired deadline.
  bool Stopped = false;
  for (int I = 0; I != 1000 && !Stopped; ++I)
    Stopped = !B.step();
  EXPECT_TRUE(Stopped);
  EXPECT_EQ(B.exhaustKind(), ExhaustKind::Deadline);
}

TEST(Budget, InjectedFaultFiresAtStep) {
  FaultPlan F;
  F.Phase = BudgetPhase::Definedness;
  F.AtStep = 5;
  Budget B(BudgetLimits{}, F);
  // A different phase is unaffected by the fault.
  B.beginPhase(BudgetPhase::PointerAnalysis);
  for (int I = 0; I != 100; ++I)
    ASSERT_TRUE(B.step());
  // The named phase gets exactly AtStep steps.
  B.beginPhase(BudgetPhase::Definedness);
  uint64_t Granted = 0;
  while (B.step() && Granted < 100)
    ++Granted;
  EXPECT_EQ(Granted, 5u);
  EXPECT_EQ(B.exhaustKind(), ExhaustKind::Injected);
}

TEST(Budget, AtStepZeroFiresOnArm) {
  FaultPlan F;
  F.Phase = BudgetPhase::OptII;
  F.AtStep = 0;
  Budget B(BudgetLimits{}, F);
  B.beginPhase(BudgetPhase::OptII);
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.exhaustKind(), ExhaustKind::Injected);
  EXPECT_FALSE(B.step());
}

TEST(Budget, OnceFiresOnFirstArmOnly) {
  FaultPlan F;
  F.Phase = BudgetPhase::PointerAnalysis;
  F.AtStep = 0;
  F.MaxFires = 1;
  Budget B(BudgetLimits{}, F);
  B.beginPhase(BudgetPhase::PointerAnalysis);
  EXPECT_TRUE(B.exhausted());
  B.beginPhase(BudgetPhase::PointerAnalysis);
  EXPECT_FALSE(B.exhausted());
  for (int I = 0; I != 100; ++I)
    ASSERT_TRUE(B.step());
}

TEST(Budget, BatchedStepReportsLowestCrossing) {
  // The Andersen solver charges in batches, so one step(N) may cross the
  // step limit and an injected fault at once. The lower crossing step is
  // reported and an equal crossing goes to the fault. The crossing call's
  // N is charged in full; an exhausted token charges nothing more.
  auto Run = [](uint64_t FaultAt) {
    BudgetLimits L;
    L.MaxStepsPerPhase = 10;
    FaultPlan F;
    F.Phase = BudgetPhase::PointerAnalysis;
    F.AtStep = FaultAt;
    Budget B(L, F);
    B.beginPhase(BudgetPhase::PointerAnalysis);
    EXPECT_TRUE(B.step(4));
    EXPECT_FALSE(B.step(100)); // Crosses both thresholds.
    EXPECT_EQ(B.stepsUsed(), 104u);
    EXPECT_FALSE(B.step(7));
    EXPECT_EQ(B.stepsUsed(), 104u);
    return B.exhaustKind();
  };
  // Limit crossed at 11, fault at 21.
  EXPECT_EQ(Run(20), ExhaustKind::Steps);
  // Fault crossed at 8, limit at 11.
  EXPECT_EQ(Run(7), ExhaustKind::Injected);
  // Both crossed at 11: the fault wins the tie.
  EXPECT_EQ(Run(10), ExhaustKind::Injected);
}

//===----------------------------------------------------------------------===//
// Fault-spec parsing
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ParsesPhaseAtStep) {
  auto P = parseFaultSpec("pta@0");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Phase, BudgetPhase::PointerAnalysis);
  EXPECT_EQ(P->AtStep, 0u);
  EXPECT_EQ(P->MaxFires, 0u);

  P = parseFaultSpec("definedness@123:once");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Phase, BudgetPhase::Definedness);
  EXPECT_EQ(P->AtStep, 123u);
  EXPECT_EQ(P->MaxFires, 1u);

  P = parseFaultSpec("opt1@7");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Phase, BudgetPhase::OptI);

  P = parseFaultSpec("opt2@9");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Phase, BudgetPhase::OptII);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  std::string Err;
  EXPECT_FALSE(parseFaultSpec("bogus", &Err).has_value());
  EXPECT_NE(Err.find("missing '@'"), std::string::npos);
  EXPECT_FALSE(parseFaultSpec("nophase@3", &Err).has_value());
  EXPECT_NE(Err.find("unknown phase"), std::string::npos);
  EXPECT_FALSE(parseFaultSpec("pta@", &Err).has_value());
  EXPECT_NE(Err.find("missing step count"), std::string::npos);
  EXPECT_FALSE(parseFaultSpec("pta@x7", &Err).has_value());
  EXPECT_NE(Err.find("non-numeric"), std::string::npos);
}

TEST(FaultSpec, RejectsOutOfRangeNumbers) {
  // 2^64 steps or hits used to wrap to 0 and fire at once; 2^64 - 1 is the
  // largest count a spec can name.
  std::string Err;
  EXPECT_FALSE(
      parseFaultSpec("pta@18446744073709551616", &Err).has_value());
  EXPECT_NE(Err.find("out-of-range step count"), std::string::npos);
  auto P = parseFaultSpec("pta@18446744073709551615");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->AtStep, UINT64_MAX);
  EXPECT_FALSE(parseFaultSpec("pta@0:4294967296", &Err).has_value());
  EXPECT_NE(Err.find("out-of-range fire-count"), std::string::npos);

  EXPECT_FALSE(
      parseIoFaultSpec("snapshot-read@18446744073709551616", &Err)
          .has_value());
  EXPECT_NE(Err.find("out-of-range hit ordinal"), std::string::npos);
  auto IO = parseIoFaultSpec("snapshot-read@18446744073709551615:once");
  ASSERT_TRUE(IO.has_value());
  EXPECT_EQ(IO->AtHit, UINT64_MAX);
  EXPECT_TRUE(IO->Once);
}

//===----------------------------------------------------------------------===//
// Degradation ladder (end to end through runUsher)
//===----------------------------------------------------------------------===//

core::UsherResult runWithFault(ir::Module &M, ToolVariant V, BudgetPhase P,
                               uint32_t MaxFires = 0) {
  core::UsherOptions Opts;
  Opts.Variant = V;
  FaultPlan F;
  F.Phase = P;
  F.AtStep = 0;
  F.MaxFires = MaxFires;
  Opts.Fault = F;
  return core::runUsher(M, Opts);
}

TEST(DegradationLadder, NoBudgetMeansNoDegradation) {
  auto M = workload::generateProgram(1);
  core::UsherOptions Opts;
  core::UsherResult R = core::runUsher(*M, Opts);
  EXPECT_FALSE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherFull);
  EXPECT_TRUE(R.Degradation.summary().empty());
}

TEST(DegradationLadder, PtaInjectionFallsToMSan) {
  auto M = workload::generateProgram(2);
  core::UsherResult R =
      runWithFault(*M, ToolVariant::UsherFull, BudgetPhase::PointerAnalysis);
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::MSanFull);
  // Three rungs were tried and failed, in ladder order: the
  // field-insensitive Andersen retry, the unification-solver retry, and
  // only then the MSan landing.
  ASSERT_EQ(R.Degradation.Steps.size(), 3u);
  EXPECT_EQ(R.Degradation.Steps[0].Kind, ExhaustKind::Injected);
  EXPECT_NE(R.Degradation.Steps[0].Action.find("field-insensitive"),
            std::string::npos);
  EXPECT_NE(R.Degradation.Steps[1].Action.find("unification"),
            std::string::npos);
  EXPECT_NE(R.Degradation.summary().find("MSAN"), std::string::npos);
  // The full plan still runs the program to completion.
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
  EXPECT_EQ(Rep.Reason, runtime::ExitReason::Finished);
}

TEST(DegradationLadder, PtaOnceInjectionRetriesFieldInsensitive) {
  auto M = workload::generateProgram(3);
  core::UsherResult R = runWithFault(*M, ToolVariant::UsherFull,
                                     BudgetPhase::PointerAnalysis,
                                     /*MaxFires=*/1);
  // The field-insensitive retry succeeds, so the requested rung survives —
  // degraded in precision, not in guarantees.
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherFull);
  ASSERT_EQ(R.Degradation.Steps.size(), 1u);
  EXPECT_NE(R.Degradation.Steps[0].Action.find("field-insensitive"),
            std::string::npos);
  EXPECT_FALSE(R.PA->options().FieldSensitive);
}

TEST(DegradationLadder, DefinednessInjectionLandsOnTLAT) {
  auto M = workload::generateProgram(4);
  core::UsherResult R =
      runWithFault(*M, ToolVariant::UsherFull, BudgetPhase::Definedness);
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherTLAT);
  ASSERT_TRUE(R.Gamma != nullptr);
  EXPECT_TRUE(R.Gamma->wasPessimized());
  EXPECT_EQ(R.Stats.NumRedirectedNodes, 0u);
}

TEST(DegradationLadder, DefinednessInjectionUnderTLStaysTL) {
  auto M = workload::generateProgram(5);
  core::UsherResult R =
      runWithFault(*M, ToolVariant::UsherTL, BudgetPhase::Definedness);
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherTL);
}

TEST(DegradationLadder, OptIIInjectionLandsOnOptI) {
  auto M = workload::generateProgram(6);
  core::UsherResult R =
      runWithFault(*M, ToolVariant::UsherFull, BudgetPhase::OptII);
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherOptI);
  EXPECT_EQ(R.Stats.NumRedirectedNodes, 0u);
}

TEST(DegradationLadder, OptIInjectionLandsOnTLAT) {
  auto M = workload::generateProgram(7);
  core::UsherResult R =
      runWithFault(*M, ToolVariant::UsherOptI, BudgetPhase::OptI);
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherTLAT);
  EXPECT_EQ(R.Stats.NumSimplifiedMFCs, 0u);
}

TEST(DegradationLadder, TinyStepBudgetTerminatesOnMSan) {
  // A genuine (non-injected) exhaustion: one worklist iteration per phase
  // cannot solve anything, so every attempt fails fast and the run lands
  // on the terminal rung instead of hanging.
  auto M = workload::generateProgram(8);
  core::UsherOptions Opts;
  Opts.Limits.MaxStepsPerPhase = 1;
  core::UsherResult R = core::runUsher(*M, Opts);
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::MSanFull);
  for (const core::DegradationStep &S : R.Degradation.Steps)
    EXPECT_EQ(S.Kind, ExhaustKind::Steps);
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
  EXPECT_EQ(Rep.Reason, runtime::ExitReason::Finished);
}

//===----------------------------------------------------------------------===//
// Solver/Budget composition: SCC collapsing vs step accounting
//===----------------------------------------------------------------------===//
//
// The optimized Andersen engine collapses copy cycles mid-solve, leaving
// stale worklist entries for nodes that were merged into an SCC
// representative. Those pops must be skipped WITHOUT charging the Budget
// (the representative's own pop accounts for the whole component), and
// the solver's own charge counter must stay in exact sync with the token
// so injected faults remain deterministic.

/// A drip-fed copy ring (see bench/bench_solver.cpp): staged loads feed
/// one new points-to bit at a time into a 16-node copy cycle, so the ring
/// collapses mid-solve while member entries are still queued.
std::string ringWorkload() {
  const unsigned K = 24, RingSize = 16, Tail = 16;
  std::string Src = "func main() {\n  r0 = 0;\n";
  for (unsigned I = 1; I != RingSize; ++I)
    Src += "  r" + std::to_string(I) + " = r" + std::to_string(I - 1) + ";\n";
  Src += "  r0 = r" + std::to_string(RingSize - 1) + ";\n";
  Src += "  t0 = r0;\n";
  for (unsigned I = 1; I != Tail; ++I)
    Src += "  t" + std::to_string(I) + " = t" + std::to_string(I - 1) + ";\n";
  for (unsigned I = 1; I <= K; ++I)
    Src += "  q" + std::to_string(I) + " = 0;\n";
  for (unsigned I = 1; I <= K; ++I)
    Src += "  c" + std::to_string(I) + " = alloc heap 1 uninit;\n";
  for (unsigned I = 1; I != K; ++I)
    Src += "  *c" + std::to_string(I) + " = c" + std::to_string(I + 1) + ";\n";
  for (unsigned I = 1; I != K; ++I)
    Src += "  q" + std::to_string(I + 1) + " = *q" + std::to_string(I) + ";\n";
  for (unsigned I = 1; I <= K; ++I)
    Src += "  r0 = q" + std::to_string(I) + ";\n";
  Src += "  q1 = c1;\n  ret 0;\n}\n";
  return Src;
}

analysis::SolverStatistics solveRingWithBudget(Budget &B) {
  auto M = parser::parseModuleOrAbort(ringWorkload().c_str());
  analysis::CallGraph CG(*M);
  B.beginPhase(BudgetPhase::PointerAnalysis);
  analysis::PointerAnalysis PA(*M, CG, analysis::PtaOptions(), &B);
  EXPECT_EQ(PA.exhausted(), B.exhausted());
  return PA.solverStats();
}

TEST(Budget, MergedPopsAreSkippedWithoutCharge) {
  BudgetLimits L;
  L.MaxStepsPerPhase = 100'000'000; // generous, but armed
  Budget B(L);
  analysis::SolverStatistics S = solveRingWithBudget(B);
  ASSERT_FALSE(B.exhausted());
  // The ring collapsed mid-solve with members still queued...
  EXPECT_GT(S.NumCollapses, 0u);
  EXPECT_GE(S.NumCollapsedNodes, 15u);
  EXPECT_GT(S.NumSkippedMergedPops, 0u);
  // ...the stale pops were counted but not charged...
  EXPECT_GE(S.NumPops, S.NumSkippedMergedPops);
  // ...and the token granted exactly the steps the solver says it
  // charged: any drift here would make fault injection nondeterministic.
  EXPECT_EQ(B.stepsUsed(), S.NumBudgetSteps);
}

TEST(Budget, SolverChargingIsExactAtTheBoundary) {
  // Pin the charging policy: a limit of exactly stepsUsed() must succeed
  // and one step less must exhaust. If a future change started charging
  // the skipped merged pops (or stopped charging Tarjan visits), the
  // boundary would move and the exhausted run's counters would disagree.
  uint64_t Full = 0;
  {
    BudgetLimits L;
    L.MaxStepsPerPhase = 100'000'000;
    Budget B(L);
    solveRingWithBudget(B);
    ASSERT_FALSE(B.exhausted());
    Full = B.stepsUsed();
    ASSERT_GT(Full, 1u);
  }
  {
    BudgetLimits L;
    L.MaxStepsPerPhase = Full;
    Budget B(L);
    analysis::SolverStatistics S = solveRingWithBudget(B);
    EXPECT_FALSE(B.exhausted());
    EXPECT_EQ(S.NumBudgetSteps, Full);
  }
  {
    BudgetLimits L;
    L.MaxStepsPerPhase = Full - 1;
    Budget B(L);
    solveRingWithBudget(B);
    EXPECT_TRUE(B.exhausted());
    EXPECT_EQ(B.exhaustKind(), ExhaustKind::Steps);
  }
}

TEST(DegradationLadder, ExhaustionMidCollapseFallsToMSan) {
  // Injecting exhaustion in the middle of the solve — including inside
  // collapse/Tarjan work — must leave state the ladder can discard: the
  // driver retries field-insensitively, exhausts again, and lands on the
  // MSan full plan. (The ring source is a constraint-staging workload,
  // not a runnable program — its drip loads trap under the interpreter —
  // so soundness of the produced plan is covered by RungEquivalence.)
  uint64_t Full = 0;
  {
    BudgetLimits L;
    L.MaxStepsPerPhase = 100'000'000;
    Budget B(L);
    solveRingWithBudget(B);
    Full = B.stepsUsed();
  }
  for (uint64_t Cut : {Full / 4, Full / 2, (3 * Full) / 4}) {
    // Fresh module per run: heap cloning mutates it.
    auto M = parser::parseModuleOrAbort(ringWorkload().c_str());
    core::UsherOptions Opts;
    Opts.Variant = ToolVariant::UsherFull;
    FaultPlan F;
    F.Phase = BudgetPhase::PointerAnalysis;
    F.AtStep = Cut;
    Opts.Fault = F;
    core::UsherResult R = core::runUsher(*M, Opts);
    EXPECT_TRUE(R.Degradation.Degraded) << "cut " << Cut;
    EXPECT_EQ(R.Degradation.Rung, ToolVariant::MSanFull) << "cut " << Cut;
    ASSERT_GE(R.Degradation.Steps.size(), 2u) << "cut " << Cut;
    EXPECT_EQ(R.Degradation.Steps[0].Kind, ExhaustKind::Injected)
        << "cut " << Cut;
  }
}

//===----------------------------------------------------------------------===//
// Bounded fire counts and the UNIFY rung
//===----------------------------------------------------------------------===//
//
// A "<phase>@<step>:<fires>" fault exhausts only the first N matching
// arms, which is how the tests aim a run at a *specific* rung: "pta@0:2"
// kills the field-sensitive Andersen attempt and the field-insensitive
// retry, leaving the third arm — the unification solver — to succeed.

TEST(Budget, MaxFiresBoundsInjectedArms) {
  FaultPlan F;
  F.Phase = BudgetPhase::PointerAnalysis;
  F.AtStep = 0;
  F.MaxFires = 2;
  Budget B(BudgetLimits{}, F);
  B.beginPhase(BudgetPhase::PointerAnalysis);
  EXPECT_TRUE(B.exhausted());
  B.beginPhase(BudgetPhase::PointerAnalysis);
  EXPECT_TRUE(B.exhausted());
  // Third arm: the fault has burned its fires; the phase runs clean.
  B.beginPhase(BudgetPhase::PointerAnalysis);
  EXPECT_FALSE(B.exhausted());
  for (int I = 0; I != 100; ++I)
    ASSERT_TRUE(B.step());
}

TEST(FaultSpec, ParsesFireCountSuffix) {
  auto P = parseFaultSpec("pta@0:2");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Phase, BudgetPhase::PointerAnalysis);
  EXPECT_EQ(P->AtStep, 0u);
  EXPECT_EQ(P->MaxFires, 2u);

  P = parseFaultSpec("definedness@17:1");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->AtStep, 17u);
  EXPECT_EQ(P->MaxFires, 1u);

  std::string Err;
  EXPECT_FALSE(parseFaultSpec("pta@0:0", &Err).has_value());
  EXPECT_NE(Err.find("positive"), std::string::npos);
  EXPECT_FALSE(parseFaultSpec("pta@0:2x", &Err).has_value());
  EXPECT_NE(Err.find("non-numeric"), std::string::npos);
}

TEST(DegradationLadder, PtaTwoFireInjectionLandsOnUnify) {
  auto M = workload::generateProgram(10);
  core::UsherOptions Opts;
  Opts.Variant = ToolVariant::UsherFull;
  FaultPlan F;
  F.Phase = BudgetPhase::PointerAnalysis;
  F.AtStep = 0;
  F.MaxFires = 2;
  Opts.Fault = F;
  core::UsherResult R = core::runUsher(*M, Opts);
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherTLAT);
  ASSERT_EQ(R.Degradation.Steps.size(), 2u);
  EXPECT_NE(R.Degradation.Steps[0].Action.find("field-insensitive"),
            std::string::npos);
  EXPECT_NE(R.Degradation.Steps[1].Action.find("unification"),
            std::string::npos);
  // The salvaged run really is backed by the unification engine over the
  // field-insensitive constraints — not by a lucky Andersen rerun.
  EXPECT_EQ(R.Stats.Solver.Engine, analysis::SolverKind::Unify);
  ASSERT_TRUE(R.PA != nullptr);
  EXPECT_EQ(R.PA->options().Solver, analysis::SolverKind::Unify);
  EXPECT_FALSE(R.PA->options().FieldSensitive);
  // And the plan is usable.
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
  EXPECT_EQ(Rep.Reason, runtime::ExitReason::Finished);
}

TEST(DegradationLadder, EnvFaultSpecDrivesUnifyRung) {
  // Interpreter-under-test path: tools that cannot take flags read the
  // spec from USHER_INJECT_FAULT; the parsed plan must drive the ladder
  // exactly like a programmatic one.
  ASSERT_EQ(setenv(FaultInjectionEnvVar, "pta@0:2", 1), 0);
  std::optional<FaultPlan> F = faultPlanFromEnv();
  unsetenv(FaultInjectionEnvVar);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->MaxFires, 2u);

  auto M = workload::generateProgram(11);
  core::UsherOptions Opts;
  Opts.Variant = ToolVariant::UsherFull;
  Opts.Fault = *F;
  core::UsherResult R = core::runUsher(*M, Opts);
  EXPECT_TRUE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherTLAT);
  EXPECT_EQ(R.Stats.Solver.Engine, analysis::SolverKind::Unify);
}

TEST(DegradationLadder, GenerousBudgetStaysOnRequestedRung) {
  // The acceptance criterion's happy path: real limits that are generous
  // enough must leave the pipeline undegraded.
  auto M = workload::generateProgram(9);
  core::UsherOptions Opts;
  Opts.Limits.MaxStepsPerPhase = 1'000'000'000;
  Opts.Limits.PhaseDeadlineMs = 120'000;
  core::UsherResult R = core::runUsher(*M, Opts);
  EXPECT_FALSE(R.Degradation.Degraded);
  EXPECT_EQ(R.Degradation.Rung, ToolVariant::UsherFull);
}

} // namespace
