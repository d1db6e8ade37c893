//===- tests/SoundnessPropertyTest.cpp - The paper's soundness claim -------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper claims Usher's guided instrumentation is sound: no use of an
/// undefined value that full instrumentation would report is missed. This
/// file turns that claim into a property over seeded random programs:
///
///  - full (MSan-style) instrumentation must report exactly the oracle's
///    ground-truth warnings;
///  - UsherTL / UsherTL+AT / UsherOptI must report exactly the same
///    warnings as full instrumentation;
///  - UsherFull (with Opt II) may suppress *dominated duplicates*, so its
///    warnings must be a subset, non-empty iff the oracle's are, and every
///    suppressed warning must still leave the defect visible somewhere.
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "runtime/Interpreter.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <set>

using namespace usher;
using core::ToolVariant;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;

namespace {

std::set<const ir::Instruction *> warnSet(const std::vector<runtime::Warning> &Ws) {
  std::set<const ir::Instruction *> S;
  for (const runtime::Warning &W : Ws)
    S.insert(W.At);
  return S;
}

class SoundnessProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoundnessProperty, GuidedReportsMatchFull) {
  const uint64_t Seed = GetParam();
  auto M = workload::generateProgram(Seed);

  // Ground truth from a native (uninstrumented) run.
  ExecutionReport Native = Interpreter(*M, nullptr).run();
  ASSERT_EQ(Native.Reason, ExitReason::Finished)
      << "seed " << Seed << ": " << Native.TrapMessage;
  const auto Oracle = warnSet(Native.OracleWarnings);

  struct VariantRun {
    ToolVariant V;
    bool ExactMatch;
  };
  const VariantRun Runs[] = {
      {ToolVariant::MSanFull, true},  {ToolVariant::UsherTL, true},
      {ToolVariant::UsherTLAT, true}, {ToolVariant::UsherOptI, true},
      {ToolVariant::UsherFull, false},
  };

  for (const VariantRun &Run : Runs) {
    core::UsherOptions Opts;
    Opts.Variant = Run.V;
    core::UsherResult R = core::runUsher(*M, Opts);
    ExecutionReport Rep = Interpreter(*M, &R.Plan).run();
    ASSERT_EQ(Rep.Reason, ExitReason::Finished)
        << "seed " << Seed << " variant " << core::toolVariantName(Run.V);
    EXPECT_EQ(Rep.MainResult, Native.MainResult)
        << "instrumentation changed program semantics (seed " << Seed
        << ")";
    auto Tool = warnSet(Rep.ToolWarnings);
    if (Run.ExactMatch) {
      EXPECT_EQ(Tool, Oracle)
          << "seed " << Seed << " variant " << core::toolVariantName(Run.V);
    } else {
      // Opt II suppresses dominated duplicate reports only.
      for (const ir::Instruction *I : Tool)
        EXPECT_TRUE(Oracle.count(I))
            << "seed " << Seed << ": false positive under Opt II";
      EXPECT_EQ(Tool.empty(), Oracle.empty())
          << "seed " << Seed << ": Opt II hid a real defect entirely";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessProperty,
                         ::testing::Range<uint64_t>(0, 150));

//===----------------------------------------------------------------------===//
// Soundness under degradation
//===----------------------------------------------------------------------===//
//
// Injecting budget exhaustion into any phase must leave the warnings
// intact: whatever rung the driver lands on, the produced plan reports
// exactly the oracle's undefined-value uses. (Every landing rung —
// MSAN, USHER-TL, USHER-TL+AT, USHER-OPTI — has exact-match semantics;
// the driver never strands a run on a half-applied Opt II.)

class DegradedSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DegradedSoundness, InjectedExhaustionKeepsWarnings) {
  const uint64_t Seed = GetParam();
  auto M = workload::generateProgram(Seed);

  ExecutionReport Native = Interpreter(*M, nullptr).run();
  ASSERT_EQ(Native.Reason, ExitReason::Finished)
      << "seed " << Seed << ": " << Native.TrapMessage;
  const auto Oracle = warnSet(Native.OracleWarnings);

  struct FaultCase {
    BudgetPhase Phase;
    ToolVariant Requested;
    ToolVariant ExpectedRung;
    uint32_t Fires = 0; ///< bounded fire count; 0 = every arm
  };
  const FaultCase Cases[] = {
      {BudgetPhase::PointerAnalysis, ToolVariant::UsherFull,
       ToolVariant::MSanFull},
      // One fire exhausts field-sensitive Andersen only: the run keeps
      // the requested rung on field-insensitive points-to sets, which
      // must still report the oracle's warnings.
      {BudgetPhase::PointerAnalysis, ToolVariant::UsherOptI,
       ToolVariant::UsherOptI, /*Fires=*/1},
      {BudgetPhase::Definedness, ToolVariant::UsherFull,
       ToolVariant::UsherTLAT},
      {BudgetPhase::OptII, ToolVariant::UsherFull, ToolVariant::UsherOptI},
      {BudgetPhase::OptI, ToolVariant::UsherOptI, ToolVariant::UsherTLAT},
  };

  for (const FaultCase &C : Cases) {
    core::UsherOptions Opts;
    Opts.Variant = C.Requested;
    FaultPlan F;
    F.Phase = C.Phase;
    F.AtStep = 0;
    F.MaxFires = C.Fires;
    Opts.Fault = F;
    core::UsherResult R = core::runUsher(*M, Opts);
    EXPECT_TRUE(R.Degradation.Degraded)
        << "seed " << Seed << " fault " << budgetPhaseName(C.Phase);
    EXPECT_EQ(R.Degradation.Rung, C.ExpectedRung)
        << "seed " << Seed << " fault " << budgetPhaseName(C.Phase);

    ExecutionReport Rep = Interpreter(*M, &R.Plan).run();
    ASSERT_EQ(Rep.Reason, ExitReason::Finished)
        << "seed " << Seed << " fault " << budgetPhaseName(C.Phase);
    EXPECT_EQ(Rep.MainResult, Native.MainResult)
        << "degraded instrumentation changed program semantics (seed "
        << Seed << ")";
    EXPECT_EQ(warnSet(Rep.ToolWarnings), Oracle)
        << "seed " << Seed << " fault " << budgetPhaseName(C.Phase)
        << ": degraded plan missed or invented warnings";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegradedSoundness,
                         ::testing::Range<uint64_t>(0, 25));

} // namespace
