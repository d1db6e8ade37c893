//===- tests/SynthesizerTest.cpp - Workload synthesizer properties ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the whole-program synthesizer and the program
/// linker (workload/Synthesizer.h): same-seed determinism, the
/// parse/verify/terminate contract, the DefineAll warning-freedom
/// guarantee, shape-spec fidelity, the calibrated size dial, and linker
/// composition semantics.
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

using namespace usher;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;
using workload::ShapeMetrics;
using workload::ShapeSpec;

namespace {

/// Small default-shape spec: the 25-function skeleton, quick to generate
/// and to run, with every statement kind still present.
ShapeSpec smallSpec(uint64_t Seed = 1) {
  ShapeSpec S;
  S.Seed = Seed;
  S.TargetNodes = 2'000;
  return S;
}

ExecutionReport runNative(const std::string &Source) {
  parser::ParseResult PR = parser::parseModule(Source);
  EXPECT_TRUE(PR.succeeded())
      << (PR.Errors.empty() ? "unknown parse error" : PR.Errors.front());
  if (!PR.succeeded())
    return {};
  return Interpreter(*PR.M, nullptr).run();
}

TEST(Synthesizer, SeedsProduceDistinctPrograms) {
  std::string A = workload::synthesizeProgram(smallSpec(1));
  std::string B = workload::synthesizeProgram(smallSpec(2));
  EXPECT_NE(A, B);
  // And the same seed reproduces.
  EXPECT_EQ(workload::synthesizeProgram(smallSpec(1)), A);
}

TEST(Synthesizer, ParsesRunsAndWarnsWithoutTrapping) {
  for (uint64_t Seed : {1, 2, 3, 4, 5}) {
    ExecutionReport R = runNative(workload::synthesizeProgram(smallSpec(Seed)));
    ASSERT_EQ(R.Reason, ExitReason::Finished)
        << "seed " << Seed << ": " << R.TrapMessage;
    // 40% uninitialized allocations: some undefined value reaches a
    // branch in every realistic draw.
    EXPECT_FALSE(R.OracleWarnings.empty()) << "seed " << Seed;
  }
}

TEST(Synthesizer, DefineAllIsWarningFreeByConstruction) {
  for (uint64_t Seed : {1, 2, 3, 4, 5}) {
    ShapeSpec Spec = smallSpec(Seed);
    Spec.DefineAll = true;
    ExecutionReport R = runNative(workload::synthesizeProgram(Spec));
    ASSERT_EQ(R.Reason, ExitReason::Finished)
        << "seed " << Seed << ": " << R.TrapMessage;
    EXPECT_TRUE(R.OracleWarnings.empty())
        << "seed " << Seed << ": --define-all program used an undefined "
        << "value";
  }
}

TEST(Synthesizer, ShapeSpecIsHonored) {
  ShapeSpec Spec;
  Spec.TargetNodes = 2'000;
  Spec.CallDepth = 5;
  Spec.Fanout = 3;
  Spec.RecursionRings = 2;
  Spec.RingSize = 3;
  Spec.UninitAllocPercent = 40;
  parser::ParseResult PR =
      parser::parseModule(workload::synthesizeProgram(Spec));
  ASSERT_TRUE(PR.succeeded());
  ShapeMetrics Met = workload::measureShape(*PR.M);

  // Exact structural properties.
  EXPECT_EQ(Met.CallDepth, Spec.CallDepth);
  EXPECT_EQ(Met.NontrivialSccs, Spec.RecursionRings);
  EXPECT_DOUBLE_EQ(Met.AvgFanout, 3.0);
  // Tree levels * width + rings + main. At this small target the level
  // width equals the fanout.
  EXPECT_EQ(Met.NumFunctions,
            Spec.CallDepth * Spec.Fanout +
                Spec.RecursionRings * Spec.RingSize + 1);
  // Statistical property, generous band around the requested 40%.
  EXPECT_GE(Met.UninitAllocFraction, 0.20);
  EXPECT_LE(Met.UninitAllocFraction, 0.60);
}

TEST(Synthesizer, SizeDialHitsFactorTwoBand) {
  // The calibrated dial: the measured VFG node count of the full pipeline
  // must land within a factor of two of the target (above the ~9k-node
  // floor of the default 25-function skeleton). The dial counts the
  // unpruned graph: the nodes built plus the memory versions pruned.
  for (unsigned Target : {10'000u, 40'000u}) {
    ShapeSpec Spec;
    Spec.TargetNodes = Target;
    parser::ParseResult PR =
        parser::parseModule(workload::synthesizeProgram(Spec));
    ASSERT_TRUE(PR.succeeded());
    core::UsherOptions Opts;
    core::UsherResult UR = core::runUsher(*PR.M, Opts);
    uint64_t Nodes = UR.Stats.NumVFGNodes + UR.Stats.NumPrunedMemVersions;
    EXPECT_GE(Nodes, Target / 2) << "target " << Target;
    EXPECT_LE(Nodes, Target * 2) << "target " << Target;
  }
}

TEST(Linker, ComposesResultsAndKeepsUnitsIsolated) {
  // Two distinct synthesized programs; the linked module's driver returns
  // the sum of the unit results, and each unit's warnings survive under
  // its prefix. The standalone modules must outlive the reports: warning
  // records point into their IR.
  std::string A = workload::synthesizeProgram(smallSpec(11));
  std::string B = workload::synthesizeProgram(smallSpec(12));
  parser::ParseResult PA = parser::parseModule(A);
  parser::ParseResult PB = parser::parseModule(B);
  ASSERT_TRUE(PA.succeeded());
  ASSERT_TRUE(PB.succeeded());
  ExecutionReport RA = Interpreter(*PA.M, nullptr).run();
  ExecutionReport RB = Interpreter(*PB.M, nullptr).run();
  ASSERT_EQ(RA.Reason, ExitReason::Finished);
  ASSERT_EQ(RB.Reason, ExitReason::Finished);

  std::string Err;
  workload::LinkedProgram LP =
      workload::linkPrograms({{"a", A}, {"b", B}}, &Err);
  ASSERT_FALSE(LP.Source.empty()) << Err;
  ASSERT_EQ(LP.Prefixes.size(), 2u);

  parser::ParseResult PR = parser::parseModule(LP.Source);
  ASSERT_TRUE(PR.succeeded())
      << (PR.Errors.empty() ? "unknown parse error" : PR.Errors.front());
  ExecutionReport RL = Interpreter(*PR.M, nullptr).run();
  ASSERT_EQ(RL.Reason, ExitReason::Finished) << RL.TrapMessage;
  EXPECT_EQ(RL.MainResult, RA.MainResult + RB.MainResult);

  // Per-unit warning sets, mapped back through the prefixes, must equal
  // the standalone runs' sets.
  std::map<std::string, std::multiset<std::string>> PerUnit;
  for (const runtime::Warning &W : RL.OracleWarnings) {
    std::string Key = workload::warningSiteKey(W.At);
    for (size_t U = 0; U != LP.Prefixes.size(); ++U) {
      const std::string &P = LP.Prefixes[U];
      if (Key.rfind(P, 0) == 0) {
        PerUnit[P].insert(workload::warningSiteKey(W.At, P));
        break;
      }
    }
  }
  std::multiset<std::string> WantA, WantB;
  for (const runtime::Warning &W : RA.OracleWarnings)
    WantA.insert(workload::warningSiteKey(W.At));
  for (const runtime::Warning &W : RB.OracleWarnings)
    WantB.insert(workload::warningSiteKey(W.At));
  EXPECT_EQ(PerUnit[LP.Prefixes[0]], WantA);
  EXPECT_EQ(PerUnit[LP.Prefixes[1]], WantB);
}

TEST(Linker, ReportsWhichUnitFailedToParse) {
  std::string Err;
  workload::LinkedProgram LP = workload::linkPrograms(
      {{"good", workload::synthesizeProgram(smallSpec(1))},
       {"broken", "func main( {"}},
      &Err);
  EXPECT_TRUE(LP.Source.empty());
  EXPECT_NE(Err.find("broken"), std::string::npos)
      << "error does not name the failing unit: " << Err;
}

TEST(Linker, PrefixMappingRoundTrips) {
  // warningSiteKey strips exactly a matching prefix, and linker prefixes
  // cannot collide: "u1_" never prefixes a "u12_..." symbol.
  std::string A = workload::synthesizeProgram(smallSpec(3));
  std::vector<workload::LinkUnit> Units(13, {"u", A});
  std::string Err;
  workload::LinkedProgram LP = workload::linkPrograms(Units, &Err);
  ASSERT_FALSE(LP.Source.empty()) << Err;
  ASSERT_EQ(LP.Prefixes.size(), 13u);
  for (size_t I = 0; I != LP.Prefixes.size(); ++I)
    for (size_t J = 0; J != LP.Prefixes.size(); ++J)
      if (I != J) {
        EXPECT_NE(LP.Prefixes[J].rfind(LP.Prefixes[I], 0), 0u)
            << LP.Prefixes[I] << " prefixes " << LP.Prefixes[J];
      }
  // Thirteen copies of the same program: thirteen times the result.
  ExecutionReport RA = runNative(A);
  ExecutionReport RL = runNative(LP.Source);
  ASSERT_EQ(RL.Reason, ExitReason::Finished) << RL.TrapMessage;
  EXPECT_EQ(RL.MainResult, 13 * RA.MainResult);
}

} // namespace
