//===- tests/WorkloadTest.cpp - Generator and suite infrastructure ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/RawStream.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"

#include <gtest/gtest.h>

#include <map>

using namespace usher;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;

namespace {

//===----------------------------------------------------------------------===//
// Random program generator
//===----------------------------------------------------------------------===//

TEST(Generator, DeterministicForEqualSeeds) {
  auto A = workload::generateProgram(77);
  auto B = workload::generateProgram(77);
  std::string SA, SB;
  raw_string_ostream OA(SA), OB(SB);
  A->print(OA);
  B->print(OB);
  EXPECT_EQ(SA, SB);
}

TEST(Generator, DifferentSeedsDiffer) {
  auto A = workload::generateProgram(1);
  auto B = workload::generateProgram(2);
  std::string SA, SB;
  raw_string_ostream OA(SA), OB(SB);
  A->print(OA);
  B->print(OB);
  EXPECT_NE(SA, SB);
}

TEST(Generator, ProgramsVerifyAndTerminate) {
  for (uint64_t Seed = 500; Seed != 540; ++Seed) {
    auto M = workload::generateProgram(Seed);
    std::vector<std::string> Errors;
    EXPECT_TRUE(ir::verifyModule(*M, Errors))
        << "seed " << Seed << ": " << Errors.front();
    runtime::ExecLimits Limits;
    Limits.MaxSteps = 5'000'000;
    ExecutionReport R =
        Interpreter(*M, nullptr, runtime::CostModel(), Limits).run();
    EXPECT_EQ(R.Reason, ExitReason::Finished)
        << "seed " << Seed << ": " << R.TrapMessage;
  }
}

TEST(Generator, ProducesUndefinedUsesRegularly) {
  unsigned WithBugs = 0;
  for (uint64_t Seed = 0; Seed != 60; ++Seed) {
    auto M = workload::generateProgram(Seed);
    ExecutionReport R = Interpreter(*M, nullptr).run();
    if (R.Reason == ExitReason::Finished && !R.OracleWarnings.empty())
      ++WithBugs;
  }
  // The generator exists to exercise undefined-value flows: a healthy
  // fraction of programs must actually exhibit one.
  EXPECT_GE(WithBugs, 10u);
  EXPECT_LE(WithBugs, 58u) << "and a fraction must be clean, too";
}

TEST(Generator, RoundTripsThroughPrinterAndParser) {
  // Seeds 0-199 and 900-909, and the seeds whose locals once took a
  // global's name (99 is among the first).
  std::vector<uint64_t> Seeds = {628, 928, 932};
  for (uint64_t Seed = 0; Seed != 200; ++Seed)
    Seeds.push_back(Seed);
  for (uint64_t Seed = 900; Seed != 910; ++Seed)
    Seeds.push_back(Seed);
  for (uint64_t Seed : Seeds) {
    auto M = workload::generateProgram(Seed);
    std::string Text;
    raw_string_ostream OS(Text);
    M->print(OS);
    parser::ParseResult Reparsed = parser::parseModule(Text);
    ASSERT_TRUE(Reparsed.succeeded())
        << "seed " << Seed << ": " << Reparsed.Errors.front();
    // Same observable behaviour.
    ExecutionReport A = Interpreter(*M, nullptr).run();
    ExecutionReport B = Interpreter(*Reparsed.M, nullptr).run();
    ASSERT_EQ(A.Reason, ExitReason::Finished);
    ASSERT_EQ(B.Reason, ExitReason::Finished);
    EXPECT_EQ(A.MainResult, B.MainResult) << "seed " << Seed;
    EXPECT_EQ(A.OracleWarnings.size(), B.OracleWarnings.size())
        << "seed " << Seed;
  }
}

TEST(Generator, OptionsControlShape) {
  workload::GeneratorOptions Small;
  Small.NumFunctions = 1;
  Small.MaxSegmentsPerFn = 2;
  workload::GeneratorOptions Big;
  Big.NumFunctions = 12;
  Big.MaxSegmentsPerFn = 8;
  auto MSmall = workload::generateProgram(42, Small);
  auto MBig = workload::generateProgram(42, Big);
  EXPECT_LT(MSmall->instructionCount(), MBig->instructionCount());
  EXPECT_EQ(MSmall->functions().size(), 2u); // f0 + main.
  EXPECT_EQ(MBig->functions().size(), 13u);
}

//===----------------------------------------------------------------------===//
// Construct coverage: the pointer-flow shapes the fuzzer needs
//===----------------------------------------------------------------------===//

struct ConstructCounts {
  unsigned NestedChainGeps = 0; ///< gep whose base was just load-defined.
  unsigned InductionGeps = 0;   ///< gep whose def equals its base (p = gep p).
  unsigned CallResultGeps = 0;  ///< gep whose base was just call-defined.
};

/// Classifies every gep in \p M by what last defined its base variable, in
/// emission order — the structural signatures of the generator's nested
/// field chains, pointer-induction loops, and call-result field accesses.
ConstructCounts countConstructs(const ir::Module &M) {
  ConstructCounts C;
  for (const auto &F : M.functions()) {
    std::map<const ir::Variable *, ir::Instruction::IKind> LastDef;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions()) {
        if (const auto *G = dyn_cast<ir::FieldAddrInst>(I.get());
            G && G->getBase().isVar()) {
          const ir::Variable *Base = G->getBase().getVar();
          auto It = LastDef.find(Base);
          if (G->getDef() == Base)
            ++C.InductionGeps;
          else if (It != LastDef.end() &&
                   It->second == ir::Instruction::IKind::Load)
            ++C.NestedChainGeps;
          else if (It != LastDef.end() &&
                   It->second == ir::Instruction::IKind::Call)
            ++C.CallResultGeps;
        }
        if (I->getDef())
          LastDef[I->getDef()] = I->getKind();
      }
  }
  return C;
}

TEST(Generator, EmitsAllPointerFlowConstructsOverASeedSweep) {
  ConstructCounts Total;
  for (uint64_t Seed = 0; Seed != 40; ++Seed) {
    ConstructCounts C = countConstructs(*workload::generateProgram(Seed));
    Total.NestedChainGeps += C.NestedChainGeps;
    Total.InductionGeps += C.InductionGeps;
    Total.CallResultGeps += C.CallResultGeps;
  }
  // Each construct stresses a distinct analysis path (multi-level field
  // flow, array summaries under pointer induction, interprocedural
  // return flow), so each must show up regularly.
  EXPECT_GE(Total.NestedChainGeps, 5u);
  EXPECT_GE(Total.InductionGeps, 5u);
  EXPECT_GE(Total.CallResultGeps, 5u);
}

//===----------------------------------------------------------------------===//
// Benchmark suite infrastructure
//===----------------------------------------------------------------------===//

TEST(Suite, NamesFollowSpecNumbering) {
  const auto &Suite = workload::spec2000Suite();
  ASSERT_EQ(Suite.size(), 15u);
  EXPECT_EQ(Suite.front().Name, "164.gzip");
  EXPECT_EQ(Suite.back().Name, "300.twolf");
  for (const auto &B : Suite) {
    EXPECT_FALSE(B.Description.empty());
    EXPECT_NE(B.Source, nullptr);
  }
}

TEST(Suite, ProgramsAreNontrivial) {
  for (const auto &B : workload::spec2000Suite()) {
    auto M = workload::loadBenchmark(B);
    EXPECT_GE(M->instructionCount(), 50u) << B.Name;
    EXPECT_GE(M->functions().size(), 1u) << B.Name;
    ExecutionReport R = Interpreter(*M, nullptr).run();
    EXPECT_GE(R.Steps, 100'000u)
        << B.Name << " must run long enough to measure";
  }
}

TEST(Suite, MixesInitializedAndUninitializedAllocations) {
  unsigned Uninit = 0, Total = 0;
  for (const auto &B : workload::spec2000Suite()) {
    auto M = workload::loadBenchmark(B);
    for (const auto &Obj : M->objects()) {
      ++Total;
      Uninit += !Obj->isInitialized();
    }
  }
  double Pct = 100.0 * Uninit / Total;
  // Table 1's %F column averages 34% in the paper; the suite was written
  // to sit near that.
  EXPECT_GT(Pct, 20.0);
  EXPECT_LT(Pct, 60.0);
}

TEST(Suite, ContainsWrapperAllocationPatterns) {
  // Heap cloning and semi-strong updates need wrapper-style allocation to
  // matter; the suite must exercise that (mcf, gcc, ammp, gap, vortex).
  unsigned WithWrappers = 0;
  for (const auto &B : workload::spec2000Suite()) {
    auto M = workload::loadBenchmark(B);
    analysis::CallGraph CG(*M);
    analysis::PointerAnalysis PA(*M, CG);
    for (const auto &F : M->functions())
      if (PA.isAllocWrapper(F.get())) {
        ++WithWrappers;
        break;
      }
  }
  EXPECT_GE(WithWrappers, 4u);
}

} // namespace
