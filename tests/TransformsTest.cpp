//===- tests/TransformsTest.cpp - Transformation correctness ---------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/RawStream.h"
#include "transforms/Transforms.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace usher;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;
using transforms::OptPreset;

namespace {

/// Runs one of runPreset's passes on \p M and, if it changed the module,
/// renumbers it as runPreset does at its end. Returns the pass's result.
template <typename... ArgTs>
bool runPass(bool (*Pass)(ir::Module &, ArgTs...), ir::Module &M,
             ArgTs... Args) {
  if (!Pass(M, Args...))
    return false;
  M.renumber();
  return true;
}

TEST(Mem2Reg, PromotesSimpleEntryAlloc) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      p = alloc stack 2 uninit;
      q = gep p, 1;
      *p = 3;
      *q = 4;
      a = *p;
      b = *q;
      r = a + b;
      ret r;
    }
  )");
  size_t ObjsBefore = M->objects().size();
  EXPECT_TRUE(runPass(transforms::detail::promoteMemoryToRegisters, *M));
  EXPECT_LT(M->objects().size(), ObjsBefore);
  ir::verifyModuleOrAbort(*M);
  ExecutionReport Rep = Interpreter(*M, nullptr).run();
  EXPECT_EQ(Rep.MainResult, 7);
  // No loads/stores should remain.
  for (const auto &F : M->functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        EXPECT_FALSE(isa<ir::LoadInst>(I.get()) ||
                     isa<ir::StoreInst>(I.get()));
}

TEST(Mem2Reg, DoesNotPromoteEscapingAlloc) {
  auto M = parser::parseModuleOrAbort(R"(
    func use(p) {
      *p = 9;
      ret;
    }
    func main() {
      p = alloc stack 1 uninit;
      use(p);
      x = *p;
      ret x;
    }
  )");
  runPass(transforms::detail::promoteMemoryToRegisters, *M);
  ir::verifyModuleOrAbort(*M);
  ExecutionReport Rep = Interpreter(*M, nullptr).run();
  EXPECT_EQ(Rep.MainResult, 9);
}

TEST(Mem2Reg, PreservesUninitializedSemantics) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      p = alloc stack 1 uninit;
      x = *p;
      if x goto one;
      ret 0;
    one:
      ret 1;
    }
  )");
  ExecutionReport Before = Interpreter(*M, nullptr).run();
  ASSERT_EQ(Before.OracleWarnings.size(), 1u);
  EXPECT_TRUE(runPass(transforms::detail::promoteMemoryToRegisters, *M));
  ExecutionReport After = Interpreter(*M, nullptr).run();
  // The undefined use moved from the load to the branch but is still
  // there, and the result is unchanged.
  EXPECT_EQ(After.MainResult, Before.MainResult);
  EXPECT_EQ(After.OracleWarnings.size(), 1u);
}

TEST(Inliner, InlinesAndPreservesResult) {
  auto M = parser::parseModuleOrAbort(R"(
    func add(a, b) {
      c = a + b;
      ret c;
    }
    func main() {
      x = add(20, 22);
      y = add(x, 0);
      ret y;
    }
  )");
  EXPECT_TRUE(runPass(transforms::detail::inlineSmallFunctions, *M,
                      transforms::DefaultInlineLimit));
  ir::verifyModuleOrAbort(*M);
  // No calls remain in main.
  const ir::Function *Main = M->findFunction("main");
  for (const auto &BB : Main->blocks())
    for (const auto &I : BB->instructions())
      EXPECT_FALSE(isa<ir::CallInst>(I.get()));
  ExecutionReport Rep = Interpreter(*M, nullptr).run();
  EXPECT_EQ(Rep.MainResult, 42);
}

TEST(LocalOpt, FoldsConstantsAndBranches) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      a = 6;
      b = 7;
      c = a * b;
      d = 1;
      if d goto yes;
      ret 0;
    yes:
      ret c;
    }
  )");
  EXPECT_TRUE(runPass(transforms::detail::propagateAndFold, *M));
  ir::verifyModuleOrAbort(*M);
  ExecutionReport Rep = Interpreter(*M, nullptr).run();
  EXPECT_EQ(Rep.MainResult, 42);
  // The branch became a goto.
  const ir::Function *Main = M->findFunction("main");
  for (const auto &BB : Main->blocks())
    for (const auto &I : BB->instructions())
      EXPECT_FALSE(isa<ir::CondBrInst>(I.get()));
}

TEST(DCE, RemovesDeadLoadHidingTheBug) {
  // The classic Section 4.6 effect: optimizing away a dead load removes
  // the undefined use entirely.
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      p = alloc heap 1 uninit;
      x = *p;
      ret 5;
    }
  )");
  ExecutionReport Before = Interpreter(*M, nullptr).run();
  EXPECT_EQ(Before.OracleWarnings.size(), 0u); // Load ptr is defined.
  EXPECT_TRUE(runPass(transforms::detail::eliminateDeadCode, *M));
  ir::verifyModuleOrAbort(*M);
  const ir::Function *Main = M->findFunction("main");
  size_t Loads = 0;
  for (const auto &BB : Main->blocks())
    for (const auto &I : BB->instructions())
      Loads += isa<ir::LoadInst>(I.get());
  EXPECT_EQ(Loads, 0u);
}

/// The printed instructions of \p F, one per line.
std::string bodyOf(const ir::Function &F) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      I->print(OS);
      OS << '\n';
    }
  OS.flush();
  return Buf;
}

TEST(DCE, RemovesALongDeadChainInOneCall) {
  std::string Source = "func main() {\n  x0 = 1;\n";
  for (int Idx = 1; Idx != 1000; ++Idx)
    Source += "  x" + std::to_string(Idx) + " = x" + std::to_string(Idx - 1) +
              ";\n";
  Source += "  ret 0;\n}\n";
  auto M = parser::parseModuleOrAbort(Source);
  EXPECT_TRUE(runPass(transforms::detail::eliminateDeadCode, *M));
  EXPECT_EQ(bodyOf(*M->findFunction("main")), "ret 0;\n");
  EXPECT_EQ(M->instructionCount(), 1u);
  EXPECT_FALSE(runPass(transforms::detail::eliminateDeadCode, *M));
}

TEST(DCE, KeepsDeadCopyCyclesAndSelfUses) {
  // Liveness is "read by a kept instruction", so a cycle of copies and an
  // increment that only feeds itself stay, as they always have.
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      var x, y;
      x = y;
      y = x;
      z = 0;
      z = z + 1;
      w = 4;
      ret 0;
    }
  )");
  EXPECT_TRUE(runPass(transforms::detail::eliminateDeadCode, *M));
  EXPECT_EQ(bodyOf(*M->findFunction("main")),
            "x = y;\ny = x;\nz = 0;\nz = z + 1;\nret 0;\n");
  EXPECT_FALSE(runPass(transforms::detail::eliminateDeadCode, *M));
}

TEST(DCE, KeepsACallWithAnUnusedResultAndClearsItsDef) {
  auto M = parser::parseModuleOrAbort(R"(
    func f() { ret 1; }
    func main() {
      r = f();
      s = r + 1;
      ret 0;
    }
  )");
  EXPECT_TRUE(runPass(transforms::detail::eliminateDeadCode, *M));
  EXPECT_EQ(bodyOf(*M->findFunction("main")), "f();\nret 0;\n");
  ir::verifyModuleOrAbort(*M);
  EXPECT_FALSE(runPass(transforms::detail::eliminateDeadCode, *M));
}

TEST(DCE, RemovesADeadAllocAndPurgesItsObject) {
  auto M = parser::parseModuleOrAbort(R"(
    global g[1] init;
    func main() {
      a = alloc heap 2 uninit;
      b = alloc stack 1 init;
      q = gep b, 0;
      c = alloc heap 1 init;
      *c = 1;
      ret 0;
    }
  )");
  ASSERT_EQ(M->objects().size(), 4u);
  EXPECT_TRUE(runPass(transforms::detail::eliminateDeadCode, *M));
  ir::verifyModuleOrAbort(*M);
  ASSERT_EQ(M->objects().size(), 2u);
  EXPECT_EQ(M->objects()[0]->getName(), "g");
  EXPECT_EQ(M->objects()[1]->getName(), "main.c.2");
  for (size_t Idx = 0; Idx != M->objects().size(); ++Idx)
    EXPECT_EQ(M->objects()[Idx]->getId(), Idx);
  EXPECT_FALSE(runPass(transforms::detail::eliminateDeadCode, *M));
}

class PresetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PresetProperty, PresetsPreserveResults) {
  const uint64_t Seed = GetParam();
  auto Reference = workload::generateProgram(Seed);
  ExecutionReport Native = Interpreter(*Reference, nullptr).run();
  ASSERT_EQ(Native.Reason, ExitReason::Finished);

  for (OptPreset P : {OptPreset::O0IM, OptPreset::O1, OptPreset::O2}) {
    auto M = workload::generateProgram(Seed);
    transforms::runPreset(*M, P);
    ExecutionReport Rep = Interpreter(*M, nullptr).run();
    ASSERT_EQ(Rep.Reason, ExitReason::Finished)
        << "seed " << Seed << " preset " << transforms::optPresetName(P)
        << ": " << Rep.TrapMessage;
    EXPECT_EQ(Rep.MainResult, Native.MainResult)
        << "seed " << Seed << " preset " << transforms::optPresetName(P);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresetProperty,
                         ::testing::Range<uint64_t>(0, 80));

} // namespace
