//===- tests/AnalysisTest.cpp - CFG/dominators/callgraph/PTA/modref --------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/CallGraph.h"
#include "analysis/Dominators.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace usher;
using namespace usher::analysis;

namespace {

std::unique_ptr<ir::Module> parse(const char *Src) {
  return parser::parseModuleOrAbort(Src);
}

const ir::BasicBlock *blockNamed(const ir::Function *F,
                                 std::string_view Name) {
  for (const auto &BB : F->blocks())
    if (BB->getName() == Name)
      return BB.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// CFG and dominators
//===----------------------------------------------------------------------===//

const char *DiamondSrc = R"(
  func main() {
    x = 1;
    if x goto left;
    goto right;
  left:
    y = 2;
    goto join;
  right:
    y = 3;
    goto join;
  join:
    ret y;
  }
)";

TEST(CFG, PredecessorsAndSuccessors) {
  auto M = parse(DiamondSrc);
  const ir::Function *Main = M->findFunction("main");
  CFGInfo CFG(*Main);
  const ir::BasicBlock *Join = blockNamed(Main, "join");
  ASSERT_NE(Join, nullptr);
  EXPECT_EQ(CFG.predecessors(Join->getId()).size(), 2u);
  EXPECT_TRUE(CFG.successors(Join->getId()).empty());
  EXPECT_EQ(CFG.reversePostOrder().front(), Main->getEntry());
}

TEST(Dominators, DiamondDominance) {
  auto M = parse(DiamondSrc);
  const ir::Function *Main = M->findFunction("main");
  CFGInfo CFG(*Main);
  DominatorTree DT(CFG);
  const ir::BasicBlock *Entry = Main->getEntry();
  const ir::BasicBlock *Left = blockNamed(Main, "left");
  const ir::BasicBlock *Right = blockNamed(Main, "right");
  const ir::BasicBlock *Join = blockNamed(Main, "join");

  EXPECT_TRUE(DT.dominates(Entry, Join));
  EXPECT_FALSE(DT.dominates(Left, Join));
  EXPECT_FALSE(DT.dominates(Right, Join));
  EXPECT_TRUE(DT.dominates(Join, Join));
  EXPECT_EQ(DT.idom(Join), Entry);
  EXPECT_EQ(DT.idom(Left), Entry);
}

TEST(Dominators, InstructionLevelOrdering) {
  auto M = parse("func main() { a = 1; b = 2; ret b; }");
  const ir::Function *Main = M->findFunction("main");
  CFGInfo CFG(*Main);
  DominatorTree DT(CFG);
  const auto &Insts = Main->getEntry()->instructions();
  EXPECT_TRUE(DT.dominates(Insts[0].get(), Insts[1].get()));
  EXPECT_FALSE(DT.dominates(Insts[1].get(), Insts[0].get()));
  EXPECT_FALSE(DT.dominates(Insts[0].get(), Insts[0].get()))
      << "an instruction does not dominate itself";
}

TEST(Dominators, FrontierOfDiamondArmsIsJoin) {
  auto M = parse(DiamondSrc);
  const ir::Function *Main = M->findFunction("main");
  CFGInfo CFG(*Main);
  DominatorTree DT(CFG);
  DominanceFrontier DF(DT);
  const ir::BasicBlock *Left = blockNamed(Main, "left");
  const ir::BasicBlock *Join = blockNamed(Main, "join");
  const auto &Frontier = DF.frontier(Left);
  ASSERT_EQ(Frontier.size(), 1u);
  EXPECT_EQ(Frontier[0], Join);
}

TEST(Dominators, LoopHeaderInOwnFrontier) {
  auto M = parse(R"(
    func main() {
      i = 0;
    head:
      c = i < 5;
      if c goto body;
      goto out;
    body:
      i = i + 1;
      goto head;
    out:
      ret i;
    }
  )");
  const ir::Function *Main = M->findFunction("main");
  CFGInfo CFG(*Main);
  DominatorTree DT(CFG);
  DominanceFrontier DF(DT);
  const ir::BasicBlock *Head = blockNamed(Main, "head");
  const ir::BasicBlock *Body = blockNamed(Main, "body");
  bool HeadInBodyFrontier = false;
  for (const ir::BasicBlock *BB : DF.frontier(Body))
    HeadInBodyFrontier |= BB == Head;
  EXPECT_TRUE(HeadInBodyFrontier);
}

//===----------------------------------------------------------------------===//
// Call graph
//===----------------------------------------------------------------------===//

TEST(CallGraphTest, EdgesAndRecursion) {
  auto M = parse(R"(
    func leaf(n) { ret n; }
    func selfrec(n) {
      c = n < 1;
      if c goto base;
      m = n - 1;
      r = selfrec(m);
      ret r;
    base:
      ret 0;
    }
    func main() {
      a = leaf(1);
      b = selfrec(3);
      c = a + b;
      ret c;
    }
  )");
  CallGraph CG(*M);
  const ir::Function *Leaf = M->findFunction("leaf");
  const ir::Function *SelfRec = M->findFunction("selfrec");
  const ir::Function *Main = M->findFunction("main");

  EXPECT_FALSE(CG.isRecursive(Leaf));
  EXPECT_TRUE(CG.isRecursive(SelfRec));
  EXPECT_FALSE(CG.isRecursive(Main));
  EXPECT_EQ(CG.calleesOf(Main).size(), 2u);
  EXPECT_EQ(CG.callersOf(Leaf).size(), 1u);
  // SCC ids order callees before callers.
  EXPECT_LT(CG.sccId(Leaf), CG.sccId(Main));
}

TEST(CallGraphTest, MutualRecursionFormsOneSCC) {
  auto M = parse(R"(
    func even(n) {
      c = n == 0;
      if c goto yes;
      m = n - 1;
      r = odd(m);
      ret r;
    yes:
      ret 1;
    }
    func odd(n) {
      c = n == 0;
      if c goto no;
      m = n - 1;
      r = even(m);
      ret r;
    no:
      ret 0;
    }
    func main() { x = even(4); ret x; }
  )");
  CallGraph CG(*M);
  EXPECT_TRUE(CG.isRecursive(M->findFunction("even")));
  EXPECT_TRUE(CG.isRecursive(M->findFunction("odd")));
  EXPECT_EQ(CG.sccId(M->findFunction("even")),
            CG.sccId(M->findFunction("odd")));
}

//===----------------------------------------------------------------------===//
// Pointer analysis
//===----------------------------------------------------------------------===//

TEST(PointerAnalysisTest, AllocAndCopyFlow) {
  auto M = parse(R"(
    func main() {
      p = alloc stack 2 uninit;
      q = p;
      *q = 1;
      ret 0;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  const ir::Function *Main = M->findFunction("main");
  const ir::Variable *P = Main->findVariable("p");
  const ir::Variable *Q = Main->findVariable("q");
  EXPECT_EQ(PA.pointsTo(P), PA.pointsTo(Q));
  ASSERT_EQ(PA.pointsTo(P).size(), 1u);
}

TEST(PointerAnalysisTest, VariablesCreatedAfterTheAnalysisPointNowhere) {
  // f's new variable takes the id after f's last one, which main's p
  // would follow in one flat numbering.
  auto M = parse(R"(
    func f() {
      a = 0;
      ret a;
    }
    func main() {
      p = alloc heap 1 uninit;
      x = f();
      ret 0;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  ir::Function *F = M->findFunction("f");
  const ir::Variable *P = M->findFunction("main")->findVariable("p");
  ASSERT_EQ(PA.pointsTo(P).size(), 1u);
  EXPECT_TRUE(PA.pointsTo(F->createVariable("late")).empty());
  ir::Function *G = M->createFunction("g");
  EXPECT_TRUE(PA.pointsTo(G->createVariable("late")).empty());
}

TEST(PointerAnalysisTest, FieldSensitivityDistinguishesFields) {
  auto M = parse(R"(
    func main() {
      p = alloc stack 3 uninit;
      a = gep p, 0;
      b = gep p, 2;
      *a = 1;
      *b = 2;
      ret 0;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  const ir::Function *Main = M->findFunction("main");
  auto PtsA = PA.pointsTo(Main->findVariable("a"));
  auto PtsB = PA.pointsTo(Main->findVariable("b"));
  ASSERT_EQ(PtsA.size(), 1u);
  ASSERT_EQ(PtsB.size(), 1u);
  EXPECT_NE(PtsA[0], PtsB[0]);
  EXPECT_EQ(PA.location(PtsA[0]).Field, 0u);
  EXPECT_EQ(PA.location(PtsB[0]).Field, 2u);

  // The field-insensitive configuration collapses them.
  auto M2 = parse(R"(
    func main() {
      p = alloc stack 3 uninit;
      a = gep p, 0;
      b = gep p, 2;
      *a = 1;
      *b = 2;
      ret 0;
    }
  )");
  CallGraph CG2(*M2);
  PtaOptions Opts;
  Opts.FieldSensitive = false;
  PointerAnalysis PA2(*M2, CG2, Opts);
  const ir::Function *Main2 = M2->findFunction("main");
  EXPECT_EQ(PA2.pointsTo(Main2->findVariable("a")),
            PA2.pointsTo(Main2->findVariable("b")));
}

TEST(PointerAnalysisTest, ArraysCollapseToOneLocation) {
  auto M = parse(R"(
    func main() {
      p = alloc heap 10 uninit array;
      a = gep p, 0;
      b = gep p, 7;
      *a = 1;
      x = *b;
      ret x;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  const ir::Function *Main = M->findFunction("main");
  auto PtsA = PA.pointsTo(Main->findVariable("a"));
  auto PtsB = PA.pointsTo(Main->findVariable("b"));
  EXPECT_EQ(PtsA, PtsB);
  ASSERT_EQ(PtsA.size(), 1u);
  EXPECT_TRUE(PA.isCollapsedLoc(PtsA[0]));
}

TEST(PointerAnalysisTest, FlowThroughMemory) {
  auto M = parse(R"(
    func main() {
      box = alloc stack 1 uninit;
      target = alloc heap 1 uninit;
      *box = target;
      got = *box;
      *got = 5;
      ret 0;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  const ir::Function *Main = M->findFunction("main");
  EXPECT_EQ(PA.pointsTo(Main->findVariable("got")),
            PA.pointsTo(Main->findVariable("target")));
}

TEST(PointerAnalysisTest, InterproceduralParamAndReturn) {
  auto M = parse(R"(
    func id(p) { ret p; }
    func main() {
      a = alloc heap 1 uninit;
      b = id(a);
      *b = 1;
      ret 0;
    }
  )");
  CallGraph CG(*M);
  PtaOptions NoCloning;
  NoCloning.HeapCloning = false;
  PointerAnalysis PA(*M, CG, NoCloning);
  const ir::Function *Main = M->findFunction("main");
  EXPECT_EQ(PA.pointsTo(Main->findVariable("a")),
            PA.pointsTo(Main->findVariable("b")));
}

TEST(PointerAnalysisTest, WrapperDetectionAndCloning) {
  auto M = parse(R"(
    func mk() {
      p = alloc heap 2 uninit;
      ret p;
    }
    func main() {
      a = mk();
      b = mk();
      *a = 1;
      *b = 2;
      ret 0;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  EXPECT_TRUE(PA.isAllocWrapper(M->findFunction("mk")));
  const ir::Function *Main = M->findFunction("main");
  auto PtsA = PA.pointsTo(Main->findVariable("a"));
  auto PtsB = PA.pointsTo(Main->findVariable("b"));
  ASSERT_EQ(PtsA.size(), 1u);
  ASSERT_EQ(PtsB.size(), 1u);
  EXPECT_NE(PtsA[0], PtsB[0]) << "per-call-site clones must differ";
  EXPECT_NE(PA.location(PtsA[0]).Obj->getCloneOrigin(), nullptr);
}

TEST(PointerAnalysisTest, StoringThroughDisqualifiesWrapper) {
  auto M = parse(R"(
    func mk() {
      p = alloc heap 2 uninit;
      *p = 0;
      ret p;
    }
    func main() {
      a = mk();
      ret 0;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  EXPECT_FALSE(PA.isAllocWrapper(M->findFunction("mk")));
}

TEST(PointerAnalysisTest, GlobalAddressSeedsPointsTo) {
  auto M = parse(R"(
    global g[2] init;
    func main() {
      p = g;
      *p = 3;
      ret 0;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  const ir::Function *Main = M->findFunction("main");
  auto Pts = PA.pointsTo(Main->findVariable("p"));
  ASSERT_EQ(Pts.size(), 1u);
  EXPECT_EQ(PA.location(Pts[0]).Obj->getName(), "g");
}

//===----------------------------------------------------------------------===//
// Mod/ref
//===----------------------------------------------------------------------===//

TEST(ModRefTest, DirectAndTransitive) {
  auto M = parse(R"(
    global g[1] init;
    func writer() {
      p = g;
      *p = 1;
      ret;
    }
    func reader() {
      p = g;
      x = *p;
      ret x;
    }
    func outer() {
      writer();
      x = reader();
      ret x;
    }
    func main() {
      x = outer();
      ret x;
    }
  )");
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  ModRefAnalysis MR(*M, CG, PA);

  uint32_t GLoc = PA.locId(M->findGlobal("g"), 0);
  EXPECT_TRUE(MR.mod(M->findFunction("writer")).test(GLoc));
  EXPECT_FALSE(MR.ref(M->findFunction("writer")).test(GLoc));
  EXPECT_TRUE(MR.ref(M->findFunction("reader")).test(GLoc));
  EXPECT_FALSE(MR.mod(M->findFunction("reader")).test(GLoc));
  // Transitive through outer.
  EXPECT_TRUE(MR.mod(M->findFunction("outer")).test(GLoc));
  EXPECT_TRUE(MR.ref(M->findFunction("outer")).test(GLoc));
  EXPECT_TRUE(MR.mod(M->findFunction("main")).test(GLoc));
}

} // namespace
