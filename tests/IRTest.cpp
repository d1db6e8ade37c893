//===- tests/IRTest.cpp - IR, verifier and support unit tests --------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "TestIR.h"
#include "ir/IR.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/BitSet.h"
#include "support/Casting.h"
#include "support/RNG.h"
#include "support/RawStream.h"

#include <gtest/gtest.h>

using namespace usher;
using namespace usher::ir;

namespace {

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

TEST(Casting, IsaAndDynCastDispatchOnKind) {
  Module M;
  Function *F = M.createFunction("f");
  Variable *X = F->createVariable("x");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Instruction *Copy = B.createCopy(X, Operand::constant(1));
  Instruction *Ret = B.createRet(Operand::var(X));

  EXPECT_TRUE(isa<CopyInst>(Copy));
  EXPECT_FALSE(isa<RetInst>(Copy));
  EXPECT_TRUE(isa<RetInst>(Ret));
  EXPECT_NE(dyn_cast<CopyInst>(Copy), nullptr);
  EXPECT_EQ(dyn_cast<CopyInst>(Ret), nullptr);
  EXPECT_EQ(dyn_cast_or_null<CopyInst>(static_cast<Instruction *>(nullptr)),
            nullptr);
  EXPECT_EQ(cast<CopyInst>(Copy)->getSrc().getConst(), 1);
}

//===----------------------------------------------------------------------===//
// Operands
//===----------------------------------------------------------------------===//

TEST(Operand, KindsAndAccessors) {
  Module M;
  Function *F = M.createFunction("f");
  Variable *V = F->createVariable("v");
  MemObject *G = M.createObject("g", Region::Global, 2, true, false);

  Operand C = Operand::constant(-7);
  EXPECT_TRUE(C.isConst());
  EXPECT_EQ(C.getConst(), -7);

  Operand VV = Operand::var(V);
  EXPECT_TRUE(VV.isVar());
  EXPECT_EQ(VV.getVar(), V);

  Operand GG = Operand::global(G);
  EXPECT_TRUE(GG.isGlobal());
  EXPECT_EQ(GG.getGlobal(), G);

  EXPECT_TRUE(Operand().isNone());
}

TEST(Instruction, CollectAndRewriteOperands) {
  Module M;
  Function *F = M.createFunction("f");
  Variable *A = F->createVariable("a");
  Variable *B2 = F->createVariable("b");
  Variable *X = F->createVariable("x");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  Instruction *Bin =
      B.createBinOp(X, BinOpcode::Add, Operand::var(A), Operand::var(B2));

  std::vector<Variable *> Used = test::usedVars(*Bin);
  ASSERT_EQ(Used.size(), 2u);

  // Rewrite every use of `a` to the constant 9.
  Bin->rewriteOperands([&](Operand Op) {
    if (Op.isVar() && Op.getVar() == A)
      return Operand::constant(9);
    return Op;
  });
  EXPECT_TRUE(cast<BinOpInst>(Bin)->getLHS().isConst());
  EXPECT_TRUE(cast<BinOpInst>(Bin)->getRHS().isVar());
}

TEST(BasicBlock, SuccessorsOfTerminators) {
  Module M;
  Function *F = M.createFunction("f");
  Variable *X = F->createVariable("x");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B1 = F->createBlock("b");
  BasicBlock *C = F->createBlock("c");
  IRBuilder B(M);
  B.setInsertPoint(A);
  B.createCopy(X, Operand::constant(1));
  B.createCondBr(Operand::var(X), B1, C);
  B.setInsertPoint(B1);
  B.createGoto(C);
  B.setInsertPoint(C);
  B.createRet(Operand());

  std::vector<BasicBlock *> Succs;
  A->getSuccessors(Succs);
  EXPECT_EQ(Succs.size(), 2u);
  Succs.clear();
  B1->getSuccessors(Succs);
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_EQ(Succs[0], C);
  Succs.clear();
  C->getSuccessors(Succs);
  EXPECT_TRUE(Succs.empty());
}

TEST(Module, RenumberAssignsDenseIds) {
  Module M;
  Function *F = M.createFunction("main");
  Variable *X = F->createVariable("x");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createCopy(X, Operand::constant(1));
  B.createRet(Operand::var(X));
  M.renumber();
  EXPECT_EQ(M.instructionCount(), 2u);
  EXPECT_EQ(BB->instructions()[0]->getId(), 0u);
  EXPECT_EQ(BB->instructions()[1]->getId(), 1u);
}

TEST(Module, PurgeObjectsRenumbersIds) {
  Module M;
  MemObject *A = M.createObject("a", Region::Global, 1, true, false);
  MemObject *B = M.createObject("b", Region::Global, 1, true, false);
  MemObject *C = M.createObject("c", Region::Global, 1, true, false);
  (void)B;
  M.purgeObjects([&](const MemObject *Obj) { return Obj->getName() == "b"; });
  ASSERT_EQ(M.objects().size(), 2u);
  EXPECT_EQ(A->getId(), 0u);
  EXPECT_EQ(C->getId(), 1u);
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(Verifier, AcceptsWellFormedModule) {
  Module M;
  Function *F = M.createFunction("main");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createRet(Operand());
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << Errors.front();
}

TEST(Verifier, RejectsMissingMain) {
  Module M;
  Function *F = M.createFunction("notmain");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createRet(Operand());
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
}

TEST(Verifier, RejectsUnterminatedBlock) {
  Module M;
  Function *F = M.createFunction("main");
  Variable *X = F->createVariable("x");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.createCopy(X, Operand::constant(1));
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
}

TEST(Verifier, RejectsCrossFunctionVariableUse) {
  Module M;
  Function *F = M.createFunction("main");
  Function *G = M.createFunction("g");
  Variable *Foreign = G->createVariable("foreign");
  BasicBlock *GB = G->createBlock("entry");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(GB);
  B.createRet(Operand());
  B.setInsertPoint(BB);
  B.createRet(Operand::var(Foreign));
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
}

TEST(Verifier, RejectsCallArgumentMismatch) {
  Module M;
  Function *Callee = M.createFunction("callee");
  Callee->createVariable("p", /*IsParam=*/true);
  BasicBlock *CB = Callee->createBlock("entry");
  Function *F = M.createFunction("main");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(CB);
  B.createRet(Operand());
  B.setInsertPoint(BB);
  B.createCall(nullptr, Callee, {});
  B.createRet(Operand());
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
}

//===----------------------------------------------------------------------===//
// Support
//===----------------------------------------------------------------------===//

TEST(BitSetTest, SetTestClearAndCount) {
  BitSet S(200);
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.set(0));
  EXPECT_TRUE(S.set(63));
  EXPECT_TRUE(S.set(64));
  EXPECT_TRUE(S.set(199));
  EXPECT_FALSE(S.set(64)) << "setting twice reports no change";
  EXPECT_EQ(S.count(), 4u);
  S.clear(63);
  EXPECT_FALSE(S.test(63));
  EXPECT_EQ(S.count(), 3u);
}

TEST(BitSetTest, UnionWithReportsChange) {
  BitSet A(100), B(100);
  A.set(3);
  B.set(3);
  EXPECT_FALSE(A.unionWith(B));
  B.set(77);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(77));
}

TEST(BitSetTest, ForEachVisitsAscending) {
  BitSet S(130);
  S.set(1);
  S.set(64);
  S.set(129);
  std::vector<uint32_t> Seen;
  S.forEach([&](size_t I) { Seen.push_back(static_cast<uint32_t>(I)); });
  EXPECT_EQ(Seen, (std::vector<uint32_t>{1, 64, 129}));
  EXPECT_EQ(S.toVector(), Seen);
}

TEST(RNGTest, DeterministicAndBounded) {
  RNG A(12345), B(12345);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  RNG C(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(C.below(17), 17u);
    int64_t V = C.range(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(RawStreamTest, FormatsFundamentals) {
  std::string S;
  raw_string_ostream OS(S);
  OS << "x=" << 42 << ", neg=" << -7 << ", big=" << 1234567890123ULL
     << ", flag=" << true << '!';
  EXPECT_EQ(S, "x=42, neg=-7, big=1234567890123, flag=true!");
}

TEST(RawStreamTest, Justification) {
  std::string S;
  raw_string_ostream OS(S);
  OS.leftJustify("ab", 5);
  OS << '|';
  OS.rightJustify("cd", 4);
  EXPECT_EQ(S, "ab   |  cd");
}

} // namespace
