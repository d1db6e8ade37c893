//===- ir/Verifier.cpp - TinyC IR well-formedness checks ------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/IR.h"
#include "support/RawStream.h"

#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

using namespace usher;
using namespace usher::ir;

namespace {

/// Checks one function. Self-contained — its sets and error list are
/// local; the caller concatenates the error lists in module function
/// order.
class FunctionChecker {
public:
  explicit FunctionChecker(const Function &F) : F(F) {}

  std::vector<std::string> run();

private:
  void error(const std::string &Msg) { Errors.push_back(Msg); }

  void checkInstruction(const BasicBlock &BB, const Instruction &I,
                        bool IsLast);
  void checkOperand(const Instruction &I, const Operand &Op);

  const Function &F;
  std::vector<std::string> Errors;
  std::unordered_set<const BasicBlock *> FunctionBlocks;
  std::unordered_set<const Variable *> FunctionVars;
};

} // namespace

std::vector<std::string> FunctionChecker::run() {
  if (F.blocks().empty()) {
    error("function '" + F.getName() + "' has no blocks");
    return std::move(Errors);
  }

  for (const auto &BB : F.blocks())
    FunctionBlocks.insert(BB.get());
  for (const auto &V : F.variables())
    FunctionVars.insert(V.get());

  for (const auto &BB : F.blocks()) {
    if (BB->empty()) {
      error("function '" + F.getName() + "': block '" + BB->getName() +
            "' is empty");
      continue;
    }
    if (!BB->getTerminator())
      error("function '" + F.getName() + "': block '" + BB->getName() +
            "' lacks a terminator");
    for (size_t Idx = 0; Idx != BB->size(); ++Idx)
      checkInstruction(*BB, *BB->instructions()[Idx], Idx + 1 == BB->size());
  }
  return std::move(Errors);
}

void FunctionChecker::checkOperand(const Instruction &I, const Operand &Op) {
  if (Op.isVar() && !FunctionVars.count(Op.getVar()))
    error("function '" + F.getName() + "': instruction #" +
          std::to_string(I.getId()) + " uses variable '" +
          Op.getVar()->getName() + "' from another function");
  if (Op.isGlobal() && !Op.getGlobal()->isGlobal())
    error("function '" + F.getName() +
          "': global-address operand names a non-global object");
}

void FunctionChecker::checkInstruction(const BasicBlock &BB,
                                       const Instruction &I, bool IsLast) {
  if (I.isTerminator() && !IsLast)
    error("function '" + F.getName() + "': block '" + BB.getName() +
          "' has a terminator in mid-block");

  std::vector<Operand> Ops;
  I.collectOperands(Ops);
  for (const Operand &Op : Ops)
    checkOperand(I, Op);

  const bool NeedsDef = isa<CopyInst>(&I) || isa<BinOpInst>(&I) ||
                        isa<AllocInst>(&I) || isa<FieldAddrInst>(&I) ||
                        isa<LoadInst>(&I);
  if (NeedsDef && !I.getDef())
    error("function '" + F.getName() + "': value-producing instruction #" +
          std::to_string(I.getId()) + " has no def");
  const bool ForbidsDef = isa<StoreInst>(&I) || isa<CondBrInst>(&I) ||
                          isa<GotoInst>(&I) || isa<RetInst>(&I);
  if (ForbidsDef && I.getDef())
    error("function '" + F.getName() + "': instruction #" +
          std::to_string(I.getId()) + " must not have a def");
  if (I.getDef() && !FunctionVars.count(I.getDef()))
    error("function '" + F.getName() + "': def variable '" +
          I.getDef()->getName() + "' belongs to another function");

  if (const auto *CB = dyn_cast<CondBrInst>(&I)) {
    if (!FunctionBlocks.count(CB->getTrueBB()) ||
        !FunctionBlocks.count(CB->getFalseBB()))
      error("function '" + F.getName() + "': branch target outside function");
  } else if (const auto *G = dyn_cast<GotoInst>(&I)) {
    if (!FunctionBlocks.count(G->getTarget()))
      error("function '" + F.getName() + "': goto target outside function");
  } else if (const auto *C = dyn_cast<CallInst>(&I)) {
    if (!C->getCallee()) {
      error("function '" + F.getName() + "': call with null callee");
    } else if (C->getArgs().size() != C->getCallee()->params().size()) {
      error("function '" + F.getName() + "': call to '" +
            C->getCallee()->getName() + "' passes " +
            std::to_string(C->getArgs().size()) + " args, expected " +
            std::to_string(C->getCallee()->params().size()));
    }
  } else if (const auto *A = dyn_cast<AllocInst>(&I)) {
    if (A->getObject()->isGlobal())
      error("function '" + F.getName() + "': alloc of a global object");
  }
}

bool ir::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  const Function *Main = M.findFunction("main");
  if (!Main)
    Errors.push_back("module has no 'main' function");
  else if (!Main->params().empty())
    Errors.push_back("'main' must take no parameters");

  // Each non-global object must have exactly one allocation site.
  std::unordered_map<const MemObject *, unsigned> AllocCounts;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (const auto *A = dyn_cast<AllocInst>(I.get()))
          ++AllocCounts[A->getObject()];
  for (const auto &Obj : M.objects()) {
    unsigned N = AllocCounts.count(Obj.get()) ? AllocCounts[Obj.get()] : 0;
    if (Obj->isGlobal()) {
      if (N != 0)
        Errors.push_back("global object '" + Obj->getName() +
                         "' has an alloc site");
    } else if (Obj->getCloneOrigin()) {
      // Heap clones are analysis artifacts and need no syntactic site.
    } else if (N != 1) {
      Errors.push_back("object '" + Obj->getName() + "' has " +
                       std::to_string(N) + " allocation sites (expected 1)");
    }
  }

  for (const auto &F : M.functions())
    for (std::string &E : FunctionChecker(*F).run())
      Errors.push_back(std::move(E));
  return Errors.empty();
}

void ir::verifyModuleOrAbort(const Module &M) {
  std::vector<std::string> Errors;
  if (verifyModule(M, Errors))
    return;
  for (const std::string &E : Errors)
    errs() << "verifier: " << E << '\n';
  std::abort();
}
