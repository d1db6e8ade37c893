//===- transforms/Inliner.cpp - Inline small functions ---------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "transforms/Transforms.h"

#include "analysis/CallGraph.h"
#include "ir/IR.h"

#include <string>
#include <unordered_map>
#include <vector>

using namespace usher;
using namespace usher::ir;

namespace {

/// Clones the body of \p Callee into \p Caller in place of \p Call (which
/// sits at position \p CallIdx of block \p CallBB).
class InlineSite {
public:
  InlineSite(Module &M, Function &Caller, BasicBlock *CallBB, size_t CallIdx)
      : M(M), Caller(Caller), CallBB(CallBB), CallIdx(CallIdx),
        Call(cast<CallInst>(CallBB->instructions()[CallIdx].get())) {}

  void run();

private:
  Operand remap(const Operand &Op) const {
    if (!Op.isVar())
      return Op;
    return Operand::var(VarMap.at(Op.getVar()));
  }

  std::unique_ptr<Instruction> cloneInst(const Instruction &I,
                                         BasicBlock *AfterBB);

  Module &M;
  Function &Caller;
  BasicBlock *CallBB;
  size_t CallIdx;
  CallInst *Call;

  std::unordered_map<const Variable *, Variable *> VarMap;
  std::unordered_map<const BasicBlock *, BasicBlock *> BlockMap;
  unsigned Suffix = 0;
};

} // namespace

std::unique_ptr<Instruction> InlineSite::cloneInst(const Instruction &I,
                                                   BasicBlock *AfterBB) {
  std::unique_ptr<Instruction> Clone;
  switch (I.getKind()) {
  case Instruction::IKind::Copy:
    Clone = std::make_unique<CopyInst>(remap(cast<CopyInst>(&I)->getSrc()));
    break;
  case Instruction::IKind::BinOp: {
    const auto *B = cast<BinOpInst>(&I);
    Clone = std::make_unique<BinOpInst>(B->getOpcode(), remap(B->getLHS()),
                                        remap(B->getRHS()));
    break;
  }
  case Instruction::IKind::Alloc: {
    // The clone needs its own abstract object: one allocation site per
    // object is an IR invariant.
    const MemObject *Obj = cast<AllocInst>(&I)->getObject();
    MemObject *NewObj = M.createObject(
        Obj->getName() + ".inl" + std::to_string(Suffix++), Obj->getRegion(),
        Obj->getNumFields(), Obj->isInitialized(), Obj->isArray());
    auto A = std::make_unique<AllocInst>(NewObj);
    NewObj->setAllocSite(A.get());
    Clone = std::move(A);
    break;
  }
  case Instruction::IKind::FieldAddr: {
    const auto *G = cast<FieldAddrInst>(&I);
    Clone = std::make_unique<FieldAddrInst>(remap(G->getBase()),
                                            remap(G->getIndex()));
    break;
  }
  case Instruction::IKind::Load:
    Clone = std::make_unique<LoadInst>(remap(cast<LoadInst>(&I)->getPtr()));
    break;
  case Instruction::IKind::Store: {
    const auto *St = cast<StoreInst>(&I);
    Clone = std::make_unique<StoreInst>(remap(St->getPtr()),
                                        remap(St->getValue()));
    break;
  }
  case Instruction::IKind::Call: {
    const auto *C = cast<CallInst>(&I);
    std::vector<Operand> Args;
    for (const Operand &Arg : C->getArgs())
      Args.push_back(remap(Arg));
    Clone = std::make_unique<CallInst>(C->getCallee(), std::move(Args));
    break;
  }
  case Instruction::IKind::CondBr: {
    const auto *B = cast<CondBrInst>(&I);
    Clone = std::make_unique<CondBrInst>(remap(B->getCond()),
                                         BlockMap.at(B->getTrueBB()),
                                         BlockMap.at(B->getFalseBB()));
    break;
  }
  case Instruction::IKind::Goto:
    Clone = std::make_unique<GotoInst>(
        BlockMap.at(cast<GotoInst>(&I)->getTarget()));
    break;
  case Instruction::IKind::Ret: {
    // ret v  =>  result := v; goto after.
    const auto *R = cast<RetInst>(&I);
    if (Call->getDef()) {
      Operand Val = R->getValue().isNone() ? Operand::constant(0)
                                           : remap(R->getValue());
      // A void return captured by the caller stays undefined: model it by
      // copying a fresh, never-assigned variable.
      if (R->getValue().isNone()) {
        Variable *Undef = Caller.createVariable("inl.undef" +
                                                std::to_string(Suffix++));
        Val = Operand::var(Undef);
      }
      auto CopyRet = std::make_unique<CopyInst>(Val);
      CopyRet->setDef(Call->getDef());
      // Emit the copy, then fall through to the goto below via a tiny
      // trick: return the copy and let the caller add the goto.
      // (Handled in run() instead for clarity.)
      Clone = std::move(CopyRet);
    } else {
      Clone = std::make_unique<GotoInst>(AfterBB);
    }
    break;
  }
  }
  if (I.getDef() && !isa<RetInst>(&I))
    Clone->setDef(VarMap.at(I.getDef()));
  Clone->setLoc(I.getLoc());
  return Clone;
}

void InlineSite::run() {
  Function *Callee = Call->getCallee();

  // Split the call block: everything after the call moves to AfterBB.
  BasicBlock *AfterBB =
      Caller.createBlock(CallBB->getName() + ".after" +
                         std::to_string(Caller.blocks().size()));
  {
    auto &Insts = CallBB->instructions();
    for (size_t Idx = CallIdx + 1; Idx != Insts.size(); ++Idx)
      AfterBB->append(std::move(Insts[Idx]));
    Insts.resize(CallIdx + 1);
  }

  // Clone variables and blocks.
  for (const auto &V : Callee->variables())
    VarMap[V.get()] = Caller.createVariable(
        Callee->getName() + "." + V->getName() +
        std::to_string(Caller.variables().size()));
  for (const auto &BB : Callee->blocks())
    BlockMap[BB.get()] = Caller.createBlock(
        Callee->getName() + "." + BB->getName() +
        std::to_string(Caller.blocks().size()));

  // Bind arguments.
  std::vector<std::unique_ptr<Instruction>> ArgCopies;
  for (size_t Idx = 0; Idx != Call->getArgs().size(); ++Idx) {
    auto C = std::make_unique<CopyInst>(Call->getArgs()[Idx]);
    C->setDef(VarMap.at(Callee->params()[Idx]));
    ArgCopies.push_back(std::move(C));
  }

  // Clone the body.
  for (const auto &BB : Callee->blocks()) {
    BasicBlock *NewBB = BlockMap.at(BB.get());
    for (const auto &I : BB->instructions()) {
      std::unique_ptr<Instruction> Clone = cloneInst(*I, AfterBB);
      NewBB->append(std::move(Clone));
      if (isa<RetInst>(I.get()) && Call->getDef())
        NewBB->append(std::make_unique<GotoInst>(AfterBB));
    }
  }

  // Replace the call with the argument copies and a jump to the clone's
  // entry.
  auto &Insts = CallBB->instructions();
  Insts.pop_back(); // The call itself.
  for (auto &C : ArgCopies)
    CallBB->append(std::move(C));
  CallBB->append(
      std::make_unique<GotoInst>(BlockMap.at(Callee->getEntry())));
}

bool transforms::detail::inlineSmallFunctions(Module &M,
                                               unsigned MaxCalleeInsts) {
  analysis::CallGraph CG(M);
  bool Changed = false;

  for (const auto &F : M.functions()) {
    // Find call sites afresh per function; inlining rewrites the blocks.
    bool FunctionChanged = true;
    unsigned Budget = 16; // Bound repeated inlining into one caller.
    while (FunctionChanged && Budget--) {
      FunctionChanged = false;
      for (const auto &BB : F->blocks()) {
        auto &Insts = BB->instructions();
        for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
          auto *Call = dyn_cast<CallInst>(Insts[Idx].get());
          if (!Call)
            continue;
          Function *Callee = Call->getCallee();
          if (Callee == F.get() || CG.isRecursive(Callee) ||
              Callee->instructionCount() > MaxCalleeInsts)
            continue;
          InlineSite(M, *F, BB.get(), Idx).run();
          FunctionChanged = Changed = true;
          break;
        }
        if (FunctionChanged)
          break;
      }
    }
    if (Changed)
      F->removeUnreachableBlocks();
  }

  if (Changed)
    purgeDanglingObjects(M);
  return Changed;
}

bool transforms::inlineSmallFunctions(Module &M, unsigned MaxCalleeInsts) {
  if (!detail::inlineSmallFunctions(M, MaxCalleeInsts))
    return false;
  M.renumber();
  return true;
}
