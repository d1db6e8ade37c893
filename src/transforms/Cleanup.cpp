//===- transforms/Cleanup.cpp - DCE, CFG simplification, presets -----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "transforms/Transforms.h"

#include "ir/IR.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace usher;
using namespace usher::ir;

/// True for the instructions dead-code elimination may delete once their
/// def is unused: side-effect-free computations and loads. Removing dead
/// loads is what real -O1 pipelines do, and is exactly how they hide
/// uninitialized reads (Section 4.6 of the paper). An allocation stays
/// while its pointer is used anywhere (the object may be reachable
/// through stores of the pointer).
static bool isRemovableWhenUnused(const Instruction &I) {
  switch (I.getKind()) {
  case Instruction::IKind::Alloc:
  case Instruction::IKind::Copy:
  case Instruction::IKind::BinOp:
  case Instruction::IKind::FieldAddr:
  case Instruction::IKind::Load:
    return true;
  default:
    return false;
  }
}

bool transforms::detail::eliminateDeadCode(Module &M) {
  bool Changed = false;
  std::vector<bool> DeadObjects(M.objects().size());
  bool AnyDeadObject = false;

  // Per function, over dense variable ids: how many operands of kept
  // instructions read each variable, and which instructions define it
  // (CSR: DefStart[V]..DefStart[V + 1] in DefInsts). A variable whose
  // count drops to zero has all its removable defs deleted, which lowers
  // the counts of their operands in turn. Deletion only lowers counts, so
  // the worklist reaches the same fixpoint as re-sweeping until nothing
  // changes: an instruction is deleted iff it is removable and its def is
  // read by no kept instruction. A self-use or a cycle of copies keeps
  // its own count above zero and stays. The buffers are reused across
  // functions.
  std::vector<Instruction *> Insts;
  std::vector<uint32_t> UseCount, DefStart, DefInsts, Cursor, Work;
  std::vector<bool> Dead;
  for (const auto &F : M.functions()) {
    const size_t NumVars = F->variables().size();
    Insts.clear();
    UseCount.assign(NumVars, 0);
    DefStart.assign(NumVars + 1, 0);
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions()) {
        Insts.push_back(I.get());
        I->forEachUsedVar([&](const Variable *V) { ++UseCount[V->getId()]; });
        if (const Variable *Def = I->getDef())
          ++DefStart[Def->getId() + 1];
      }
    for (size_t V = 0; V != NumVars; ++V)
      DefStart[V + 1] += DefStart[V];
    DefInsts.resize(DefStart[NumVars]);
    Cursor.assign(DefStart.begin(), DefStart.end() - 1);
    for (uint32_t Idx = 0; Idx != Insts.size(); ++Idx)
      if (const Variable *Def = Insts[Idx]->getDef())
        DefInsts[Cursor[Def->getId()]++] = Idx;

    Work.clear();
    for (uint32_t V = 0; V != NumVars; ++V)
      if (UseCount[V] == 0 && DefStart[V] != DefStart[V + 1])
        Work.push_back(V);
    Dead.assign(Insts.size(), false);
    bool AnyDead = false;
    while (!Work.empty()) {
      const uint32_t V = Work.back();
      Work.pop_back();
      for (uint32_t D = DefStart[V]; D != DefStart[V + 1]; ++D) {
        Instruction *I = Insts[DefInsts[D]];
        if (!isRemovableWhenUnused(*I))
          continue;
        Dead[DefInsts[D]] = AnyDead = true;
        if (const auto *A = dyn_cast<AllocInst>(I))
          DeadObjects[A->getObject()->getId()] = AnyDeadObject = true;
        I->forEachUsedVar([&](const Variable *U) {
          if (--UseCount[U->getId()] == 0)
            Work.push_back(U->getId());
        });
      }
    }

    // Calls whose results are unused keep executing (side effects) but
    // drop the dead def.
    for (Instruction *I : Insts)
      if (isa<CallInst>(I) && I->getDef() &&
          UseCount[I->getDef()->getId()] == 0) {
        I->setDef(nullptr);
        Changed = true;
      }

    if (!AnyDead)
      continue;
    Changed = true;
    size_t Idx = 0; // Index in Insts, walking the blocks in the same order.
    for (const auto &BB : F->blocks()) {
      auto &BlockInsts = BB->instructions();
      size_t Kept = 0;
      for (auto &I : BlockInsts)
        if (!Dead[Idx++])
          BlockInsts[Kept++] = std::move(I);
      BlockInsts.resize(Kept);
    }
  }

  if (AnyDeadObject)
    M.purgeObjects(
        [&](const MemObject *Obj) { return DeadObjects[Obj->getId()]; });
  return Changed;
}

bool transforms::detail::simplifyCFG(Module &M) {
  bool Changed = false;

  for (const auto &F : M.functions()) {
    Changed |= F->removeUnreachableBlocks();

    bool FnChanged = true;
    while (FnChanged) {
      FnChanged = false;

      // Fold conditional branches with identical targets.
      for (const auto &BB : F->blocks()) {
        Instruction *Term = BB->getTerminator();
        if (auto *Br = dyn_cast_or_null<CondBrInst>(Term)) {
          if (Br->getTrueBB() == Br->getFalseBB() &&
              !Br->getCond().isVar()) {
            auto Repl = std::make_unique<GotoInst>(Br->getTrueBB());
            Repl->setParent(BB.get());
            BB->instructions().back() = std::move(Repl);
            FnChanged = Changed = true;
          }
        }
      }

      // Merge a block into its unique Goto successor when that successor
      // has exactly one predecessor.
      std::unordered_map<const BasicBlock *, unsigned> PredCounts;
      for (const auto &BB : F->blocks()) {
        std::vector<BasicBlock *> Succs;
        BB->getSuccessors(Succs);
        for (BasicBlock *S : Succs)
          ++PredCounts[S];
      }
      for (const auto &BB : F->blocks()) {
        auto *G = dyn_cast_or_null<GotoInst>(BB->getTerminator());
        if (!G)
          continue;
        BasicBlock *Succ = G->getTarget();
        if (Succ == BB.get() || Succ == F->getEntry() ||
            PredCounts[Succ] != 1)
          continue;
        // Splice the successor's instructions into this block.
        auto &Insts = BB->instructions();
        Insts.pop_back(); // The goto.
        for (auto &I : Succ->instructions()) {
          I->setParent(BB.get());
          Insts.push_back(std::move(I));
        }
        Succ->instructions().clear();
        // The emptied block becomes unreachable and is removed below.
        FnChanged = Changed = true;
        break; // Restart: block structures changed.
      }
      if (FnChanged) {
        // Emptied blocks are unreachable only if nothing targets them;
        // the merge above guaranteed a single predecessor, so they are.
        auto &Blocks = F->blocks();
        Blocks.erase(std::remove_if(Blocks.begin(), Blocks.end(),
                                    [&](const std::unique_ptr<BasicBlock> &B) {
                                      return B->empty() &&
                                             B.get() != F->getEntry();
                                    }),
                     Blocks.end());
        F->renumberBlocks();
      }
    }
  }

  if (Changed)
    purgeDanglingObjects(M);
  return Changed;
}

void transforms::purgeDanglingObjects(Module &M) {
  std::unordered_set<const MemObject *> Live;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (const auto *A = dyn_cast<AllocInst>(I.get()))
          Live.insert(A->getObject());
  M.purgeObjects([&](const MemObject *Obj) {
    return !Obj->isGlobal() && !Live.count(Obj);
  });
}

const char *transforms::optPresetName(OptPreset P) {
  switch (P) {
  case OptPreset::O0IM:
    return "O0+IM";
  case OptPreset::O1:
    return "O1";
  case OptPreset::O2:
    return "O2";
  }
  return "?";
}

void transforms::runPreset(Module &M, OptPreset P) {
  detail::promoteMemoryToRegisters(M);
  if (P != OptPreset::O0IM) {
    bool Changed = true;
    unsigned Rounds = P == OptPreset::O2 ? 4 : 2;
    while (Changed && Rounds--) {
      Changed = false;
      Changed |= detail::propagateAndFold(M);
      Changed |= detail::eliminateDeadCode(M);
      Changed |= detail::simplifyCFG(M);
    }
    if (P == OptPreset::O2) {
      detail::inlineSmallFunctions(M);
      detail::promoteMemoryToRegisters(M);
      detail::propagateAndFold(M);
      detail::eliminateDeadCode(M);
      detail::simplifyCFG(M);
    }
  }
  M.renumber();
  verifyModuleOrAbort(M);
}
