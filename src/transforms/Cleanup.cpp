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

bool transforms::eliminateDeadCode(Module &M) {
  bool Changed = false;
  std::unordered_set<const MemObject *> DeadObjects;

  for (const auto &F : M.functions()) {
    bool FnChanged = true;
    while (FnChanged) {
      FnChanged = false;
      // Variables read anywhere in the function.
      std::unordered_set<const Variable *> Used;
      for (const auto &BB : F->blocks()) {
        for (const auto &I : BB->instructions()) {
          std::vector<Variable *> Vars;
          I->collectUsedVars(Vars);
          Used.insert(Vars.begin(), Vars.end());
        }
      }
      // Allocations stay alive while their pointer is used anywhere (the
      // object may be reachable through stores of the pointer).
      for (const auto &BB : F->blocks()) {
        auto &Insts = BB->instructions();
        size_t Before = Insts.size();
        Insts.erase(
            std::remove_if(
                Insts.begin(), Insts.end(),
                [&](const std::unique_ptr<Instruction> &I) {
                  const Variable *Def = I->getDef();
                  if (!Def || Used.count(Def))
                    return false;
                  switch (I->getKind()) {
                  case Instruction::IKind::Alloc:
                    DeadObjects.insert(cast<AllocInst>(I.get())->getObject());
                    return true;
                  case Instruction::IKind::Copy:
                  case Instruction::IKind::BinOp:
                  case Instruction::IKind::FieldAddr:
                  // Removing dead loads is what real -O1 pipelines do,
                  // and is exactly how they hide uninitialized reads
                  // (Section 4.6 of the paper).
                  case Instruction::IKind::Load:
                    return true;
                  default:
                    return false;
                  }
                }),
            Insts.end());
        if (Insts.size() != Before)
          FnChanged = Changed = true;
      }
      // Calls whose results are unused keep executing (side effects) but
      // drop the dead def.
      for (const auto &BB : F->blocks()) {
        for (const auto &I : BB->instructions()) {
          if (auto *C = dyn_cast<CallInst>(I.get())) {
            if (C->getDef() && !Used.count(C->getDef())) {
              C->setDef(nullptr);
              FnChanged = Changed = true;
            }
          }
        }
      }
    }
  }

  if (Changed) {
    if (!DeadObjects.empty())
      M.purgeObjects(
          [&](const MemObject *Obj) { return DeadObjects.count(Obj) != 0; });
    M.renumber();
  }
  return Changed;
}

bool transforms::simplifyCFG(Module &M) {
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

  if (Changed) {
    purgeDanglingObjects(M);
    M.renumber();
  }
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
  promoteMemoryToRegisters(M);
  if (P != OptPreset::O0IM) {
    bool Changed = true;
    unsigned Rounds = P == OptPreset::O2 ? 4 : 2;
    while (Changed && Rounds--) {
      Changed = false;
      Changed |= propagateAndFold(M);
      Changed |= eliminateDeadCode(M);
      Changed |= simplifyCFG(M);
    }
    if (P == OptPreset::O2) {
      inlineSmallFunctions(M);
      promoteMemoryToRegisters(M);
      propagateAndFold(M);
      eliminateDeadCode(M);
      simplifyCFG(M);
    }
  }
  M.renumber();
  verifyModuleOrAbort(M);
}
