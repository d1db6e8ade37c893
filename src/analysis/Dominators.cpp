//===- analysis/Dominators.cpp - Dominator tree & frontiers ---------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include "ir/IR.h"
#include "support/CSR.h"

#include <algorithm>
#include <cassert>

using namespace usher;
using namespace usher::analysis;
using ir::BasicBlock;
using ir::Instruction;

DominatorTree::DominatorTree(const CFGInfo &CFG) : CFG(CFG) {
  const auto &RPO = CFG.reversePostOrder();
  const size_t N = CFG.getFunction().blocks().size();
  IDom.assign(N, nullptr);
  DFSIn.assign(N, 0);
  DFSOut.assign(N, 0);
  if (RPO.empty()) {
    ChildBegin.assign(N + 1, 0);
    return;
  }

  BasicBlock *Entry = RPO.front();
  IDom[Entry->getId()] = Entry;

  // Intersect two candidate dominators by walking up the (partial)
  // dominator tree, comparing RPO indices (Cooper-Harvey-Kennedy).
  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (CFG.rpoIndex(A->getId()) > CFG.rpoIndex(B->getId()))
        A = IDom[A->getId()];
      while (CFG.rpoIndex(B->getId()) > CFG.rpoIndex(A->getId()))
        B = IDom[B->getId()];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : RPO) {
      if (BB == Entry)
        continue;
      BasicBlock *NewIDom = nullptr;
      for (BasicBlock *Pred : CFG.predecessors(BB->getId())) {
        if (!IDom[Pred->getId()])
          continue; // Not yet processed (or unreachable).
        NewIDom = NewIDom ? Intersect(NewIDom, Pred) : Pred;
      }
      assert(NewIDom && "reachable block without a processed predecessor");
      if (IDom[BB->getId()] != NewIDom) {
        IDom[BB->getId()] = NewIDom;
        Changed = true;
      }
    }
  }

  // The entry's idom is conventionally null for clients.
  IDom[Entry->getId()] = nullptr;
  fillCSR(
      static_cast<uint32_t>(N),
      [&](auto &&Emit) {
        for (BasicBlock *BB : RPO)
          if (BasicBlock *D = IDom[BB->getId()])
            Emit(D->getId(), BB);
      },
      ChildBegin, Children);

  // DFS numbering over the dominator tree for O(1) dominance queries.
  unsigned Clock = 0;
  std::vector<std::pair<BasicBlock *, size_t>> Stack;
  Stack.reserve(RPO.size());
  Stack.push_back({Entry, 0});
  DFSIn[Entry->getId()] = ++Clock;
  while (!Stack.empty()) {
    auto &[BB, NextChild] = Stack.back();
    const auto Kids = children(BB);
    if (NextChild < Kids.size()) {
      BasicBlock *C = Kids[NextChild++];
      DFSIn[C->getId()] = ++Clock;
      Stack.push_back({C, 0});
      continue;
    }
    DFSOut[BB->getId()] = ++Clock;
    Stack.pop_back();
  }
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  if (!CFG.isReachable(A->getId()) || !CFG.isReachable(B->getId()))
    return false;
  return DFSIn[A->getId()] <= DFSIn[B->getId()] &&
         DFSOut[A->getId()] >= DFSOut[B->getId()];
}

bool DominatorTree::dominates(const Instruction *A,
                              const Instruction *B) const {
  const BasicBlock *ABB = A->getParent();
  const BasicBlock *BBB = B->getParent();
  assert(ABB && BBB && "instruction without a parent block");
  if (ABB != BBB)
    return dominates(ABB, BBB);
  if (A == B)
    return false;
  for (const auto &I : ABB->instructions()) {
    if (I.get() == A)
      return true;
    if (I.get() == B)
      return false;
  }
  assert(false && "instructions not found in their parent block");
  return false;
}

DominanceFrontier::DominanceFrontier(const DominatorTree &DT) {
  const CFGInfo &CFG = DT.getCFG();
  const size_t N = CFG.getFunction().blocks().size();
  // Runs the Cooper-Harvey-Kennedy walk, emitting each (runner, join) pair
  // once: all of a join's walks happen together, so a runner already
  // stamped with the join has it in its frontier.
  std::vector<const BasicBlock *> LastJoin;
  fillCSR(
      static_cast<uint32_t>(N),
      [&](auto &&Emit) {
        LastJoin.assign(N, nullptr);
        for (BasicBlock *BB : CFG.reversePostOrder()) {
          const auto Preds = CFG.predecessors(BB->getId());
          if (Preds.size() < 2)
            continue;
          for (BasicBlock *Pred : Preds) {
            if (!CFG.isReachable(Pred->getId()))
              continue;
            BasicBlock *Runner = Pred;
            while (Runner != DT.idom(BB)) {
              if (LastJoin[Runner->getId()] != BB) {
                LastJoin[Runner->getId()] = BB;
                Emit(Runner->getId(), BB);
              }
              Runner = DT.idom(Runner);
              assert(Runner && "runner escaped above the entry block");
            }
          }
        }
      },
      Begin, Frontiers);
}
