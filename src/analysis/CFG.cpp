//===- analysis/CFG.cpp - Control-flow graph utilities --------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"

#include "ir/IR.h"
#include "support/CSR.h"

using namespace usher;
using namespace usher::analysis;
using ir::BasicBlock;
using ir::Function;

CFGInfo::CFGInfo(const Function &F) : F(F) {
  const size_t N = F.blocks().size();
  RPOIndex.assign(N, ~0u);

  // Each table lists a block's edges in block order (getSuccessors order
  // within a block).
  std::vector<BasicBlock *> Out;
  Out.reserve(2);
  auto ForEachEdge = [&](auto &&Visit) {
    for (const auto &BB : F.blocks()) {
      Out.clear();
      BB->getSuccessors(Out);
      for (BasicBlock *S : Out)
        Visit(BB.get(), S);
    }
  };
  const uint32_t NumBlocks = static_cast<uint32_t>(N);
  fillCSR(
      NumBlocks,
      [&](auto &&Emit) {
        ForEachEdge([&](BasicBlock *From, BasicBlock *To) {
          Emit(From->getId(), To);
        });
      },
      SuccBegin, Succs);
  fillCSR(
      NumBlocks,
      [&](auto &&Emit) {
        ForEachEdge([&](BasicBlock *From, BasicBlock *To) {
          Emit(To->getId(), From);
        });
      },
      PredBegin, Preds);

  // Iterative post-order DFS from the entry, then reverse.
  std::vector<char> Visited(N, 0);
  std::vector<std::pair<BasicBlock *, size_t>> Stack;
  std::vector<BasicBlock *> PostOrder;
  Stack.reserve(N);
  PostOrder.reserve(N);
  BasicBlock *Entry = F.getEntry();
  Visited[Entry->getId()] = 1;
  Stack.push_back({Entry, 0});
  while (!Stack.empty()) {
    auto &[BB, NextSucc] = Stack.back();
    const auto SuccList = successors(BB->getId());
    if (NextSucc < SuccList.size()) {
      BasicBlock *S = SuccList[NextSucc++];
      if (!Visited[S->getId()]) {
        Visited[S->getId()] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    PostOrder.push_back(BB);
    Stack.pop_back();
  }
  RPO.assign(PostOrder.rbegin(), PostOrder.rend());
  for (unsigned I = 0, E = static_cast<unsigned>(RPO.size()); I != E; ++I)
    RPOIndex[RPO[I]->getId()] = I;
}
