//===- analysis/Dominators.h - Dominator tree & frontiers -------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree via the Cooper-Harvey-Kennedy algorithm ("A Simple, Fast
/// Dominance Algorithm") and dominance frontiers from the same paper. Both
/// are used by SSA construction; instruction-level dominance additionally
/// drives semi-strong updates (Section 3.2) and the Opt II redundant check
/// elimination (Algorithm 1, line 7). Per-block lists (tree children,
/// frontiers) are CSR arrays (support/CSR.h).
///
//===----------------------------------------------------------------------===//

#ifndef USHER_ANALYSIS_DOMINATORS_H
#define USHER_ANALYSIS_DOMINATORS_H

#include "analysis/CFG.h"
#include "ir/IR.h"

#include <cstdint>
#include <span>
#include <vector>

namespace usher {

namespace analysis {

/// Dominator tree for one function.
class DominatorTree {
public:
  explicit DominatorTree(const CFGInfo &CFG);

  /// Immediate dominator of \p BB, or null for the entry / unreachable
  /// blocks.
  ir::BasicBlock *idom(const ir::BasicBlock *BB) const {
    return IDom[BB->getId()];
  }

  /// True if block \p A dominates block \p B (reflexively).
  bool dominates(const ir::BasicBlock *A, const ir::BasicBlock *B) const;

  /// True if instruction \p A dominates instruction \p B: strictly earlier
  /// in the same block, or in a dominating block. An instruction does not
  /// dominate itself.
  bool dominates(const ir::Instruction *A, const ir::Instruction *B) const;

  /// Children of \p BB in the dominator tree.
  std::span<ir::BasicBlock *const> children(const ir::BasicBlock *BB) const {
    return {Children.data() + ChildBegin[BB->getId()],
            Children.data() + ChildBegin[BB->getId() + 1]};
  }

  const CFGInfo &getCFG() const { return CFG; }

private:
  const CFGInfo &CFG;
  std::vector<ir::BasicBlock *> IDom;
  /// Block B's children are Children[ChildBegin[B] .. ChildBegin[B + 1]),
  /// in reverse post order.
  std::vector<uint32_t> ChildBegin;
  std::vector<ir::BasicBlock *> Children;
  // Pre/post intervals of a dominator-tree DFS, for O(1) dominance tests.
  std::vector<unsigned> DFSIn, DFSOut;
};

/// Dominance frontiers for one function, computed from a DominatorTree.
class DominanceFrontier {
public:
  explicit DominanceFrontier(const DominatorTree &DT);

  std::span<ir::BasicBlock *const> frontier(const ir::BasicBlock *BB) const {
    return {Frontiers.data() + Begin[BB->getId()],
            Frontiers.data() + Begin[BB->getId() + 1]};
  }

private:
  /// Block B's frontier is Frontiers[Begin[B] .. Begin[B + 1]).
  std::vector<uint32_t> Begin;
  std::vector<ir::BasicBlock *> Frontiers;
};

} // namespace analysis
} // namespace usher

#endif // USHER_ANALYSIS_DOMINATORS_H
