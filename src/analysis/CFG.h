//===- analysis/CFG.h - Control-flow graph utilities ------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predecessor/successor tables and reverse-post-order for one function.
/// Analyses snapshot this; transforms that edit the CFG must rebuild it.
/// Both tables are CSR arrays (support/CSR.h), so a snapshot costs a few
/// allocations however many blocks the function has.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_ANALYSIS_CFG_H
#define USHER_ANALYSIS_CFG_H

#include <cstdint>
#include <span>
#include <vector>

namespace usher {
namespace ir {
class BasicBlock;
class Function;
} // namespace ir

namespace analysis {

/// Immutable CFG snapshot of one function, indexed by block id.
class CFGInfo {
public:
  explicit CFGInfo(const ir::Function &F);

  const ir::Function &getFunction() const { return F; }

  std::span<ir::BasicBlock *const> successors(unsigned BlockId) const {
    return {Succs.data() + SuccBegin[BlockId],
            Succs.data() + SuccBegin[BlockId + 1]};
  }
  std::span<ir::BasicBlock *const> predecessors(unsigned BlockId) const {
    return {Preds.data() + PredBegin[BlockId],
            Preds.data() + PredBegin[BlockId + 1]};
  }

  /// Blocks reachable from entry, in reverse post order (entry first).
  const std::vector<ir::BasicBlock *> &reversePostOrder() const {
    return RPO;
  }

  /// Position of a block in the RPO sequence; ~0u for unreachable blocks.
  unsigned rpoIndex(unsigned BlockId) const { return RPOIndex[BlockId]; }

  /// True if the block is reachable from the entry.
  bool isReachable(unsigned BlockId) const {
    return RPOIndex[BlockId] != ~0u;
  }

private:
  const ir::Function &F;
  /// Block B's successors are Succs[SuccBegin[B] .. SuccBegin[B + 1]),
  /// its predecessors likewise.
  std::vector<uint32_t> SuccBegin, PredBegin;
  std::vector<ir::BasicBlock *> Succs, Preds;
  std::vector<ir::BasicBlock *> RPO;
  std::vector<unsigned> RPOIndex;
};

} // namespace analysis
} // namespace usher

#endif // USHER_ANALYSIS_CFG_H
