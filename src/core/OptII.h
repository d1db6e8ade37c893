//===- core/OptII.h - Redundant check elimination ---------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opt II (Section 3.5.2, Algorithm 1): if an undefined value is
/// guaranteed to be detected at a critical statement s, then other
/// consumers of the same value at statements dominated by s need not
/// re-detect it. The optimization computes, for each checked top-level
/// variable, its must-flow-from closure X; every edge from a dominated
/// outside user into X is redirected to the T root in a *modified* graph;
/// definedness is re-resolved on that graph and the result drives
/// instrumentation over the original VFG.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_CORE_OPTII_H
#define USHER_CORE_OPTII_H

#include "core/Definedness.h"
#include "vfg/VFG.h"

#include <unordered_map>
#include <vector>

namespace usher {
class Budget;
class ThreadPool;

namespace ir {
class Module;
}
namespace ssa {
class MemorySSA;
}
namespace analysis {
class PointerAnalysis;
class CallGraph;
} // namespace analysis

namespace core {

/// The edge redirections Opt II decided on, in the form Definedness
/// accepts as an override, plus statistics.
struct OptIIResult {
  /// Per redirected node: its replacement dependency list (edges into the
  /// closure replaced by edges to the T root).
  std::unordered_map<uint32_t, std::vector<vfg::Edge>> Redirects;
  /// Number of distinct redirected nodes (the R column of Table 1).
  uint64_t NumRedirectedNodes = 0;
  /// True if the budget ran out mid-analysis. Partial redirections could
  /// be unsound to apply selectively (each redirect assumes its whole
  /// closure stays checked), so callers must discard Redirects entirely
  /// and fall back to the Opt-I-only rung.
  bool Exhausted = false;
};

/// Runs Algorithm 1 and returns the redirections. \p BaseGamma is the
/// definedness computed on the unmodified graph (used to consider only
/// checks that are actually emitted). When \p B is armed
/// (BudgetPhase::OptII) the closure expansions check it per node and the
/// function returns early with Exhausted set. The closures and redirects
/// are computed on \p G alone; \p SSA supplies only the dominator trees.
// The unused ThreadPool * keeps the mangled name perfbench link-wraps.
OptIIResult runRedundantCheckElimination(
    const ir::Module &M, const ssa::MemorySSA &SSA,
    const analysis::PointerAnalysis &PA, const analysis::CallGraph &CG,
    const vfg::VFG &G, const Definedness &BaseGamma, Budget *B = nullptr,
    ThreadPool * = nullptr);

} // namespace core
} // namespace usher

#endif // USHER_CORE_OPTII_H
