//===- core/OptII.cpp - Redundant check elimination -------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/OptII.h"

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "ssa/MemorySSA.h"
#include "support/Budget.h"

#include <unordered_set>

using namespace usher;
using namespace usher::core;
using namespace usher::ir;
using ssa::Space;
using vfg::Edge;
using vfg::EdgeKind;
using vfg::VFG;

namespace {

/// True if \p Loc stands for exactly one runtime cell: a non-collapsed
/// field of a global, or of a stack object whose owner never recurses.
bool isConcreteLoc(const analysis::PointerAnalysis &PA,
                   const analysis::CallGraph &CG, uint32_t Loc) {
  if (PA.isCollapsedLoc(Loc))
    return false;
  const MemObject *Obj = PA.location(Loc).Obj;
  if (Obj->isGlobal())
    return true;
  if (!Obj->isStack())
    return false;
  const Instruction *Site = Obj->getAllocSite();
  return Site && !CG.isRecursive(Site->getParent()->getParent());
}

} // namespace

namespace {

/// The plan for one critical use: the must-flow-from closure plus the
/// dominated outside users whose edges into it will be redirected.
struct UsePlan {
  bool Redirecting = false;
  std::unordered_set<uint32_t> Closure;
  std::vector<uint32_t> Redirectees;
};

/// Computes the plan for \p Use, charging \p B one step per use, one per
/// closure worklist pop and one per candidate examined. Returns false on
/// budget exhaustion.
bool planUse(const VFG::CriticalUse &Use, const ssa::MemorySSA &SSA,
             const analysis::PointerAnalysis &PA,
             const analysis::CallGraph &CG, const VFG &G,
             const Definedness &BaseGamma, Budget *B, UsePlan &Plan) {
  constexpr size_t MaxClosure = 128;
  if (B && !B->step())
    return false;
  // Only checks that are actually performed can justify suppressing
  // dominated re-detections.
  if (BaseGamma.isDefined(Use.Node))
    return true;
  const Function *Fn = G.node(Use.Node).Fn;
  const analysis::DominatorTree &DT = SSA.get(Fn).getDomTree();

  // Compute the must-flow-from closure X of the checked variable
  // (Definition 2), plus concrete memory locations feeding loads in it
  // (Algorithm 1, line 4).
  std::unordered_set<uint32_t> &Closure = Plan.Closure;
  std::vector<uint32_t> Work{Use.Node};
  bool TooBig = false;
  while (!Work.empty() && !TooBig) {
    if (B && !B->step())
      return false;
    uint32_t Node = Work.back();
    Work.pop_back();
    if (!Closure.insert(Node).second)
      continue;
    if (Closure.size() > MaxClosure) {
      TooBig = true;
      break;
    }
    const Instruction *I = G.node(Node).Def;
    if (!I)
      continue;
    if (isa<CopyInst>(I) || isa<BinOpInst>(I)) {
      for (const Edge &E : G.deps(Node))
        if (!G.isRoot(E.Node))
          Work.push_back(E.Node);
    } else if (isa<LoadInst>(I) && G.node(Node).Key.Sp == Space::TopLevel) {
      for (const Edge &E : G.deps(Node)) {
        if (G.isRoot(E.Node))
          continue;
        const VFG::NodeData &Mem = G.node(E.Node);
        if (Mem.Key.Sp == Space::Memory && isConcreteLoc(PA, CG, Mem.Key.Id))
          Closure.insert(E.Node);
      }
    }
  }
  if (TooBig)
    return true;

  // R_x: users of the closure outside it whose defining statement is
  // dominated by the checking statement.
  std::unordered_set<uint32_t> Candidates;
  for (uint32_t Member : Closure)
    for (const Edge &E : G.users(Member))
      if (!Closure.count(E.Node))
        Candidates.insert(E.Node);

  for (uint32_t R : Candidates) {
    if (B && !B->step())
      return false;
    const Instruction *DefStmt = G.node(R).Def;
    if (!DefStmt || DefStmt->getParent()->getParent() != Fn)
      continue;
    if (!DT.dominates(Use.I, DefStmt))
      continue;
    Plan.Redirectees.push_back(R);
  }
  Plan.Redirecting = true;
  return true;
}

} // namespace

OptIIResult core::runRedundantCheckElimination(
    const Module &M, const ssa::MemorySSA &SSA,
    const analysis::PointerAnalysis &PA, const analysis::CallGraph &CG,
    const VFG &G, const Definedness &BaseGamma, Budget *B, ThreadPool *) {
  (void)M;
  OptIIResult Result;
  OptIIResult Exhausted;
  Exhausted.Exhausted = true;

  if (B && !B->step())
    return Exhausted;

  // Plans are applied in critical-use order: later plans read the redirect
  // lists earlier ones installed. Within one use the redirectee order only
  // decides which of its own edges get rewritten first (the rewrites
  // commute).
  for (const VFG::CriticalUse &Use : G.criticalUses()) {
    UsePlan Plan;
    if (!planUse(Use, SSA, PA, CG, G, BaseGamma, B, Plan))
      return Exhausted;
    if (!Plan.Redirecting)
      continue;
    for (uint32_t R : Plan.Redirectees) {
      // Redirect every dependency of R that lands in the closure to T.
      auto It = Result.Redirects.find(R);
      std::vector<Edge> NewDeps =
          It != Result.Redirects.end() ? It->second : G.deps(R);
      bool Changed = false;
      for (Edge &E : NewDeps) {
        if (Plan.Closure.count(E.Node)) {
          E.Node = VFG::RootT;
          E.Kind = EdgeKind::Direct;
          E.CallSite = ~0u;
          Changed = true;
        }
      }
      if (Changed) {
        if (It == Result.Redirects.end())
          ++Result.NumRedirectedNodes;
        Result.Redirects[R] = std::move(NewDeps);
      }
    }
  }
  return Result;
}
