//===- analysis/UnificationAnalysis.cpp - Unification solver ---------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/UnificationAnalysis.h"

#include "ir/IR.h"
#include "support/Budget.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <tuple>

using namespace usher;
using namespace usher::analysis;

UnificationSolver::UnificationSolver(const PointerAnalysis &PA,
                                     const ConstraintSystem &C, Budget *B)
    : PA(PA), C(C), B(B) {
  Stats.Engine = SolverKind::Unify;
}

bool UnificationSolver::charge(uint64_t N) {
  Stats.NumBudgetSteps += N;
  if (B && !B->step(N)) {
    Exhausted = true;
    return false;
  }
  return true;
}

void UnificationSolver::push(uint32_t Var) {
  if (!InWorklist.test(Var)) {
    InWorklist.set(Var);
    Worklist.push_back(Var);
  }
}

bool UnificationSolver::insertPts(uint32_t V, uint32_t K) {
  VarPts &P = Pts[V];
  if (P.Bits) {
    if (!P.Bits->set(K - C.NumVars))
      return false;
    P.Ids.push_back(K);
    return true;
  }
  if (std::find(P.Ids.begin(), P.Ids.end(), K) != P.Ids.end())
    return false;
  P.Ids.push_back(K);
  if (P.Ids.size() > SmallPtsLimit) {
    // Promote: from here on membership is O(1) instead of a linear scan.
    P.Bits = std::make_unique<BitSet>(NumLocs);
    for (uint32_t Id : P.Ids)
      P.Bits->set(Id - C.NumVars);
  }
  return true;
}

bool UnificationSolver::unionPtsFrom(uint32_t T,
                                     const std::vector<uint32_t> &Src) {
  bool Changed = false;
  for (uint32_t K : Src) {
    if (insertPts(T, K)) {
      Delta[T].push_back(K);
      Changed = true;
    }
  }
  return Changed;
}

void UnificationSolver::insertClass(uint32_t V, uint32_t K) {
  V = findRep(V);
  assert(V < C.NumVars && "class sets live on top-level variables only");
  assert(K >= C.NumVars && "class ids are location-node ids");
  if (insertPts(V, K)) {
    Delta[V].push_back(K);
    push(V);
  }
}

/// Inserts the directional copy edge rep(Src) -> rep(Dst) unless it is a
/// self-loop or a duplicate, and flushes the source's current class set
/// across it (a brand-new successor has seen none of it yet). The var-var
/// copy graph is static after condensation, so no later compaction is
/// needed.
void UnificationSolver::addCopyEdge(uint32_t Src, uint32_t Dst) {
  uint32_t S = findRep(Src), T = findRep(Dst);
  if (S == T)
    return;
  auto &Targets = CopyTargets[S];
  auto It = std::lower_bound(Targets.begin(), Targets.end(), T);
  if (It != Targets.end() && *It == T)
    return;
  Targets.insert(It, T);
  ++Stats.NumCopyEdges;
  ++Stats.NumPropagations;
  if (unionPtsFrom(T, Pts[S].Ids))
    push(T);
}

void UnificationSolver::addLoadSub(uint32_t K, uint32_t W) {
  K = findRep(K);
  LoadSubs[K].push_back(W);
  if (ClassPointee[K] != ~0u)
    insertClass(W, findRep(ClassPointee[K]));
}

void UnificationSolver::addStoreSub(uint32_t V, uint32_t K) {
  V = findRep(V);
  K = findRep(K);
  // Sorted-insert dedup: generated code repeats identical stores, and a
  // duplicate subscription would re-bind the value's whole class set.
  auto &Subs = StoreSubs[V];
  auto It = std::lower_bound(Subs.begin(), Subs.end(), K);
  if (It != Subs.end() && *It == K)
    return;
  Subs.insert(It, K);
  // Snapshot before iterating: bindPointee can cascade into insertClass on
  // V itself, and an append would invalidate live iterators.
  SnapshotScratch = Pts[V].Ids;
  for (uint32_t Vc : SnapshotScratch)
    if (!bindPointee(K, Vc))
      return;
}

void UnificationSolver::addGepSub(uint32_t K, const GepCst &G) {
  K = findRep(K);
  GepSubs[K].push_back(G);
  seedGepFromMembers(G, Members[K]);
}

/// Field-address constraints stay directional and per-location: unifying
/// here would collapse field precision program-wide. The gep destination
/// receives the class of each member's field address instead.
void UnificationSolver::seedGepFromMembers(const GepCst &G,
                                           const std::vector<uint32_t> &Locs) {
  for (uint32_t LocId : Locs) {
    const PtLoc &L = PA.location(LocId);
    if (G.Dynamic) {
      for (unsigned Loc : PA.locsOfObject(L.Obj))
        insertClass(G.Dst, classOfLoc(Loc));
    } else {
      insertClass(G.Dst, classOfLoc(PA.locId(L.Obj, L.Field + G.Offset)));
    }
  }
}

bool UnificationSolver::bindPointee(uint32_t K, uint32_t Vc) {
  K = findRep(K);
  Vc = findRep(Vc);
  uint32_t P = ClassPointee[K];
  if (P == ~0u) {
    ClassPointee[K] = Vc;
    // Readers subscribed before the class had contents get them now.
    for (size_t I = 0; I != LoadSubs[K].size(); ++I)
      insertClass(LoadSubs[K][I], Vc);
    return true;
  }
  P = findRep(P);
  if (P == Vc)
    return true;
  return mergeClasses(P, Vc);
}

/// Unifies the cell classes of \p A and \p B0. Conflating two cells
/// conflates their contents, so their pointee classes must unify as well —
/// the classic Steensgaard cascade, run iteratively off a pending stack.
/// Union by member count keeps the total member-moving work near-linear.
bool UnificationSolver::mergeClasses(uint32_t A, uint32_t B0) {
  MergePending.clear();
  MergePending.push_back({A, B0});
  while (!MergePending.empty()) {
    auto [XR, YR] = MergePending.back();
    MergePending.pop_back();
    uint32_t X = findRep(XR), Y = findRep(YR);
    if (X == Y)
      continue;
    if (!charge())
      return false;
    ++Stats.NumUnifiedCells;
    if (Members[Y].size() > Members[X].size())
      std::swap(X, Y);
    Parent[Y] = X;
    // Cross-seed: each side's gep subscribers have seen only their own
    // side's members so far.
    for (const GepCst &G : GepSubs[X])
      seedGepFromMembers(G, Members[Y]);
    for (const GepCst &G : GepSubs[Y])
      seedGepFromMembers(G, Members[X]);
    uint32_t PX = ClassPointee[X], PY = ClassPointee[Y];
    if (PY != ~0u) {
      if (PX == ~0u) {
        ClassPointee[X] = PY;
        for (uint32_t W : LoadSubs[X])
          insertClass(W, findRep(PY));
      } else {
        MergePending.push_back({PX, PY});
      }
      ClassPointee[Y] = ~0u;
    } else if (PX != ~0u) {
      for (uint32_t W : LoadSubs[Y])
        insertClass(W, findRep(PX));
    }
    auto Drain = [](auto &From, auto &Into) {
      Into.insert(Into.end(), From.begin(), From.end());
      From.clear();
      From.shrink_to_fit();
    };
    Drain(GepSubs[Y], GepSubs[X]);
    Drain(LoadSubs[Y], LoadSubs[X]);
    Drain(Members[Y], Members[X]);
  }
  return true;
}

/// Offline Tarjan condensation of the static var-to-var copy graph. Exact,
/// not an approximation: every member of a copy cycle provably has the
/// same points-to set in the Andersen solution, so merging preserves
/// precision. Copies with a location-node endpoint are excluded — they
/// become load/store subscriptions on the cell classes instead.
bool UnificationSolver::condenseStaticCopies() {
  const uint32_t N = C.NumVars;
  std::vector<std::vector<uint32_t>> Adj(N);
  for (const ConstraintSystem::CopyCst &Cp : C.Copies)
    if (Cp.Src < N && Cp.Dst < N)
      Adj[Cp.Src].push_back(Cp.Dst);

  std::vector<uint32_t> Index(N, 0), Low(N, 0), SccStack;
  std::vector<uint8_t> OnStack(N, 0);
  struct Frame {
    uint32_t Node;
    uint32_t NextEdge;
  };
  std::vector<Frame> Stack;
  uint32_t NextIndex = 1;
  for (uint32_t Root = 0; Root != N; ++Root) {
    if (Index[Root])
      continue;
    if (!charge())
      return false;
    Index[Root] = Low[Root] = NextIndex++;
    OnStack[Root] = 1;
    SccStack.push_back(Root);
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      uint32_t U = F.Node;
      if (F.NextEdge < Adj[U].size()) {
        uint32_t V = Adj[U][F.NextEdge++];
        if (!Index[V]) {
          if (!charge())
            return false;
          Index[V] = Low[V] = NextIndex++;
          OnStack[V] = 1;
          SccStack.push_back(V);
          Stack.push_back({V, 0});
        } else if (OnStack[V]) {
          Low[U] = std::min(Low[U], Index[V]);
        }
        continue;
      }
      Stack.pop_back();
      if (!Stack.empty())
        Low[Stack.back().Node] = std::min(Low[Stack.back().Node], Low[U]);
      if (Low[U] == Index[U]) {
        uint32_t Count = 0;
        while (true) {
          uint32_t M = SccStack.back();
          SccStack.pop_back();
          OnStack[M] = 0;
          Parent[M] = U;
          ++Count;
          if (M == U)
            break;
        }
        if (Count > 1) {
          ++Stats.NumCollapses;
          Stats.NumCollapsedNodes += Count - 1;
        }
      }
    }
  }
  return true;
}

void UnificationSolver::run() {
  const uint32_t N = C.NumNodes;
  const uint32_t NumVars = C.NumVars;
  NumLocs = PA.numLocations();
  Parent.resize(N);
  for (uint32_t I = 0; I != N; ++I)
    Parent[I] = I;
  Pts = std::vector<VarPts>(NumVars);
  Delta.assign(NumVars, {});
  CopyTargets.assign(NumVars, {});
  LoadTargets.assign(NumVars, {});
  StoreValues.assign(NumVars, {});
  GepTargets.assign(NumVars, {});
  StoreSubs.assign(NumVars, {});
  ClassPointee.assign(N, ~0u);
  Members.assign(N, {});
  LoadSubs.assign(N, {});
  GepSubs.assign(N, {});
  InWorklist.resize(NumVars);
  for (unsigned LocId = 0; LocId != NumLocs; ++LocId)
    Members[C.locNode(LocId)].push_back(LocId);

  if (!condenseStaticCopies())
    return;

  // Dereference constraints register before any class can reach them, so
  // the drain below observes complete subscription lists. Generated code
  // repeats identical dereferences freely; processing a duplicate costs a
  // full pass over the pointer's class set, so dedup up front.
  for (const ConstraintSystem::LoadCst &L : C.Loads)
    LoadTargets[findRep(L.Ptr)].push_back(L.Dst);
  for (const ConstraintSystem::StoreCst &S : C.Stores)
    StoreValues[findRep(S.Ptr)].push_back(S.Val);
  for (const GepCst &G : C.Geps)
    GepTargets[findRep(G.Ptr)].push_back(G);
  for (uint32_t V = 0; V != NumVars; ++V) {
    auto &LT = LoadTargets[V];
    std::sort(LT.begin(), LT.end());
    LT.erase(std::unique(LT.begin(), LT.end()), LT.end());
    auto VKey = [](const ValueRef &A) {
      return (static_cast<uint64_t>(A.IsLoc) << 32) | A.Id;
    };
    auto &SV = StoreValues[V];
    std::sort(SV.begin(), SV.end(),
              [&](const ValueRef &A, const ValueRef &B) {
                return VKey(A) < VKey(B);
              });
    SV.erase(std::unique(SV.begin(), SV.end(),
                         [&](const ValueRef &A, const ValueRef &B) {
                           return VKey(A) == VKey(B);
                         }),
             SV.end());
    auto GKey = [](const GepCst &G) {
      return std::tuple(G.Dst, G.Offset, G.Dynamic);
    };
    auto &GT = GepTargets[V];
    std::sort(GT.begin(), GT.end(), [&](const GepCst &A, const GepCst &B) {
      return GKey(A) < GKey(B);
    });
    GT.erase(std::unique(GT.begin(), GT.end(),
                         [&](const GepCst &A, const GepCst &B) {
                           return GKey(A) == GKey(B);
                         }),
             GT.end());
  }

  for (const ConstraintSystem::SeedCst &S : C.Seeds) {
    if (S.Node < NumVars)
      insertClass(S.Node, classOfLoc(S.Loc));
    else if (!bindPointee(findRep(S.Node), classOfLoc(S.Loc)))
      return;
  }
  for (const ConstraintSystem::CopyCst &Cp : C.Copies) {
    const bool SrcVar = Cp.Src < NumVars, DstVar = Cp.Dst < NumVars;
    if (SrcVar && DstVar)
      addCopyEdge(Cp.Src, Cp.Dst);
    else if (!SrcVar && DstVar)
      addLoadSub(Cp.Src, Cp.Dst); // load through a literal location
    else if (SrcVar && !DstVar)
      addStoreSub(Cp.Src, Cp.Dst); // store through a literal location
    else if (!mergeClasses(Cp.Src, Cp.Dst)) // cell-to-cell flow: conflate
      return;
    if (Exhausted)
      return;
  }

  // The drain moves class ids, never member locations: a pop hands each
  // subscriber O(|delta classes|) work regardless of how many locations
  // those classes have absorbed. Raw delta bits may name classes that
  // have since merged; canonicalizing at pop time dedupes them.
  std::vector<uint32_t> D, CD;
  while (!Worklist.empty()) {
    uint32_t V = Worklist.back();
    Worklist.pop_back();
    InWorklist.clear(V);
    ++Stats.NumPops;
    if (!charge())
      return;

    D.clear();
    std::swap(D, Delta[V]);
    if (D.empty())
      continue;
    // Delta entries are unique by construction (insertPts admits each id
    // once per variable), so canonicalization is only needed to fold ids
    // whose classes have since merged. Until the first merge every id is
    // its own representative — the common case on deref-free programs —
    // and the delta can be consumed as-is.
    const std::vector<uint32_t> *CDP = &D;
    if (Stats.NumUnifiedCells != 0) {
      CD.clear();
      for (uint32_t Raw : D)
        CD.push_back(findRep(Raw));
      std::sort(CD.begin(), CD.end());
      CD.erase(std::unique(CD.begin(), CD.end()), CD.end());
      CDP = &CD;
    }

    if (!LoadTargets[V].empty() || !StoreValues[V].empty() ||
        !GepTargets[V].empty()) {
      for (uint32_t K : *CDP) {
        for (uint32_t W : LoadTargets[V])
          addLoadSub(K, W);
        for (const ValueRef &Val : StoreValues[V]) {
          if (Val.IsLoc) {
            if (!bindPointee(K, classOfLoc(Val.Id)))
              return;
          } else {
            addStoreSub(Val.Id, K);
          }
        }
        if (Exhausted)
          return;
        for (const GepCst &G : GepTargets[V])
          addGepSub(K, G);
      }
    }
    // Index loop: a store of V through itself can append to StoreSubs[V]
    // mid-drain; fresh subscriptions already bound V's full current set.
    for (size_t I = 0; I != StoreSubs[V].size(); ++I)
      for (uint32_t K : *CDP)
        if (!bindPointee(StoreSubs[V][I], K))
          return;

    for (uint32_t T : CopyTargets[V]) {
      ++Stats.NumPropagations;
      if (unionPtsFrom(T, *CDP))
        push(T);
    }
  }

  // Canonicalize once at the fixpoint: map every representative's id list
  // through the final union-find and sort it, so the per-variable harvest
  // (classesOf) degenerates to a copy. Done here rather than lazily
  // because condensed variables share representatives — a lazy sort would
  // redo the same list once per member variable.
  for (uint32_t V = 0; V != NumVars; ++V) {
    if (findRep(V) != V)
      continue;
    auto &Ids = Pts[V].Ids;
    for (uint32_t &Id : Ids)
      Id = findRep(Id);
    std::sort(Ids.begin(), Ids.end());
    Ids.erase(std::unique(Ids.begin(), Ids.end()), Ids.end());
  }
}

std::vector<uint32_t> UnificationSolver::classesOf(uint32_t Node) const {
  std::vector<uint32_t> Out;
  if (Node < C.NumVars) {
    uint32_t R = findRepConst(Node);
    for (uint32_t K : Pts[R].Ids)
      Out.push_back(findRepConst(K));
  } else {
    uint32_t K = findRepConst(Node);
    if (ClassPointee[K] != ~0u)
      Out.push_back(findRepConst(ClassPointee[K]));
  }
  // With no merges (the common case off the deref paths) the id walk is
  // already sorted; a linear dedup still suffices either way.
  if (!std::is_sorted(Out.begin(), Out.end()))
    std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<uint32_t>
UnificationSolver::locsOfClasses(const std::vector<uint32_t> &Classes) const {
  std::vector<uint32_t> Out;
  for (uint32_t K : Classes)
    Out.insert(Out.end(), Members[K].begin(), Members[K].end());
  if (!std::is_sorted(Out.begin(), Out.end()))
    std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}
