//===- analysis/PointerAnalysis.cpp - Andersen's analysis -----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/PointerAnalysis.h"

#include "analysis/CallGraph.h"
#include "analysis/UnificationAnalysis.h"
#include "ir/IR.h"
#include "support/Budget.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_set>

using namespace usher;
using namespace usher::analysis;
using namespace usher::ir;

/// Fields beyond this index collapse into the last tracked field.
static constexpr unsigned MaxFieldsTracked = 64;

const std::vector<MemObject *> PointerAnalysis::EmptyObjList;
const std::vector<uint32_t> PointerAnalysis::EmptyPts;

const char *usher::analysis::solverKindName(SolverKind K) {
  switch (K) {
  case SolverKind::Optimized:
    return "andersen";
  case SolverKind::NaiveReference:
    return "naive";
  case SolverKind::Unify:
    return "unify";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Location numbering
//===----------------------------------------------------------------------===//

void PointerAnalysis::numberLocations() {
  ObjLocBase.clear();
  Locations.clear();
  Collapsed.clear();
  GlobalPts.assign(M.objects().size(), {});
  for (const auto &Obj : M.objects()) {
    unsigned Tracked = 1;
    if (Opts.FieldSensitive && !Obj->isArray())
      Tracked = std::min(Obj->getNumFields(), MaxFieldsTracked);
    assert(Obj->getId() == ObjLocBase.size() && "object ids not dense");
    if (Obj->isGlobal())
      GlobalPts[Obj->getId()] = {static_cast<uint32_t>(Locations.size())};
    ObjLocBase.push_back({static_cast<unsigned>(Locations.size()), Tracked});
    for (unsigned F = 0; F != Tracked; ++F) {
      Locations.push_back({Obj.get(), F});
      // The last tracked field is collapsed if it stands in for overflow
      // fields; array locations always stand for all elements.
      bool IsOverflow = (F + 1 == Tracked) && (Obj->getNumFields() > Tracked);
      Collapsed.push_back(Obj->isArray() || !Opts.FieldSensitive
                              ? Obj->getNumFields() > 1
                              : IsOverflow);
    }
  }
}

unsigned PointerAnalysis::locId(const MemObject *Obj, unsigned Field) const {
  auto [Base, Tracked] = ObjLocBase[Obj->getId()];
  unsigned F = Field < Tracked ? Field : Tracked - 1;
  return Base + F;
}

std::ranges::iota_view<unsigned, unsigned>
PointerAnalysis::locsOfObject(const MemObject *Obj) const {
  auto [Base, Tracked] = ObjLocBase[Obj->getId()];
  return std::views::iota(Base, Base + Tracked);
}

//===----------------------------------------------------------------------===//
// Allocation wrapper detection (for 1-callsite heap cloning)
//===----------------------------------------------------------------------===//

namespace {

/// Decides whether a function is an allocation wrapper in the sense of
/// Section 4.1: its returned pointers are exactly its own fresh heap
/// allocations (possibly mixed with integer constants on error paths), and
/// those allocations neither escape nor get accessed inside the function.
/// Under these conditions it is *precise and sound* to replace the callee's
/// return-value flow by a per-call-site clone object.
class WrapperChecker {
public:
  explicit WrapperChecker(const Function &F) : F(F) {}

  /// Returns the heap objects to clone, or an empty vector if \p F is not
  /// a wrapper.
  std::vector<MemObject *> run();

private:
  const Function &F;
};

} // namespace

std::vector<MemObject *> WrapperChecker::run() {
  std::vector<MemObject *> HeapObjs;
  // MayHoldAlloc: forward closure of heap-alloc defs through copies.
  std::unordered_set<const Variable *> MayHoldAlloc;
  bool Changed = true;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (const auto *A = dyn_cast<AllocInst>(I.get()))
        if (A->getObject()->isHeap()) {
          HeapObjs.push_back(A->getObject());
          MayHoldAlloc.insert(A->getDef());
        }
  if (HeapObjs.empty())
    return {};
  while (Changed) {
    Changed = false;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (const auto *C = dyn_cast<CopyInst>(I.get()))
          if (C->getSrc().isVar() && MayHoldAlloc.count(C->getSrc().getVar()))
            Changed |= MayHoldAlloc.insert(C->getDef()).second;
  }

  // Escape/access check: a variable that may hold a fresh allocation may
  // only be copied, returned, or branched on.
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      bool UsesAlloc = false;
      I->forEachUsedVar(
          [&](const Variable *V) { UsesAlloc |= MayHoldAlloc.count(V) != 0; });
      if (!UsesAlloc)
        continue;
      switch (I->getKind()) {
      case Instruction::IKind::Copy:
      case Instruction::IKind::Ret:
      case Instruction::IKind::CondBr:
        break;
      default:
        return {};
      }
    }
  }

  // AllocPure: greatest set of variables whose every def is a heap alloc,
  // a constant copy, or a copy of an AllocPure variable. Parameters are
  // defined at entry and thus never AllocPure.
  std::unordered_set<const Variable *> AllocPure;
  for (const auto &V : F.variables())
    if (!V->isParam())
      AllocPure.insert(V.get());
  Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &BB : F.blocks()) {
      for (const auto &I : BB->instructions()) {
        const Variable *Def = I->getDef();
        if (!Def || !AllocPure.count(Def))
          continue;
        bool Ok = false;
        if (const auto *A = dyn_cast<AllocInst>(I.get()))
          Ok = A->getObject()->isHeap();
        else if (const auto *C = dyn_cast<CopyInst>(I.get()))
          Ok = C->getSrc().isConst() ||
               (C->getSrc().isVar() && AllocPure.count(C->getSrc().getVar()));
        if (!Ok) {
          AllocPure.erase(Def);
          Changed = true;
        }
      }
    }
  }

  // Every returned variable must be AllocPure, and at least one must
  // actually carry an allocation.
  bool ReturnsAlloc = false;
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      const auto *R = dyn_cast<RetInst>(I.get());
      if (!R || !R->getValue().isVar())
        continue;
      const Variable *V = R->getValue().getVar();
      if (!AllocPure.count(V))
        return {};
      ReturnsAlloc |= MayHoldAlloc.count(V) != 0;
    }
  }
  if (!ReturnsAlloc)
    return {};
  return HeapObjs;
}

void PointerAnalysis::detectWrappers() {
  for (const auto &F : M.functions()) {
    if (F->getName() == "main" || CG.isRecursive(F.get()))
      continue;
    std::vector<MemObject *> Origins = WrapperChecker(*F).run();
    if (!Origins.empty())
      Wrappers[F.get()] = std::move(Origins);
  }
}

void PointerAnalysis::createClones() {
  for (auto &[F, Origins] : Wrappers) {
    unsigned SiteIdx = 0;
    for (CallInst *Call : CG.callersOf(F)) {
      std::vector<MemObject *> SiteClones;
      for (MemObject *Origin : Origins) {
        MemObject *Clone = M.createObject(
            Origin->getName() + "#" + std::to_string(SiteIdx), Region::Heap,
            Origin->getNumFields(), Origin->isInitialized(),
            Origin->isArray());
        Clone->setCloneOrigin(Origin);
        Clone->setAllocSite(Call);
        SiteClones.push_back(Clone);
      }
      Clones[Call] = std::move(SiteClones);
      ++SiteIdx;
    }
  }
}

const std::vector<MemObject *> &
PointerAnalysis::clonesAt(const CallInst *Call) const {
  auto It = Clones.find(Call);
  return It == Clones.end() ? EmptyObjList : It->second;
}

const std::vector<MemObject *> &
PointerAnalysis::cloneOrigins(const Function *F) const {
  auto It = Wrappers.find(F);
  return It == Wrappers.end() ? EmptyObjList : It->second;
}

//===----------------------------------------------------------------------===//
// Constraint solver
//===----------------------------------------------------------------------===//
//
// The solver is a constraint builder shared by two engines:
//
//  - the optimized engine (the default): a union-find representative layer
//    with online lazy cycle detection — copy cycles collapse into a single
//    representative instead of ping-ponging the worklist — plus difference
//    propagation: each representative keeps a Delta list of the points-to
//    words not yet pushed to its successors, and successors receive only
//    the delta, 64 bits per word operation;
//  - the naive reference engine: the classic full-set worklist fixpoint,
//    retained as an oracle for the equivalence property tests and as the
//    bench_solver baseline.
//
// Both consume the identical constraint system, so their final points-to
// sets are bit-for-bit equal (tests/SolverEquivalenceTest.cpp).

class PointerAnalysis::Solver {
public:
  Solver(PointerAnalysis &PA, Budget *B) : PA(PA), M(PA.M), B(B) {}

  void run();

private:
  // The flow-insensitive constraint system is recorded during the module
  // walk into the shared ConstraintSystem (UnificationAnalysis.h) so the
  // unification engine consumes bit-identical constraints; the aliases
  // keep the builder and the two Andersen engines reading naturally.
  using ValueRef = ConstraintSystem::ValueRef;
  using SeedCst = ConstraintSystem::SeedCst;
  using CopyCst = ConstraintSystem::CopyCst;
  using LoadCst = ConstraintSystem::LoadCst;
  using StoreCst = ConstraintSystem::StoreCst;
  using GepCst = ConstraintSystem::GepCst;

  uint32_t varNode(const Variable *V) const {
    auto It = VarIds.find(V);
    assert(It != VarIds.end() && "unnumbered variable");
    return It->second;
  }
  uint32_t locNode(uint32_t LocId) const { return NumVars + LocId; }

  /// Translates an operand into a solver value; returns false for
  /// constants (which carry no points-to information).
  bool valueOf(const Operand &Op, ValueRef &Out) const {
    if (Op.isVar()) {
      Out = {false, varNode(Op.getVar())};
      return true;
    }
    if (Op.isGlobal()) {
      Out = {true, PA.locId(Op.getGlobal(), 0)};
      return true;
    }
    return false;
  }

  /// Records that value \p V flows into node \p Dst.
  void flowInto(const ValueRef &V, uint32_t Dst) {
    if (V.IsLoc)
      Seeds.push_back({Dst, V.Id});
    else
      Copies.push_back({V.Id, Dst});
  }

  /// Charges \p N budget steps. Returns false — and flags the analysis
  /// exhausted — once the phase budget runs out.
  bool charge(uint64_t N = 1) {
    PA.SStats.NumBudgetSteps += N;
    if (B && !B->step(N)) {
      PA.Exhausted = true;
      return false;
    }
    return true;
  }

  void push(uint32_t Node) {
    if (!InWorklist.test(Node)) {
      InWorklist.set(Node);
      Worklist.push_back(Node);
    }
  }

  void buildConstraints();
  void addCallConstraints(const CallInst *Call);

  void solveNaive();

  // Optimized-engine helpers.
  uint32_t findRep(uint32_t N) {
    while (Parent[N] != N) {
      Parent[N] = Parent[Parent[N]]; // path halving
      N = Parent[N];
    }
    return N;
  }
  void appendDelta(uint32_t R, uint32_t Word, uint64_t Fresh);
  bool orWordInto(uint32_t T, uint32_t Word, uint64_t Mask);
  void seedOpt(uint32_t Node, uint32_t LocId);
  void addCopyEdge(uint32_t Src, uint32_t Dst);
  void flowIntoOpt(const ValueRef &V, uint32_t Dst);
  bool lcdAlreadyChecked(uint32_t Src, uint32_t Dst);
  bool detectFrom(uint32_t Start, uint32_t &NextIndex,
                  std::vector<uint32_t> &SccStack,
                  std::vector<std::vector<uint32_t>> &Found);
  void collapseScc(const std::vector<uint32_t> &Members);
  bool drainPendingLcd();
  void solveOptimized();

  template <typename KeyT, typename RepFn, typename KeyFn, typename MatFn>
  void harvest(RepFn RepOf, KeyFn KeyOf, MatFn Materialize);

  PointerAnalysis &PA;
  Module &M;
  Budget *B;

  std::unordered_map<const Variable *, uint32_t> VarIds;
  ConstraintSystem C;
  uint32_t &NumVars = C.NumVars;
  uint32_t &NumNodes = C.NumNodes;
  std::vector<SeedCst> &Seeds = C.Seeds;
  std::vector<CopyCst> &Copies = C.Copies;
  std::vector<LoadCst> &Loads = C.Loads;
  std::vector<StoreCst> &Stores = C.Stores;
  std::vector<GepCst> &Geps = C.Geps;
  // Return values per function (for non-wrapper calls).
  std::unordered_map<const Function *, std::vector<ValueRef>> RetValues;

  // Engine state. In the optimized engine all per-node tables are keyed by
  // the union-find representative; merged members' entries are drained
  // into their representative and freed.
  std::vector<BitSet> Pts;
  // Difference-propagation state: per representative, the bits that
  // entered Pts but have not been pushed to successors yet, as {word
  // index, fresh mask} pairs. Exact and duplicate-free by construction —
  // a mask holds only bits Pts[R] lacked when they arrived, and Pts only
  // grows. A list (rather than a second BitSet) makes taking and clearing
  // a delta O(|delta words|) instead of O(universe) per pop. Iterating the
  // pairs in order, each mask low bit first, visits the bits in the order
  // they arrived; appendDelta keeps that true, so the worklist order and
  // every counter are the ones per-bit deltas would give.
  struct DeltaWord {
    uint32_t Word;
    uint64_t Mask;
  };
  std::vector<std::vector<DeltaWord>> Delta;
  // Copy successors, kept sorted for binary-search dedup. Entries may go
  // stale when a successor is merged; each pop compacts its list
  // rep-aware (map through findRep, re-sort, unique, drop self-loops).
  std::vector<std::vector<uint32_t>> CopyTargets;
  // x := *n (on pointer node n): propagate pts(loc) into each target.
  std::vector<std::vector<uint32_t>> LoadTargets;
  // *n := v (on pointer node n): flow each value into pts-locations of n.
  std::vector<std::vector<ValueRef>> StoreValues;
  // x := gep n, off: derived field inclusion.
  std::vector<std::vector<GepCst>> GepTargets;

  std::vector<uint32_t> Parent; // union-find forest (optimized engine)
  // Lazy successor-list compaction: a node's list can only contain stale
  // (merged) targets if a collapse happened after its last compaction, so
  // each pop compares its stamp against the global collapse count and
  // skips the re-sort entirely in the common cycle-free steady state.
  std::vector<uint64_t> CompactStamp;
  // Per-source sorted list of destinations already searched for a cycle,
  // so each propagation edge triggers at most one detection sweep.
  std::vector<std::vector<uint32_t>> LcdChecked;
  // Cycle-detection candidates observed while a pop is being processed;
  // drained only between pops so the sweep never mutates lists mid-walk.
  std::vector<std::pair<uint32_t, uint32_t>> PendingLcd;

  // Epoch-stamped Tarjan scratch (allocated once, cleared by bumping).
  std::vector<uint32_t> DfsIndex, DfsLow, DfsEpoch, StackEpoch;
  uint32_t Epoch = 0;

  std::vector<uint32_t> Worklist;
  BitSet InWorklist;
};

void PointerAnalysis::Solver::buildConstraints() {
  for (const auto &F : M.functions())
    for (const auto &V : F->variables())
      VarIds[V.get()] = NumVars++;
  NumNodes = NumVars + PA.numLocations();

  // Collect return values first (calls may precede callee bodies).
  for (const auto &F : M.functions()) {
    auto &Rets = RetValues[F.get()];
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (const auto *R = dyn_cast<RetInst>(I.get())) {
          ValueRef V;
          if (valueOf(R->getValue(), V))
            Rets.push_back(V);
        }
  }

  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->instructions()) {
        switch (I->getKind()) {
        case Instruction::IKind::Copy: {
          const auto *C = cast<CopyInst>(I.get());
          ValueRef V;
          if (valueOf(C->getSrc(), V))
            flowInto(V, varNode(C->getDef()));
          break;
        }
        case Instruction::IKind::Alloc: {
          const auto *A = cast<AllocInst>(I.get());
          Seeds.push_back(
              {varNode(A->getDef()), PA.locId(A->getObject(), 0)});
          break;
        }
        case Instruction::IKind::FieldAddr: {
          const auto *FA = cast<FieldAddrInst>(I.get());
          ValueRef V;
          if (!valueOf(FA->getBase(), V))
            break;
          // A variable index may reach any field of the pointee (the
          // dynamic-GEP case; arrays collapse to one location anyway).
          bool Dynamic = !FA->hasConstIndex();
          unsigned Offset = Dynamic ? 0 : FA->getFieldIdx();
          if (V.IsLoc) {
            // gep of a global: fold the field arithmetic directly.
            const PtLoc &L = PA.location(V.Id);
            if (Dynamic) {
              for (unsigned Loc : PA.locsOfObject(L.Obj))
                Seeds.push_back({varNode(FA->getDef()), Loc});
            } else {
              Seeds.push_back({varNode(FA->getDef()),
                               PA.locId(L.Obj, L.Field + Offset)});
            }
          } else {
            Geps.push_back({V.Id, varNode(FA->getDef()), Offset, Dynamic});
          }
          break;
        }
        case Instruction::IKind::Load: {
          const auto *L = cast<LoadInst>(I.get());
          ValueRef P;
          if (!valueOf(L->getPtr(), P))
            break;
          if (P.IsLoc)
            Copies.push_back({locNode(P.Id), varNode(L->getDef())});
          else
            Loads.push_back({P.Id, varNode(L->getDef())});
          break;
        }
        case Instruction::IKind::Store: {
          const auto *S = cast<StoreInst>(I.get());
          ValueRef P, V;
          bool HasValue = valueOf(S->getValue(), V);
          if (!HasValue)
            break; // Storing a constant: no points-to flow.
          if (!valueOf(S->getPtr(), P))
            break;
          if (P.IsLoc)
            flowInto(V, locNode(P.Id));
          else
            Stores.push_back({P.Id, V});
          break;
        }
        case Instruction::IKind::Call:
          addCallConstraints(cast<CallInst>(I.get()));
          break;
        case Instruction::IKind::BinOp:
        case Instruction::IKind::CondBr:
        case Instruction::IKind::Goto:
        case Instruction::IKind::Ret:
          // Binary operations yield integers in TinyC (pointer arithmetic
          // must use gep); branches and returns add no constraints here.
          break;
        }
      }
    }
  }
}

void PointerAnalysis::Solver::addCallConstraints(const CallInst *Call) {
  const Function *Callee = Call->getCallee();
  const auto &Params = Callee->params();
  for (size_t Idx = 0; Idx != Params.size(); ++Idx) {
    ValueRef V;
    if (valueOf(Call->getArgs()[Idx], V))
      flowInto(V, varNode(Params[Idx]));
  }

  const std::vector<MemObject *> &SiteClones = PA.clonesAt(Call);
  if (!SiteClones.empty()) {
    // Wrapper call: the result points to this site's fresh clones; the
    // callee's return flow is intentionally not connected (the wrapper
    // check guarantees it only returns its own fresh allocations).
    if (Call->getDef())
      for (MemObject *Clone : SiteClones)
        Seeds.push_back({varNode(Call->getDef()), PA.locId(Clone, 0)});
    return;
  }

  if (Call->getDef()) {
    uint32_t Dst = varNode(Call->getDef());
    for (const ValueRef &V : RetValues[Callee])
      flowInto(V, Dst);
  }
}

//===----------------------------------------------------------------------===//
// Naive reference engine
//===----------------------------------------------------------------------===//

void PointerAnalysis::Solver::solveNaive() {
  const unsigned NumLocs = PA.numLocations();
  Pts.assign(NumNodes, BitSet(NumLocs));
  CopyTargets.assign(NumNodes, {});
  LoadTargets.assign(NumNodes, {});
  StoreValues.assign(NumNodes, {});
  GepTargets.assign(NumNodes, {});
  InWorklist.resize(NumNodes);

  auto Seed = [&](uint32_t Node, uint32_t Loc) {
    if (Pts[Node].set(Loc))
      push(Node);
  };
  // Per-node sorted-vector edge dedup: no packed-key hashing on the hot
  // path, and membership stays exact because node ids never merge here.
  auto AddCopy = [&](uint32_t Src, uint32_t Dst) {
    auto &Targets = CopyTargets[Src];
    auto It = std::lower_bound(Targets.begin(), Targets.end(), Dst);
    if (It != Targets.end() && *It == Dst)
      return;
    Targets.insert(It, Dst);
    ++PA.SStats.NumCopyEdges;
    ++PA.SStats.NumPropagations;
    if (Pts[Dst].unionWith(Pts[Src]))
      push(Dst);
  };
  auto FlowInto = [&](const ValueRef &V, uint32_t Dst) {
    if (V.IsLoc)
      Seed(Dst, V.Id);
    else
      AddCopy(V.Id, Dst);
  };

  for (const SeedCst &S : Seeds)
    Seed(S.Node, S.Loc);
  for (const LoadCst &L : Loads) {
    LoadTargets[L.Ptr].push_back(L.Dst);
    push(L.Ptr);
  }
  for (const StoreCst &S : Stores) {
    StoreValues[S.Ptr].push_back(S.Val);
    push(S.Ptr);
  }
  for (const GepCst &G : Geps) {
    GepTargets[G.Ptr].push_back(G);
    push(G.Ptr);
  }
  for (const CopyCst &C : Copies)
    AddCopy(C.Src, C.Dst);

  while (!Worklist.empty()) {
    // One budget step per worklist pop: the inclusion fixpoint is where
    // pathological programs blow up (DFI-style wall-clock cliffs). On
    // exhaustion the partial solution under-approximates, so the whole
    // analysis is flagged unusable rather than silently wrong.
    ++PA.SStats.NumPops;
    if (!charge())
      return;
    uint32_t N = Worklist.back();
    Worklist.pop_back();
    InWorklist.clear(N);

    if (!LoadTargets[N].empty() || !StoreValues[N].empty() ||
        !GepTargets[N].empty()) {
      Pts[N].forEach([&](size_t LocIdx) {
        uint32_t LocId = static_cast<uint32_t>(LocIdx);
        for (uint32_t Dst : LoadTargets[N])
          AddCopy(locNode(LocId), Dst);
        for (const ValueRef &V : StoreValues[N])
          FlowInto(V, locNode(LocId));
        if (!GepTargets[N].empty()) {
          const PtLoc &L = PA.location(LocId);
          for (const GepCst &G : GepTargets[N]) {
            if (G.Dynamic) {
              for (unsigned Loc : PA.locsOfObject(L.Obj))
                Seed(G.Dst, Loc);
            } else {
              Seed(G.Dst, PA.locId(L.Obj, L.Field + G.Offset));
            }
          }
        }
      });
    }

    for (uint32_t Dst : CopyTargets[N]) {
      ++PA.SStats.NumPropagations;
      if (Pts[Dst].unionWith(Pts[N]))
        push(Dst);
    }
  }
}

//===----------------------------------------------------------------------===//
// Optimized engine: SCC collapsing + difference propagation
//===----------------------------------------------------------------------===//

/// Records bits \p Fresh of word \p Word as pending in Delta[\p R]. They
/// join the last pair only if they all sort after its bits, so the delta
/// still iterates in arrival order.
void PointerAnalysis::Solver::appendDelta(uint32_t R, uint32_t Word,
                                          uint64_t Fresh) {
  auto &D = Delta[R];
  if (!D.empty() && D.back().Word == Word && D.back().Mask < (Fresh & -Fresh))
    D.back().Mask |= Fresh;
  else
    D.push_back({Word, Fresh});
}

/// Pts[T] |= \p Mask at word \p Word, recording the fresh bits in
/// Delta[T]; returns true if any bit was fresh.
bool PointerAnalysis::Solver::orWordInto(uint32_t T, uint32_t Word,
                                         uint64_t Mask) {
  uint64_t Fresh = Mask & ~Pts[T].word(Word);
  if (!Fresh)
    return false;
  Pts[T].orWord(Word, Fresh);
  appendDelta(T, Word, Fresh);
  return true;
}

void PointerAnalysis::Solver::seedOpt(uint32_t Node, uint32_t LocId) {
  uint32_t R = findRep(Node);
  if (orWordInto(R, LocId >> 6, 1ULL << (LocId & 63)))
    push(R);
}

/// Inserts the copy edge rep(Src) -> rep(Dst) if it is not a self-loop or
/// a (non-stale) duplicate, and propagates Src's full current set across
/// it, a word at a time — a brand-new successor has seen none of it yet.
void PointerAnalysis::Solver::addCopyEdge(uint32_t Src, uint32_t Dst) {
  uint32_t S = findRep(Src), T = findRep(Dst);
  if (S == T)
    return;
  auto &Targets = CopyTargets[S];
  auto It = std::lower_bound(Targets.begin(), Targets.end(), T);
  if (It != Targets.end() && *It == T)
    return;
  Targets.insert(It, T);
  ++PA.SStats.NumCopyEdges;
  ++PA.SStats.NumPropagations;
  bool Changed = false;
  const BitSet &From = Pts[S];
  for (uint32_t W = 0, E = static_cast<uint32_t>(From.numWords()); W != E;
       ++W)
    if (uint64_t Mask = From.word(W))
      Changed |= orWordInto(T, W, Mask);
  if (Changed)
    push(T);
  else if (!Pts[S].empty() && !lcdAlreadyChecked(S, T))
    PendingLcd.push_back({S, T});
}

void PointerAnalysis::Solver::flowIntoOpt(const ValueRef &V, uint32_t Dst) {
  if (V.IsLoc)
    seedOpt(Dst, V.Id);
  else
    addCopyEdge(V.Id, Dst);
}

bool PointerAnalysis::Solver::lcdAlreadyChecked(uint32_t Src, uint32_t Dst) {
  auto &Checked = LcdChecked[Src];
  auto It = std::lower_bound(Checked.begin(), Checked.end(), Dst);
  if (It != Checked.end() && *It == Dst)
    return true;
  Checked.insert(It, Dst);
  return false;
}

/// Merges an SCC into its first member. Invariants restored here:
/// Parent[] routes every member to the representative, the members'
/// constraint lists are drained into the representative's, and the
/// representative's Delta is reset to its full set so both inherited and
/// pre-existing successors observe the merged points-to set at the next
/// pop (re-pushing the full set once per collapse is idempotent and keeps
/// the merge logic trivially sound).
void PointerAnalysis::Solver::collapseScc(
    const std::vector<uint32_t> &Members) {
  uint32_t R = Members.front();
  for (size_t I = 1, E = Members.size(); I != E; ++I) {
    uint32_t M = Members[I];
    Parent[M] = R;
    Pts[R].orWithReturningChanged(Pts[M]);
    auto Drain = [](auto &From, auto &Into) {
      Into.insert(Into.end(), From.begin(), From.end());
      From.clear();
      From.shrink_to_fit();
    };
    Drain(CopyTargets[M], CopyTargets[R]);
    Drain(LoadTargets[M], LoadTargets[R]);
    Drain(StoreValues[M], StoreValues[R]);
    Drain(GepTargets[M], GepTargets[R]);
    LcdChecked[M].clear();
    LcdChecked[M].shrink_to_fit();
    Pts[M] = BitSet();
    Delta[M].clear();
    Delta[M].shrink_to_fit();
  }
  // Compact the merged successor list: map to representatives, restore
  // sorted order for binary-search dedup, drop duplicates and self-loops.
  auto &Targets = CopyTargets[R];
  for (uint32_t &T : Targets)
    T = findRep(T);
  std::sort(Targets.begin(), Targets.end());
  Targets.erase(std::unique(Targets.begin(), Targets.end()), Targets.end());
  Targets.erase(std::remove(Targets.begin(), Targets.end(), R),
                Targets.end());
  LcdChecked[R].clear();
  Delta[R].clear();
  for (uint32_t W = 0, E = static_cast<uint32_t>(Pts[R].numWords()); W != E;
       ++W)
    if (uint64_t Mask = Pts[R].word(W))
      Delta[R].push_back({W, Mask});
  if (!Delta[R].empty() || !LoadTargets[R].empty() ||
      !StoreValues[R].empty() || !GepTargets[R].empty())
    push(R);
  ++PA.SStats.NumCollapses;
  PA.SStats.NumCollapsedNodes += Members.size() - 1;
  // The list was just compacted; a later collapse (even in this same
  // sweep) bumps the global count past this stamp and forces a re-pass.
  CompactStamp[R] = PA.SStats.NumCollapses;
}

/// One batched cycle-detection sweep: an iterative Tarjan walk of the
/// representative copy graph rooted at every pending candidate, all roots
/// sharing one epoch so each node is visited at most once per sweep no
/// matter how many candidate edges accumulated. Every multi-member SCC
/// found is recorded into \p Found (collapsing happens after the whole
/// sweep: mutating successor lists mid-DFS would invalidate the frames
/// iterating them). Each visited node charges one budget step (collapsed
/// nodes still account for their work); returns false on exhaustion,
/// leaving only discardable state.
bool PointerAnalysis::Solver::detectFrom(
    uint32_t Start, uint32_t &NextIndex, std::vector<uint32_t> &SccStack,
    std::vector<std::vector<uint32_t>> &Found) {
  struct Frame {
    uint32_t Node;
    size_t NextEdge;
  };
  std::vector<Frame> CallStack;

  auto Visit = [&](uint32_t N) -> bool {
    if (!charge())
      return false;
    DfsEpoch[N] = Epoch;
    DfsIndex[N] = DfsLow[N] = NextIndex++;
    StackEpoch[N] = Epoch;
    SccStack.push_back(N);
    CallStack.push_back({N, 0});
    return true;
  };

  if (!Visit(Start))
    return false;
  while (!CallStack.empty()) {
    Frame &F = CallStack.back();
    uint32_t N = F.Node;
    if (F.NextEdge < CopyTargets[N].size()) {
      uint32_t S = findRep(CopyTargets[N][F.NextEdge++]);
      if (S == N)
        continue;
      if (DfsEpoch[S] != Epoch) {
        if (!Visit(S))
          return false;
      } else if (StackEpoch[S] == Epoch) {
        DfsLow[N] = std::min(DfsLow[N], DfsIndex[S]);
      }
      continue;
    }
    CallStack.pop_back();
    if (!CallStack.empty())
      DfsLow[CallStack.back().Node] =
          std::min(DfsLow[CallStack.back().Node], DfsLow[N]);
    if (DfsLow[N] == DfsIndex[N]) {
      std::vector<uint32_t> Members;
      while (true) {
        uint32_t Mem = SccStack.back();
        SccStack.pop_back();
        StackEpoch[Mem] = 0;
        Members.push_back(Mem);
        if (Mem == N)
          break;
      }
      if (Members.size() > 1)
        Found.push_back(std::move(Members));
    }
  }
  return true;
}

bool PointerAnalysis::Solver::drainPendingLcd() {
  if (PendingLcd.empty())
    return true;
  ++Epoch;
  uint32_t NextIndex = 1;
  std::vector<uint32_t> SccStack;
  std::vector<std::vector<uint32_t>> Found;
  for (auto [Src, Dst] : PendingLcd) {
    // A previous root of this sweep may have walked (or merged) the pair
    // already; the shared epoch keeps the whole drain linear in the graph.
    uint32_t R = findRep(Dst);
    if (findRep(Src) == R || DfsEpoch[R] == Epoch)
      continue;
    if (!detectFrom(R, NextIndex, SccStack, Found)) {
      PendingLcd.clear();
      return false;
    }
  }
  PendingLcd.clear();
  for (const std::vector<uint32_t> &Members : Found)
    collapseScc(Members);
  return true;
}

void PointerAnalysis::Solver::solveOptimized() {
  const unsigned NumLocs = PA.numLocations();
  Pts.assign(NumNodes, BitSet(NumLocs));
  Delta.assign(NumNodes, {});
  CopyTargets.assign(NumNodes, {});
  LoadTargets.assign(NumNodes, {});
  StoreValues.assign(NumNodes, {});
  GepTargets.assign(NumNodes, {});
  LcdChecked.assign(NumNodes, {});
  CompactStamp.assign(NumNodes, 0);
  Parent.resize(NumNodes);
  for (uint32_t N = 0; N != NumNodes; ++N)
    Parent[N] = N;
  DfsIndex.assign(NumNodes, 0);
  DfsLow.assign(NumNodes, 0);
  DfsEpoch.assign(NumNodes, 0);
  StackEpoch.assign(NumNodes, 0);
  InWorklist.resize(NumNodes);

  for (const SeedCst &S : Seeds)
    seedOpt(S.Node, S.Loc);
  for (const LoadCst &L : Loads) {
    LoadTargets[L.Ptr].push_back(L.Dst);
    push(L.Ptr);
  }
  for (const StoreCst &S : Stores) {
    StoreValues[S.Ptr].push_back(S.Val);
    push(S.Ptr);
  }
  for (const GepCst &G : Geps) {
    GepTargets[G.Ptr].push_back(G);
    push(G.Ptr);
  }
  for (const CopyCst &C : Copies)
    addCopyEdge(C.Src, C.Dst);

  // Cycle-detection candidates batch up while the worklist drains; one
  // shared-epoch sweep services all of them at once. Per-pop sweeps would
  // degenerate to O(n^2) on deep acyclic copy chains, while draining only
  // at worklist exhaustion would let long-lived cycles circulate deltas
  // for the whole solve. So a sweep fires when enough candidates
  // accumulate, or — since the per-edge memo means a cycle may only ever
  // queue one candidate — once any candidate has waited NumNodes pops,
  // which amortizes each sweep's O(graph) cost over O(graph) pops.
  const size_t LcdDrainThreshold = std::max<size_t>(16, NumNodes / 256);
  uint64_t PopsSinceDrain = 0;
  std::vector<DeltaWord> D; // reused pop-delta buffer (see swap below)
  while (true) {
    if (Worklist.empty()) {
      if (PendingLcd.empty())
        break;
      if (!drainPendingLcd())
        return;
      PopsSinceDrain = 0;
      continue;
    }
    if (!PendingLcd.empty() && (PendingLcd.size() >= LcdDrainThreshold ||
                                PopsSinceDrain >= NumNodes)) {
      if (!drainPendingLcd())
        return;
      PopsSinceDrain = 0;
    }
    ++PopsSinceDrain;
    uint32_t N = Worklist.back();
    Worklist.pop_back();
    InWorklist.clear(N);
    ++PA.SStats.NumPops;
    if (findRep(N) != N) {
      // This node was merged into a representative after being enqueued;
      // its pending work travelled with the merge and is charged exactly
      // once, by the representative's own pop.
      ++PA.SStats.NumSkippedMergedPops;
      continue;
    }
    if (!charge())
      return;

    // Take the delta: only bits the successors have not seen yet travel.
    // Swapping with a reused buffer recycles capacity between pops: the
    // node's next delta inherits an already-sized allocation instead of
    // malloc'ing one per pop.
    D.clear();
    std::swap(D, Delta[N]);

    if (!D.empty() && (!LoadTargets[N].empty() || !StoreValues[N].empty() ||
                       !GepTargets[N].empty())) {
      for (const DeltaWord &DW : D) {
        for (uint64_t Mask = DW.Mask; Mask; Mask &= Mask - 1) {
          uint32_t LocId = DW.Word * 64 + __builtin_ctzll(Mask);
          for (uint32_t Dst : LoadTargets[N])
            addCopyEdge(locNode(LocId), Dst);
          for (const ValueRef &V : StoreValues[N])
            flowIntoOpt(V, locNode(LocId));
          if (!GepTargets[N].empty()) {
            const PtLoc &L = PA.location(LocId);
            for (const GepCst &G : GepTargets[N]) {
              if (G.Dynamic) {
                for (unsigned Loc : PA.locsOfObject(L.Obj))
                  seedOpt(G.Dst, Loc);
              } else {
                seedOpt(G.Dst, PA.locId(L.Obj, L.Field + G.Offset));
              }
            }
          }
        }
      }
    }

    if (!D.empty() && !CopyTargets[N].empty()) {
      // Compact the successor list rep-aware before propagating: merged
      // targets collapse to their representative, duplicates and
      // self-loops introduced by merges disappear, and binary-search
      // dedup in addCopyEdge stays exact. Skipped unless a collapse
      // happened since this node's last compaction.
      auto &Targets = CopyTargets[N];
      if (CompactStamp[N] != PA.SStats.NumCollapses) {
        CompactStamp[N] = PA.SStats.NumCollapses;
        for (uint32_t &T : Targets)
          T = findRep(T);
        std::sort(Targets.begin(), Targets.end());
        Targets.erase(std::unique(Targets.begin(), Targets.end()),
                      Targets.end());
        Targets.erase(std::remove(Targets.begin(), Targets.end(), N),
                      Targets.end());
      }
      for (uint32_t T : Targets) {
        ++PA.SStats.NumPropagations;
        bool Changed = false;
        for (const DeltaWord &DW : D)
          Changed |= orWordInto(T, DW.Word, DW.Mask);
        if (Changed)
          push(T);
        else if (!lcdAlreadyChecked(N, T))
          PendingLcd.push_back({N, T});
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Harvest
//===----------------------------------------------------------------------===//

namespace {

size_t hashMix(size_t H, uint64_t V) {
  H ^= V + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
  return H;
}

/// An Andersen representative's final bits, hashed over nonzero words.
struct BitsKey {
  const BitSet *Bits;
  bool empty() const { return Bits->empty(); }
  size_t hash() const {
    size_t H = 0;
    for (size_t W = 0, E = Bits->numWords(); W != E; ++W)
      if (uint64_t Word = Bits->word(W))
        H = hashMix(hashMix(H, W), Word);
    return H;
  }
  bool operator==(const BitsKey &O) const { return *Bits == *O.Bits; }
};

/// A unification representative's sorted cell-class ids.
struct ClassesKey {
  std::vector<uint32_t> Classes;
  bool empty() const { return Classes.empty(); }
  size_t hash() const {
    size_t H = 0;
    for (uint32_t K : Classes)
      H = hashMix(H, K);
    return H;
  }
  bool operator==(const ClassesKey &O) const { return Classes == O.Classes; }
};

} // namespace

/// The one harvest all three engines share: every variable points at an
/// interned vector, materialized once per distinct points-to set, so the
/// many readers of one hub cost one vector rather than a copy each.
/// Variables with the same representative (\p RepOf) reuse its entry
/// without rehashing; an empty set maps to EmptyPts without hashing; any
/// other set is looked up by its key (\p KeyOf of the representative) and
/// built by \p Materialize on first sight.
template <typename KeyT, typename RepFn, typename KeyFn, typename MatFn>
void PointerAnalysis::Solver::harvest(RepFn RepOf, KeyFn KeyOf,
                                      MatFn Materialize) {
  struct Hash {
    size_t operator()(const KeyT &K) const { return K.hash(); }
  };
  std::unordered_map<KeyT, const std::vector<uint32_t> *, Hash> Interned;
  std::vector<const std::vector<uint32_t> *> ByRep(NumNodes, nullptr);
  for (const auto &[V, Id] : VarIds) {
    uint32_t R = RepOf(Id);
    const std::vector<uint32_t> *&Shared = ByRep[R];
    if (!Shared) {
      KeyT K = KeyOf(R);
      if (K.empty()) {
        Shared = &EmptyPts;
      } else {
        auto [It, New] = Interned.try_emplace(std::move(K), nullptr);
        if (New) {
          PA.SharedPts.push_back(std::make_unique<std::vector<uint32_t>>(
              Materialize(It->first)));
          It->second = PA.SharedPts.back().get();
        }
        Shared = It->second;
      }
    }
    if (Shared != &EmptyPts)
      PA.VarPtsShared[V] = Shared;
  }
}

void PointerAnalysis::Solver::run() {
  PA.SStats.Engine = PA.Opts.Solver;
  // An at-entry check makes injected phase exhaustion deterministic even
  // for programs whose worklist never fills.
  if (!charge())
    return;
  buildConstraints();
  PA.SStats.NumConstraints = C.size();
  // Times every return path below (exhaustion included) via the guard's
  // destructor; starts after constraint building so the measurement is
  // the engine-dependent work only.
  struct SolveTimer {
    SolverStatistics &S;
    std::chrono::steady_clock::time_point T0 =
        std::chrono::steady_clock::now();
    ~SolveTimer() {
      S.SolveMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
    }
  } Timer{PA.SStats};

  if (PA.Opts.Solver == SolverKind::Unify) {
    // The unification engine runs over the identical constraint system;
    // its counters fold into this analysis' statistics so downstream
    // consumers (--stats, bench_solver, the Budget regression tests) see
    // one coherent account regardless of engine.
    UnificationSolver U(PA, C, B);
    U.run();
    const SolverStatistics &US = U.stats();
    PA.SStats.NumCopyEdges += US.NumCopyEdges;
    PA.SStats.NumPropagations += US.NumPropagations;
    PA.SStats.NumPops += US.NumPops;
    PA.SStats.NumSkippedMergedPops += US.NumSkippedMergedPops;
    PA.SStats.NumCollapses += US.NumCollapses;
    PA.SStats.NumCollapsedNodes += US.NumCollapsedNodes;
    PA.SStats.NumUnifiedCells += US.NumUnifiedCells;
    PA.SStats.NumBudgetSteps += US.NumBudgetSteps;
    if (U.exhausted()) {
      PA.Exhausted = true;
      return;
    }
    PA.NumNodes = NumNodes;
    // A class set names its locations exactly (classes partition them),
    // so it keys the interning without materializing per variable.
    harvest<ClassesKey>(
        [&](uint32_t Id) { return U.repOf(Id); },
        [&](uint32_t R) { return ClassesKey{U.classesOf(R)}; },
        [&](const ClassesKey &K) { return U.locsOfClasses(K.Classes); });
    return;
  }

  if (PA.Opts.Solver == SolverKind::NaiveReference)
    solveNaive();
  else
    solveOptimized();
  if (PA.Exhausted)
    return;
  PA.NumNodes = NumNodes;
  harvest<BitsKey>(
      [&](uint32_t Id) { return Parent.empty() ? Id : findRep(Id); },
      [&](uint32_t R) { return BitsKey{&Pts[R]}; },
      [&](const BitsKey &K) { return K.Bits->toVector(); });
}

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

PointerAnalysis::PointerAnalysis(Module &M, const CallGraph &CG,
                                 PtaOptions Opts, Budget *B)
    : M(M), CG(CG), Opts(Opts) {
  if (Opts.HeapCloning) {
    detectWrappers();
    createClones();
  }
  numberLocations();
  Solver(*this, B).run();
}

const std::vector<uint32_t> &
PointerAnalysis::pointsTo(const Variable *V) const {
  auto It = VarPtsShared.find(V);
  return It == VarPtsShared.end() ? EmptyPts : *It->second;
}

const std::vector<uint32_t> &
PointerAnalysis::pointsTo(const Operand &Op) const {
  if (Op.isVar())
    return pointsTo(Op.getVar());
  if (Op.isGlobal())
    return GlobalPts[Op.getGlobal()->getId()];
  return EmptyPts;
}
