//===- ssa/MemorySSA.cpp - Memory SSA construction -------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "ssa/MemorySSA.h"

#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "support/BitSet.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace usher;
using namespace usher::ssa;
using namespace usher::ir;
using analysis::ModRefAnalysis;
using analysis::PointerAnalysis;

const InstSSA *FunctionSSA::instInfo(const Instruction *I) const {
  assert(I->getParent()->getParent() == &F && "instruction of another fn");
  if (!CFG.isReachable(I->getParent()->getId()))
    return nullptr;
  return &Insts[I->getId() - FirstInst];
}

const std::vector<PhiNode> &FunctionSSA::phisIn(const BasicBlock *BB) const {
  return Phis[BB->getId()];
}

uint32_t FunctionSSA::keyIndex(VarKey Key) const {
  if (Key.Sp == Space::TopLevel)
    return Key.Id;
  auto It = std::lower_bound(FormalIn.begin(), FormalIn.end(), Key.Id);
  if (It == FormalIn.end() || *It != Key.Id)
    return ~0u;
  return static_cast<uint32_t>(F.variables().size() + (It - FormalIn.begin()));
}

const DefDesc &FunctionSSA::defOf(VarKey Key, uint32_t Version) const {
  uint32_t Idx = keyIndex(Key);
  assert(Idx < Defs.size() && "variable never materialized");
  assert(Version < Defs[Idx].size() && "version out of range");
  return Defs[Idx][Version];
}

uint32_t FunctionSSA::numVersions(VarKey Key) const {
  uint32_t Idx = keyIndex(Key);
  return Idx < Defs.size() ? static_cast<uint32_t>(Defs[Idx].size()) : 0;
}

FunctionSSA::FunctionSSA(const Function &F) : F(F), CFG(F), DT(CFG) {}

const FunctionSSA &MemorySSA::get(const Function *F) const {
  return *Funcs[F->getId()];
}

namespace {

/// What one reachable call site reads and writes on its callee's behalf:
/// the locations its mus read, those its chis define and, at a call of an
/// allocation wrapper, the clone locations it allocates (null elsewhere).
struct CallEffects {
  const CallInst *Call;
  const BitSet *Mus, *Chis, *Clones;
};

/// Per function: the locations it versions, the ones some caller hands
/// it, and its reachable call sites in block order.
struct FunctionPlan {
  BitSet Kept, Passed;
  std::vector<CallEffects> Calls;
};

} // namespace

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

/// Builds one function's SSA form over its kept locations, and counts the
/// versions its other locations would have had.
///
/// Keys are numbered densely: top-level variables by id, then the kept
/// locations by formalIns() position, then the dropped locations (those
/// the function may read or modify but does not keep).
class FunctionSSA::Builder {
public:
  Builder(FunctionSSA &S, const PointerAnalysis &PA, const ModRefAnalysis &MR,
          const FunctionPlan &Plan, std::vector<uint32_t> &LocKey)
      : S(S), F(S.F), PA(PA), MR(MR), Plan(Plan), LocKey(LocKey) {}

  /// Returns the number of dropped versions.
  uint64_t run();

private:
  using KeyBlock = std::pair<uint32_t, const BasicBlock *>;

  void assignKeys();
  void placeMuChi();
  void placeCallMuChi(const CallEffects &Call, const BasicBlock *BB,
                      InstSSA &Info);
  void placePhis();
  bool entryVersionRead(uint32_t Key);
  void rename();

  uint32_t memKey(uint32_t Loc) const {
    assert(LocKey[Loc] && "location is not a key of this function");
    return LocKey[Loc] - 1;
  }
  bool isKept(uint32_t Key) const { return Key < NumKept; }
  VarKey varKey(uint32_t Key) const {
    return Key < NumVars ? VarKey{Space::TopLevel, Key}
                         : VarKey{Space::Memory, S.FormalIn[Key - NumVars]};
  }

  FunctionSSA &S;
  const Function &F;
  const PointerAnalysis &PA;
  const ModRefAnalysis &MR;
  const FunctionPlan &Plan;
  /// Indexed by location: 1 + its key index while this function is built,
  /// else 0. Shared by all functions of the module.
  std::vector<uint32_t> &LocKey;

  /// Keys below NumVars are top-level, below NumKept versioned.
  uint32_t NumVars = 0, NumKept = 0, NumKeys = 0;
  std::vector<uint32_t> Dropped;
  /// Every def of a key (top-level def or chi) with its block, and every
  /// block in which a call or allocation reads a dropped key.
  std::vector<KeyBlock> DefEvents, DroppedReads;
  /// The same, bucketed by key: key K's entries are [Start[K], Start[K+1]).
  std::vector<uint32_t> DefStart, ReadStart;
  std::vector<const BasicBlock *> DefBlocks, ReadBlocks;

  /// Per block, 1 + the key whose phi placement last marked it.
  std::vector<uint32_t> HasPhi, InWork, IsDef;
  std::vector<const BasicBlock *> PhiBlocks;
  uint64_t NumDropped = 0;
};

void FunctionSSA::Builder::assignKeys() {
  NumVars = static_cast<uint32_t>(F.variables().size());
  BitSet Touched = MR.ref(&F);
  Touched.unionWith(MR.mod(&F));
  const BitSet &Kept = Plan.Kept;
  Touched.forEach([&](size_t Loc) {
    if (Kept.test(Loc))
      S.FormalIn.push_back(static_cast<uint32_t>(Loc));
    else
      Dropped.push_back(static_cast<uint32_t>(Loc));
  });
  MR.mod(&F).forEach([&](size_t Loc) {
    if (Kept.test(Loc))
      S.FormalOut.push_back(static_cast<uint32_t>(Loc));
  });
  NumKept = NumVars + static_cast<uint32_t>(S.FormalIn.size());
  NumKeys = NumKept + static_cast<uint32_t>(Dropped.size());
  uint32_t Key = NumVars;
  S.PassedIn.reserve(S.FormalIn.size());
  for (uint32_t Loc : S.FormalIn) {
    LocKey[Loc] = ++Key;
    S.PassedIn.push_back(Plan.Passed.test(Loc));
  }
  for (uint32_t Loc : Dropped)
    LocKey[Loc] = ++Key;
}

void FunctionSSA::Builder::placeCallMuChi(const CallEffects &Call,
                                          const BasicBlock *BB,
                                          InstSSA &Info) {
  // Reads feed the callee's virtual input parameters; writes become chis
  // whose old version doubles as the input for mod-only locations. Clone
  // locations are "allocated" here and take no input at all. Every mu and
  // chi reads the version before the call: a chi's old version is either
  // such an input or the merge operand of a clone allocation.
  Call.Mus->forEach([&](size_t L) {
    uint32_t Loc = static_cast<uint32_t>(L);
    if (Call.Clones && Call.Clones->test(Loc))
      return;
    uint32_t Key = memKey(Loc);
    if (isKept(Key))
      Info.Mus.push_back({Loc, 0});
    else
      DroppedReads.push_back({Key, BB});
  });
  Call.Chis->forEach([&](size_t L) {
    uint32_t Loc = static_cast<uint32_t>(L);
    uint32_t Key = memKey(Loc);
    DefEvents.push_back({Key, BB});
    if (!isKept(Key)) {
      DroppedReads.push_back({Key, BB});
      return;
    }
    ChiKind Kind = Call.Clones && Call.Clones->test(Loc) ? ChiKind::CloneAlloc
                                                         : ChiKind::CallMod;
    Info.Chis.push_back({Loc, 0, 0, Kind});
  });
}

void FunctionSSA::Builder::placeMuChi() {
  auto Call = Plan.Calls.begin();
  for (const auto &BB : F.blocks()) {
    if (!S.CFG.isReachable(BB->getId()))
      continue;
    for (const auto &I : BB->instructions()) {
      InstSSA &Info = S.Insts[I->getId() - S.FirstInst];
      if (const Variable *Def = I->getDef())
        DefEvents.push_back({Def->getId(), BB.get()});
      if (const auto *Ld = dyn_cast<LoadInst>(I.get())) {
        for (uint32_t Loc : PA.pointsTo(Ld->getPtr())) {
          assert(isKept(memKey(Loc)) && "a load reads a dropped location");
          Info.Mus.push_back({Loc, 0});
        }
      } else if (const auto *St = dyn_cast<StoreInst>(I.get())) {
        for (uint32_t Loc : PA.pointsTo(St->getPtr())) {
          assert(isKept(memKey(Loc)) && "a store writes a dropped location");
          DefEvents.push_back({memKey(Loc), BB.get()});
          Info.Chis.push_back({Loc, 0, 0, ChiKind::Store});
        }
      } else if (const auto *A = dyn_cast<AllocInst>(I.get())) {
        for (unsigned Loc : PA.locsOfObject(A->getObject())) {
          uint32_t Key = memKey(Loc);
          DefEvents.push_back({Key, BB.get()});
          if (isKept(Key))
            Info.Chis.push_back({Loc, 0, 0, ChiKind::Alloc});
          else
            DroppedReads.push_back({Key, BB.get()});
        }
      } else if (isa<CallInst>(I.get())) {
        assert(Call != Plan.Calls.end() && Call->Call == I.get() &&
               "call sites out of step");
        placeCallMuChi(*Call++, BB.get(), Info);
      } else if (isa<RetInst>(I.get())) {
        // Virtual output parameters are read at every return.
        for (uint32_t Loc : S.FormalOut)
          Info.Mus.push_back({Loc, 0});
      }
    }
  }
}

/// Buckets \p Events by key into \p Start / \p Blocks.
static void bucketByKey(
    const std::vector<std::pair<uint32_t, const BasicBlock *>> &Events,
    uint32_t NumKeys, std::vector<uint32_t> &Start,
    std::vector<const BasicBlock *> &Blocks) {
  Start.assign(NumKeys + 1, 0);
  for (const auto &[Key, BB] : Events)
    ++Start[Key + 1];
  for (uint32_t K = 0; K != NumKeys; ++K)
    Start[K + 1] += Start[K];
  Blocks.resize(Events.size());
  std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
  for (const auto &[Key, BB] : Events)
    Blocks[Fill[Key]++] = BB;
}

bool FunctionSSA::Builder::entryVersionRead(uint32_t Key) {
  if (Plan.Passed.test(Dropped[Key - NumKept]))
    return true; // A caller hands it in.
  // Otherwise some block must read it: one where a call or allocation
  // reads the location before any chi in the block, or a phi's
  // predecessor, and version 0 must reach that point.
  const uint32_t Stamp = Key + 1;
  for (uint32_t Idx = DefStart[Key]; Idx != DefStart[Key + 1]; ++Idx)
    IsDef[DefBlocks[Idx]->getId()] = Stamp;
  auto EntryReaches = [&](const BasicBlock *BB) {
    if (HasPhi[BB->getId()] == Stamp)
      return false;
    for (const BasicBlock *Dom = S.DT.idom(BB); Dom; Dom = S.DT.idom(Dom))
      if (IsDef[Dom->getId()] == Stamp || HasPhi[Dom->getId()] == Stamp)
        return false;
    return true;
  };
  for (uint32_t Idx = ReadStart[Key]; Idx != ReadStart[Key + 1]; ++Idx)
    if (EntryReaches(ReadBlocks[Idx]))
      return true;
  for (const BasicBlock *Join : PhiBlocks)
    for (const BasicBlock *Pred : S.CFG.predecessors(Join->getId()))
      if (S.CFG.isReachable(Pred->getId()) &&
          IsDef[Pred->getId()] != Stamp && EntryReaches(Pred))
        return true;
  return false;
}

void FunctionSSA::Builder::placePhis() {
  bucketByKey(DefEvents, NumKeys, DefStart, DefBlocks);
  bucketByKey(DroppedReads, NumKeys, ReadStart, ReadBlocks);

  // Iterated dominance frontier of each key's def blocks; the entry
  // defines version 0 of every key. A dropped key's phis are only
  // counted.
  analysis::DominanceFrontier DF(S.DT);
  const size_t NumBlocks = F.blocks().size();
  HasPhi.assign(NumBlocks, 0);
  InWork.assign(NumBlocks, 0);
  IsDef.assign(NumBlocks, 0);
  S.Phis.resize(NumBlocks);
  std::vector<const BasicBlock *> Work;
  for (uint32_t Key = 0; Key != NumKeys; ++Key) {
    const uint32_t Stamp = Key + 1;
    auto Push = [&](const BasicBlock *BB) {
      if (InWork[BB->getId()] != Stamp) {
        InWork[BB->getId()] = Stamp;
        Work.push_back(BB);
      }
    };
    Push(F.getEntry());
    for (uint32_t Idx = DefStart[Key]; Idx != DefStart[Key + 1]; ++Idx)
      Push(DefBlocks[Idx]);
    PhiBlocks.clear();
    while (!Work.empty()) {
      const BasicBlock *BB = Work.back();
      Work.pop_back();
      for (const BasicBlock *Frontier : DF.frontier(BB)) {
        if (HasPhi[Frontier->getId()] == Stamp)
          continue;
        HasPhi[Frontier->getId()] = Stamp;
        if (isKept(Key))
          S.Phis[Frontier->getId()].push_back({varKey(Key), 0, {}});
        else
          PhiBlocks.push_back(Frontier);
        Push(Frontier);
      }
    }
    if (!isKept(Key))
      NumDropped += DefStart[Key + 1] - DefStart[Key] + PhiBlocks.size() +
                    entryVersionRead(Key);
  }
}

void FunctionSSA::Builder::rename() {
  // The current version of each kept key; Trail records the version each
  // def replaced, undone when the dominator-tree walk leaves its block.
  std::vector<uint32_t> Top(NumKept, 0);
  std::vector<std::pair<uint32_t, uint32_t>> Trail;
  S.Defs.resize(NumKept);
  for (auto &Descs : S.Defs)
    Descs.push_back(DefDesc{DefDesc::Kind::Entry, nullptr, nullptr, 0});
  auto Define = [&](uint32_t Key, DefDesc Desc) {
    auto &Descs = S.Defs[Key];
    Descs.push_back(Desc);
    Trail.push_back({Key, Top[Key]});
    return Top[Key] = static_cast<uint32_t>(Descs.size() - 1);
  };
  auto KeyOf = [&](VarKey Var) {
    return Var.Sp == Space::TopLevel ? Var.Id : memKey(Var.Id);
  };

  std::vector<Variable *> Used;
  auto ProcessBlock = [&](const BasicBlock *BB) {
    // Phis assign their results first.
    std::vector<PhiNode> &Phis = S.Phis[BB->getId()];
    for (size_t Idx = 0; Idx != Phis.size(); ++Idx)
      Phis[Idx].ResultVersion =
          Define(KeyOf(Phis[Idx].Var),
                 DefDesc{DefDesc::Kind::Phi, nullptr, BB,
                         static_cast<uint32_t>(Idx)});

    for (const auto &I : BB->instructions()) {
      InstSSA &Info = S.Insts[I->getId() - S.FirstInst];

      // Uses (top-level, then mus) read the current versions.
      Used.clear();
      I->forEachUsedVar([&](Variable *V) { Used.push_back(V); });
      std::sort(Used.begin(), Used.end(),
                [](const Variable *A, const Variable *B) {
                  return A->getId() < B->getId();
                });
      Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
      for (const Variable *V : Used)
        Info.TLUses.push_back({V, Top[V->getId()]});
      for (MemUse &Mu : Info.Mus)
        Mu.Version = Top[memKey(Mu.Loc)];

      // Defs create fresh versions.
      if (const Variable *Def = I->getDef())
        Info.TLDefVersion = Define(
            Def->getId(), DefDesc{DefDesc::Kind::Inst, I.get(), nullptr, 0});
      for (size_t Idx = 0; Idx != Info.Chis.size(); ++Idx) {
        MemDef &Chi = Info.Chis[Idx];
        uint32_t Key = memKey(Chi.Loc);
        Chi.OldVersion = Top[Key];
        Chi.NewVersion =
            Define(Key, DefDesc{DefDesc::Kind::Inst, I.get(), nullptr,
                                static_cast<uint32_t>(Idx)});
      }
    }

    // Feed phi operands of CFG successors.
    for (const BasicBlock *Succ : S.CFG.successors(BB->getId()))
      for (PhiNode &Phi : S.Phis[Succ->getId()])
        Phi.Incoming.push_back({BB, Top[KeyOf(Phi.Var)]});
  };

  struct Frame {
    const BasicBlock *BB;
    size_t NextChild;
    size_t TrailStart;
  };
  std::vector<Frame> DFS;
  const BasicBlock *Entry = F.getEntry();
  DFS.push_back({Entry, 0, Trail.size()});
  ProcessBlock(Entry);
  while (!DFS.empty()) {
    Frame &Cur = DFS.back();
    const auto &Kids = S.DT.children(Cur.BB);
    if (Cur.NextChild < Kids.size()) {
      const BasicBlock *Child = Kids[Cur.NextChild++];
      DFS.push_back({Child, 0, Trail.size()});
      ProcessBlock(Child);
      continue;
    }
    // Undo this frame's defs.
    while (Trail.size() > Cur.TrailStart) {
      Top[Trail.back().first] = Trail.back().second;
      Trail.pop_back();
    }
    DFS.pop_back();
  }
}

uint64_t FunctionSSA::Builder::run() {
  size_t NumInsts = 0;
  for (const auto &BB : F.blocks()) {
    if (NumInsts == 0 && !BB->instructions().empty())
      S.FirstInst = BB->instructions().front()->getId();
    NumInsts += BB->instructions().size();
  }
  S.Insts.resize(NumInsts);

  assignKeys();
  placeMuChi();
  placePhis();
  rename();
  for (uint32_t Loc : S.FormalIn)
    LocKey[Loc] = 0;
  for (uint32_t Loc : Dropped)
    LocKey[Loc] = 0;
  return NumDropped;
}

//===----------------------------------------------------------------------===//
// MemorySSA
//===----------------------------------------------------------------------===//

MemorySSA::MemorySSA(const Module &M, const PointerAnalysis &PA,
                     const ModRefAnalysis &MR, ThreadPool *) {
  size_t NumFns = 0;
  for (const auto &F : M.functions())
    NumFns = std::max<size_t>(NumFns, F->getId() + 1);
  Funcs.resize(NumFns);
  const size_t NumLocs = PA.numLocations();

  // Each function's reachable stores and call sites. A wrapper call's
  // mod/ref sets substitute its clones, so they are its own.
  std::vector<FunctionPlan> Plans(NumFns);
  std::deque<BitSet> WrapperSets;
  for (const auto &F : M.functions()) {
    Funcs[F->getId()].reset(new FunctionSSA(*F));
    const analysis::CFGInfo &CFG = Funcs[F->getId()]->CFG;
    FunctionPlan &Plan = Plans[F->getId()];
    Plan.Kept = MR.ref(F.get());
    Plan.Passed.resize(NumLocs);
    for (const auto &BB : F->blocks()) {
      if (!CFG.isReachable(BB->getId()))
        continue;
      for (const auto &I : BB->instructions()) {
        if (const auto *St = dyn_cast<StoreInst>(I.get())) {
          for (uint32_t Loc : PA.pointsTo(St->getPtr()))
            Plan.Kept.set(Loc);
        } else if (const auto *Call = dyn_cast<CallInst>(I.get())) {
          const Function *Callee = Call->getCallee();
          CallEffects E{Call, &MR.ref(Callee), &MR.mod(Callee), nullptr};
          if (!PA.clonesAt(Call).empty()) {
            E.Mus = &WrapperSets.emplace_back(MR.refAt(Call));
            E.Chis = &WrapperSets.emplace_back(MR.modAt(Call));
            BitSet &Clones = WrapperSets.emplace_back(NumLocs);
            for (const MemObject *Clone : PA.clonesAt(Call))
              for (unsigned Loc : PA.locsOfObject(Clone))
                Clones.set(Loc);
            E.Clones = &Clones;
          }
          Plan.Calls.push_back(E);
        }
      }
    }
  }

  // A caller hands the callee every location its mus read or its chis
  // define that the callee may read or modify.
  for (const FunctionPlan &Caller : Plans)
    for (const CallEffects &E : Caller.Calls) {
      const Function *Callee = E.Call->getCallee();
      BitSet &Passed = Plans[Callee->getId()].Passed;
      const BitSet &Ref = MR.ref(Callee), &Mod = MR.mod(Callee);
      for (size_t W = 0, End = Passed.numWords(); W != End; ++W) {
        uint64_t Mus = E.Mus->word(W);
        if (E.Clones)
          Mus &= ~E.Clones->word(W);
        Passed.orWord(W, (Mus | E.Chis->word(W)) & (Ref.word(W) | Mod.word(W)));
      }
    }

  // The kept sets K, with E the kept locations whose version 0 some load
  // may read. K starts as what the function reads or a reachable store in
  // it writes, E as what it reads. At a call F -> G:
  //  - down: a location F keeps and the call defines is kept and read on
  //    entry in G, whose returns give the chi its value;
  //  - up: a location G reads on entry that the call reads or defines is
  //    kept and read on entry in F, whose version at the call feeds G.
  std::vector<BitSet> Entry(NumFns);
  for (const auto &F : M.functions())
    Entry[F->getId()] = MR.ref(F.get());
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &F : M.functions()) {
      FunctionPlan &Caller = Plans[F->getId()];
      BitSet &CallerEntry = Entry[F->getId()];
      for (const CallEffects &E : Caller.Calls) {
        const Function *Callee = E.Call->getCallee();
        FunctionPlan &CalleePlan = Plans[Callee->getId()];
        BitSet &CalleeEntry = Entry[Callee->getId()];
        const BitSet &Ref = MR.ref(Callee), &Mod = MR.mod(Callee);
        for (size_t W = 0, End = CallerEntry.numWords(); W != End; ++W) {
          uint64_t Down = E.Chis->word(W) & Caller.Kept.word(W) &
                          (Ref.word(W) | Mod.word(W));
          uint64_t Up = (E.Mus->word(W) | E.Chis->word(W)) &
                        CalleeEntry.word(W);
          if (Down & ~CalleeEntry.word(W)) {
            CalleePlan.Kept.orWord(W, Down);
            CalleeEntry.orWord(W, Down);
            Changed = true;
          }
          if (Up & ~CallerEntry.word(W)) {
            Caller.Kept.orWord(W, Up);
            CallerEntry.orWord(W, Up);
            Changed = true;
          }
        }
      }
    }
  }
  Entry.clear();

  std::vector<uint32_t> LocKey(NumLocs, 0);
  for (const auto &F : M.functions()) {
    FunctionSSA &S = *Funcs[F->getId()];
    NumDropped +=
        FunctionSSA::Builder(S, PA, MR, Plans[F->getId()], LocKey).run();
    for (const uint32_t Loc : S.FormalIn)
      NumPlaced += S.numVersions({Space::Memory, Loc});
  }
}
