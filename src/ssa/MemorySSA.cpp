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
#include "support/CSR.h"

#include <algorithm>
#include <bit>
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

uint32_t FunctionSSA::keyIndex(VarKey Key) const {
  if (Key.Sp == Space::TopLevel)
    return Key.Id;
  auto It = std::lower_bound(FormalIn.begin(), FormalIn.end(), Key.Id);
  if (It == FormalIn.end() || *It != Key.Id)
    return ~0u;
  return NumVars + static_cast<uint32_t>(It - FormalIn.begin());
}

const DefDesc &FunctionSSA::defOf(VarKey Key, uint32_t Version) const {
  uint32_t Idx = keyIndex(Key);
  assert(size_t{Idx} + 1 < DefBegin.size() && "variable never materialized");
  assert(Version < DefBegin[Idx + 1] - DefBegin[Idx] &&
         "version out of range");
  return Defs[DefBegin[Idx] + Version];
}

uint32_t FunctionSSA::numVersions(VarKey Key) const {
  uint32_t Idx = keyIndex(Key);
  return size_t{Idx} + 1 < DefBegin.size() ? DefBegin[Idx + 1] - DefBegin[Idx]
                                           : 0;
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

/// Builds each function's SSA form over its kept locations; a mu or chi of
/// any other location is not placed. One builder serves a whole module, so
/// its scratch arrays are allocated once and reused.
///
/// Keys are numbered densely: top-level variables by id, then the kept
/// locations by formalIns() position.
///
/// Every array of the form is sized before it is filled: placeMuChi
/// gathers the annotations in scratch and copies them out, placePhis
/// counts each key's versions (1 + defs + phis) and each phi's operands
/// (its block's edges from reachable blocks), and rename writes versions
/// into those slots.
class FunctionSSA::Builder {
public:
  Builder(const PointerAnalysis &PA, const ModRefAnalysis &MR)
      : PA(PA), MR(MR), LocKey(PA.numLocations(), 0) {}

  /// Builds \p Fn's form for \p P.
  void run(FunctionSSA &Fn, const FunctionPlan &P);

private:
  using KeyBlock = std::pair<uint32_t, const BasicBlock *>;

  void assignKeys();
  void placeMuChi();
  void placeCallMuChi(const CallEffects &Call, const BasicBlock *BB);
  void placePhis();
  void rename();

  bool isKept(uint32_t Loc) const { return LocKey[Loc] != 0; }
  uint32_t memKey(uint32_t Loc) const {
    assert(isKept(Loc) && "location is not a key of this function");
    return LocKey[Loc] - 1;
  }
  uint32_t keyOf(VarKey Var) const {
    return Var.Sp == Space::TopLevel ? Var.Id : memKey(Var.Id);
  }
  VarKey varKey(uint32_t Key) const {
    return Key < NumVars ? VarKey{Space::TopLevel, Key}
                         : VarKey{Space::Memory, S->FormalIn[Key - NumVars]};
  }

  const PointerAnalysis &PA;
  const ModRefAnalysis &MR;
  /// Indexed by location: 1 + its key index while a function that keeps it
  /// is built, else 0.
  std::vector<uint32_t> LocKey;

  // The function being built.
  FunctionSSA *S = nullptr;
  const Function *F = nullptr;
  const FunctionPlan *Plan = nullptr;
  /// Keys below NumVars are top-level, the rest kept locations.
  uint32_t NumVars = 0, NumKeys = 0;

  // Scratch, reused from function to function.
  /// Every def of a key (top-level def or chi) with its block.
  std::vector<KeyBlock> DefEvents;
  /// The same, bucketed by key: key K's are [DefStart[K], DefStart[K+1]).
  std::vector<uint32_t> DefStart;
  std::vector<const BasicBlock *> DefBlocks;
  /// Per block, 1 + the key whose phi placement last marked it.
  std::vector<uint32_t> HasPhi, InWork;
  std::vector<const BasicBlock *> Work;
  /// Phis as (block id, key), in key order.
  std::vector<std::pair<uint32_t, uint32_t>> PhiKeys;
  /// The annotations of the reachable instructions, back to back, and
  /// where each instruction's lists start in them.
  struct InstStart {
    uint32_t Inst, Use, Mu, Chi;
  };
  std::vector<InstStart> Starts;
  std::vector<TLUse> UseBuf;
  std::vector<MemUse> MuBuf;
  std::vector<MemDef> ChiBuf;
  /// Renaming: the current and the last version of each key, the
  /// versions defs replaced (undone as the walk leaves their block), the
  /// next operand slot of each block's phis, and the walk's stack.
  std::vector<uint32_t> Top, LastVersion, NextIn;
  std::vector<std::pair<uint32_t, uint32_t>> Trail;
  struct Frame {
    const BasicBlock *BB;
    uint32_t NextChild;
    uint32_t TrailStart;
  };
  std::vector<Frame> DFS;
};

/// The elements of \p Pool that \p View shows, writable.
template <typename T>
static std::span<T> writable(std::vector<T> &Pool, std::span<const T> View) {
  return {Pool.data() + (View.data() - Pool.data()), View.size()};
}

void FunctionSSA::Builder::assignKeys() {
  S->NumVars = NumVars = static_cast<uint32_t>(F->variables().size());
  const BitSet &Ref = MR.ref(F), &Mod = MR.mod(F), &Kept = Plan->Kept;
  // The kept locations the function reads or modifies.
  size_t NumIn = 0, NumOut = 0;
  for (size_t W = 0, End = Ref.numWords(); W != End; ++W) {
    NumIn += std::popcount((Ref.word(W) | Mod.word(W)) & Kept.word(W));
    NumOut += std::popcount(Mod.word(W) & Kept.word(W));
  }
  S->FormalIn.reserve(NumIn);
  S->FormalOut.reserve(NumOut);
  S->PassedIn.reserve(NumIn);
  for (size_t W = 0, End = Ref.numWords(); W != End; ++W) {
    for (uint64_t Bits = (Ref.word(W) | Mod.word(W)) & Kept.word(W); Bits;
         Bits &= Bits - 1)
      S->FormalIn.push_back(
          static_cast<uint32_t>(W * 64 + std::countr_zero(Bits)));
    for (uint64_t Bits = Mod.word(W) & Kept.word(W); Bits; Bits &= Bits - 1)
      S->FormalOut.push_back(
          static_cast<uint32_t>(W * 64 + std::countr_zero(Bits)));
  }
  NumKeys = NumVars + static_cast<uint32_t>(S->FormalIn.size());
  uint32_t Key = NumVars;
  for (uint32_t Loc : S->FormalIn) {
    LocKey[Loc] = ++Key;
    S->PassedIn.push_back(Plan->Passed.test(Loc));
  }
}

void FunctionSSA::Builder::placeCallMuChi(const CallEffects &Call,
                                          const BasicBlock *BB) {
  // Reads feed the callee's virtual input parameters; writes become chis
  // whose old version doubles as the input for mod-only locations. Clone
  // locations are "allocated" here and take no input at all. Every mu and
  // chi reads the version before the call: a chi's old version is either
  // such an input or the merge operand of a clone allocation. Locations
  // the function does not keep get neither.
  Call.Mus->forEach([&](size_t L) {
    uint32_t Loc = static_cast<uint32_t>(L);
    if (isKept(Loc) && !(Call.Clones && Call.Clones->test(Loc)))
      MuBuf.push_back({Loc, 0});
  });
  Call.Chis->forEach([&](size_t L) {
    uint32_t Loc = static_cast<uint32_t>(L);
    if (!isKept(Loc))
      return;
    DefEvents.push_back({memKey(Loc), BB});
    ChiKind Kind = Call.Clones && Call.Clones->test(Loc) ? ChiKind::CloneAlloc
                                                         : ChiKind::CallMod;
    ChiBuf.push_back({Loc, 0, 0, Kind});
  });
}

void FunctionSSA::Builder::placeMuChi() {
  Starts.clear();
  UseBuf.clear();
  MuBuf.clear();
  ChiBuf.clear();
  auto Call = Plan->Calls.begin();
  for (const auto &BB : F->blocks()) {
    if (!S->CFG.isReachable(BB->getId()))
      continue;
    for (const auto &I : BB->instructions()) {
      Starts.push_back({I->getId() - S->FirstInst,
                        static_cast<uint32_t>(UseBuf.size()),
                        static_cast<uint32_t>(MuBuf.size()),
                        static_cast<uint32_t>(ChiBuf.size())});
      // The distinct top-level variables read, by id; rename fills in
      // their versions.
      const size_t FirstUse = UseBuf.size();
      I->forEachUsedVar([&](Variable *V) { UseBuf.push_back({V, 0}); });
      std::sort(UseBuf.begin() + FirstUse, UseBuf.end(),
                [](const TLUse &A, const TLUse &B) {
                  return A.Var->getId() < B.Var->getId();
                });
      UseBuf.erase(std::unique(UseBuf.begin() + FirstUse, UseBuf.end(),
                               [](const TLUse &A, const TLUse &B) {
                                 return A.Var == B.Var;
                               }),
                   UseBuf.end());

      if (const Variable *Def = I->getDef())
        DefEvents.push_back({Def->getId(), BB.get()});
      if (const auto *Ld = dyn_cast<LoadInst>(I.get())) {
        for (uint32_t Loc : PA.pointsTo(Ld->getPtr())) {
          assert(isKept(Loc) && "a load reads a dropped location");
          MuBuf.push_back({Loc, 0});
        }
      } else if (const auto *St = dyn_cast<StoreInst>(I.get())) {
        for (uint32_t Loc : PA.pointsTo(St->getPtr())) {
          DefEvents.push_back({memKey(Loc), BB.get()});
          ChiBuf.push_back({Loc, 0, 0, ChiKind::Store});
        }
      } else if (const auto *A = dyn_cast<AllocInst>(I.get())) {
        for (unsigned Loc : PA.locsOfObject(A->getObject())) {
          if (!isKept(Loc))
            continue;
          DefEvents.push_back({memKey(Loc), BB.get()});
          ChiBuf.push_back({Loc, 0, 0, ChiKind::Alloc});
        }
      } else if (isa<CallInst>(I.get())) {
        assert(Call != Plan->Calls.end() && Call->Call == I.get() &&
               "call sites out of step");
        placeCallMuChi(*Call++, BB.get());
      } else if (isa<RetInst>(I.get())) {
        // Virtual output parameters are read at every return.
        for (uint32_t Loc : S->FormalOut)
          MuBuf.push_back({Loc, 0});
      }
    }
  }
  Starts.push_back({0, static_cast<uint32_t>(UseBuf.size()),
                    static_cast<uint32_t>(MuBuf.size()),
                    static_cast<uint32_t>(ChiBuf.size())});

  S->Uses.assign(UseBuf.begin(), UseBuf.end());
  S->Mus.assign(MuBuf.begin(), MuBuf.end());
  S->Chis.assign(ChiBuf.begin(), ChiBuf.end());
  for (size_t Idx = 0; Idx + 1 != Starts.size(); ++Idx) {
    const InstStart &Cur = Starts[Idx], &Next = Starts[Idx + 1];
    InstSSA &Info = S->Insts[Cur.Inst];
    Info.TLUses = {S->Uses.data() + Cur.Use, Next.Use - Cur.Use};
    Info.Mus = {S->Mus.data() + Cur.Mu, Next.Mu - Cur.Mu};
    Info.Chis = {S->Chis.data() + Cur.Chi, Next.Chi - Cur.Chi};
  }
}

void FunctionSSA::Builder::placePhis() {
  fillCSR(
      NumKeys,
      [&](auto &&Emit) {
        for (const auto &[Key, BB] : DefEvents)
          Emit(Key, BB);
      },
      DefStart, DefBlocks);

  // Iterated dominance frontier of each key's def blocks; the entry
  // defines version 0 of every key. Each key's version count is 1 + its
  // defs + its phis.
  analysis::DominanceFrontier DF(S->DT);
  const size_t NumBlocks = F->blocks().size();
  HasPhi.assign(NumBlocks, 0);
  InWork.assign(NumBlocks, 0);
  PhiKeys.clear();
  S->DefBegin.assign(NumKeys + 1, 0);
  for (uint32_t Key = 0; Key != NumKeys; ++Key) {
    const uint32_t Stamp = Key + 1;
    auto Push = [&](const BasicBlock *BB) {
      if (InWork[BB->getId()] != Stamp) {
        InWork[BB->getId()] = Stamp;
        Work.push_back(BB);
      }
    };
    Push(F->getEntry());
    for (uint32_t Idx = DefStart[Key]; Idx != DefStart[Key + 1]; ++Idx)
      Push(DefBlocks[Idx]);
    const size_t FirstPhi = PhiKeys.size();
    while (!Work.empty()) {
      const BasicBlock *BB = Work.back();
      Work.pop_back();
      for (const BasicBlock *Frontier : DF.frontier(BB)) {
        if (HasPhi[Frontier->getId()] == Stamp)
          continue;
        HasPhi[Frontier->getId()] = Stamp;
        PhiKeys.push_back({Frontier->getId(), Key});
        Push(Frontier);
      }
    }
    S->DefBegin[Key + 1] = 1 + (DefStart[Key + 1] - DefStart[Key]) +
                           static_cast<uint32_t>(PhiKeys.size() - FirstPhi);
  }
  for (uint32_t Key = 0; Key != NumKeys; ++Key)
    S->DefBegin[Key + 1] += S->DefBegin[Key];
  S->Defs.resize(S->DefBegin[NumKeys]);

  // Phis by block, keys in order within a block; then one operand slot per
  // edge from a reachable block.
  fillCSR(
      static_cast<uint32_t>(NumBlocks),
      [&](auto &&Emit) {
        for (const auto &[Block, Key] : PhiKeys)
          Emit(Block, PhiNode{varKey(Key), 0, {}});
      },
      S->PhiBegin, S->Phis);
  auto NumIncoming = [&](uint32_t Block) {
    uint32_t N = 0;
    for (const BasicBlock *Pred : S->CFG.predecessors(Block))
      N += S->CFG.isReachable(Pred->getId());
    return N;
  };
  size_t Total = 0;
  for (uint32_t Block = 0; Block != NumBlocks; ++Block)
    Total += size_t{NumIncoming(Block)} *
             (S->PhiBegin[Block + 1] - S->PhiBegin[Block]);
  S->Incoming.resize(Total);
  auto *Slot = S->Incoming.data();
  for (uint32_t Block = 0; Block != NumBlocks; ++Block) {
    const uint32_t N = NumIncoming(Block);
    for (uint32_t Idx = S->PhiBegin[Block]; Idx != S->PhiBegin[Block + 1];
         ++Idx, Slot += N)
      S->Phis[Idx].Incoming = {Slot, N};
  }
}

void FunctionSSA::Builder::rename() {
  // Top is the current version of each key; Trail records the
  // version each def replaced, undone when the dominator-tree walk leaves
  // its block. Version V of key K is defined at Defs[DefBegin[K] + V]
  // (version 0, Entry, is already there).
  Top.assign(NumKeys, 0);
  LastVersion.assign(NumKeys, 0);
  NextIn.assign(F->blocks().size(), 0);
  Trail.clear();
  auto Define = [&](uint32_t Key, DefDesc Desc) {
    const uint32_t Version = ++LastVersion[Key];
    S->Defs[S->DefBegin[Key] + Version] = Desc;
    Trail.push_back({Key, Top[Key]});
    return Top[Key] = Version;
  };

  auto ProcessBlock = [&](const BasicBlock *BB) {
    // Phis assign their results first.
    PhiNode *Phis = S->Phis.data() + S->PhiBegin[BB->getId()];
    const uint32_t NumPhis =
        S->PhiBegin[BB->getId() + 1] - S->PhiBegin[BB->getId()];
    for (uint32_t Idx = 0; Idx != NumPhis; ++Idx)
      Phis[Idx].ResultVersion = Define(
          keyOf(Phis[Idx].Var), DefDesc{DefDesc::Kind::Phi, nullptr, BB, Idx});

    for (const auto &I : BB->instructions()) {
      InstSSA &Info = S->Insts[I->getId() - S->FirstInst];

      // Uses (top-level, then mus) read the current versions.
      for (TLUse &Use : writable(S->Uses, Info.TLUses))
        Use.Version = Top[Use.Var->getId()];
      for (MemUse &Mu : writable(S->Mus, Info.Mus))
        Mu.Version = Top[memKey(Mu.Loc)];

      // Defs create fresh versions.
      if (const Variable *Def = I->getDef())
        Info.TLDefVersion = Define(
            Def->getId(), DefDesc{DefDesc::Kind::Inst, I.get(), nullptr, 0});
      const std::span<MemDef> Chis = writable(S->Chis, Info.Chis);
      for (uint32_t Idx = 0; Idx != Chis.size(); ++Idx) {
        MemDef &Chi = Chis[Idx];
        uint32_t Key = memKey(Chi.Loc);
        Chi.OldVersion = Top[Key];
        Chi.NewVersion =
            Define(Key, DefDesc{DefDesc::Kind::Inst, I.get(), nullptr, Idx});
      }
    }

    // Feed phi operands of CFG successors.
    for (const BasicBlock *Succ : S->CFG.successors(BB->getId())) {
      const uint32_t Slot = NextIn[Succ->getId()]++;
      for (const PhiNode &Phi : S->phisIn(Succ))
        writable(S->Incoming, Phi.Incoming)[Slot] = {BB, Top[keyOf(Phi.Var)]};
    }
  };

  DFS.clear();
  const BasicBlock *Entry = F->getEntry();
  DFS.push_back({Entry, 0, 0});
  ProcessBlock(Entry);
  while (!DFS.empty()) {
    Frame &Cur = DFS.back();
    const auto Kids = S->DT.children(Cur.BB);
    if (Cur.NextChild < Kids.size()) {
      const BasicBlock *Child = Kids[Cur.NextChild++];
      DFS.push_back({Child, 0, static_cast<uint32_t>(Trail.size())});
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

void FunctionSSA::Builder::run(FunctionSSA &Fn, const FunctionPlan &P) {
  S = &Fn;
  F = &Fn.F;
  Plan = &P;
  DefEvents.clear();
  size_t NumInsts = 0;
  for (const auto &BB : F->blocks()) {
    if (NumInsts == 0 && !BB->instructions().empty())
      S->FirstInst = BB->instructions().front()->getId();
    NumInsts += BB->instructions().size();
  }
  S->Insts.resize(NumInsts);

  assignKeys();
  placeMuChi();
  placePhis();
  rename();
  for (uint32_t Loc : S->FormalIn)
    LocKey[Loc] = 0;
}

//===----------------------------------------------------------------------===//
// MemorySSA
//===----------------------------------------------------------------------===//

MemorySSA::MemorySSA(const Module &M, const PointerAnalysis &PA,
                     const ModRefAnalysis &MR, ThreadPool *)
    : MemorySSA(M, PA, MR, /*Prune=*/true) {}

MemorySSA MemorySSA::unpruned(const Module &M, const PointerAnalysis &PA,
                              const ModRefAnalysis &MR) {
  return MemorySSA(M, PA, MR, /*Prune=*/false);
}

MemorySSA::MemorySSA(const Module &M, const PointerAnalysis &PA,
                     const ModRefAnalysis &MR, bool Prune) {
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
    if (!Prune)
      Plan.Kept.unionWith(MR.mod(F.get()));
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

  // Unless unpruned, grow the kept sets K, with E the kept locations whose
  // version 0 some load may read. K starts as what the function reads or a
  // reachable store in it writes, E as what it reads. At a call F -> G:
  //  - down: a location F keeps and the call defines is kept and read on
  //    entry in G, whose returns give the chi its value;
  //  - up: a location G reads on entry that the call reads or defines is
  //    kept and read on entry in F, whose version at the call feeds G.
  std::vector<BitSet> Entry(NumFns);
  for (const auto &F : M.functions())
    Entry[F->getId()] = MR.ref(F.get());
  for (bool Changed = Prune; Changed;) {
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

  // Build each function, numbering its versions after the previous one's.
  FunctionSSA::Builder B(PA, MR);
  for (const auto &F : M.functions()) {
    FunctionSSA &S = *Funcs[F->getId()];
    B.run(S, Plans[F->getId()]);
    const uint32_t FirstMem = S.DefBegin[S.NumVars];
    S.TLBase = NumTL;
    S.MemBase = static_cast<uint32_t>(NumPlaced) - FirstMem;
    NumTL += FirstMem;
    NumPlaced += S.Defs.size() - FirstMem;
  }
}
