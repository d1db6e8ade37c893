//===- ssa/MemorySSA.cpp - Memory SSA construction -------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "ssa/MemorySSA.h"

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace usher;
using namespace usher::ssa;
using namespace usher::ir;
using analysis::ModRefAnalysis;
using analysis::PointerAnalysis;

const std::vector<PhiNode> FunctionSSA::EmptyPhis;

const std::vector<PhiNode> &FunctionSSA::phisIn(const BasicBlock *BB) const {
  auto It = Phis.find(BB);
  return It == Phis.end() ? EmptyPhis : It->second;
}

const DefDesc &FunctionSSA::defOf(VarKey Key, uint32_t Version) const {
  auto It = Defs.find(Key);
  assert(It != Defs.end() && "variable never materialized");
  assert(Version < It->second.size() && "version out of range");
  return It->second[Version];
}

std::vector<VarKey> FunctionSSA::allKeys() const {
  std::vector<VarKey> Keys;
  Keys.reserve(Defs.size());
  for (const auto &[Key, Descs] : Defs)
    Keys.push_back(Key);
  return Keys;
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

class FunctionSSA::Builder {
public:
  Builder(FunctionSSA &S, const PointerAnalysis &PA, const ModRefAnalysis &MR)
      : S(S), F(S.F), PA(PA), MR(MR) {}

  void run();

private:
  void collectFormals();
  void placeMuChi();
  void placePhis();
  void rename();

  uint32_t freshVersion(VarKey Key, DefDesc Desc) {
    auto &Descs = S.Defs[Key];
    Descs.push_back(Desc);
    return static_cast<uint32_t>(Descs.size() - 1);
  }

  FunctionSSA &S;
  const Function &F;
  const PointerAnalysis &PA;
  const ModRefAnalysis &MR;

  // Pre-versioning mu/chi placement.
  std::unordered_map<const Instruction *, std::vector<uint32_t>> MuLocs;
  std::unordered_map<const Instruction *,
                     std::vector<std::pair<uint32_t, ChiKind>>>
      ChiLocs;

  // Blocks containing a def of each key (entry is implicit for all keys).
  std::unordered_map<VarKey, std::vector<const BasicBlock *>, VarKeyHash>
      DefBlocks;
  std::vector<VarKey> AllKeys;
};

void FunctionSSA::Builder::collectFormals() {
  BitSet In = MR.ref(&F);
  In.unionWith(MR.mod(&F));
  S.FormalIn = In.toVector();
  S.FormalOut = MR.mod(&F).toVector();
}

void FunctionSSA::Builder::placeMuChi() {
  for (const auto &BB : F.blocks()) {
    if (!S.CFG.isReachable(BB->getId()))
      continue;
    for (const auto &I : BB->instructions()) {
      if (const auto *Ld = dyn_cast<LoadInst>(I.get())) {
        MuLocs[I.get()] = PA.pointsTo(Ld->getPtr());
      } else if (const auto *St = dyn_cast<StoreInst>(I.get())) {
        auto &Chis = ChiLocs[I.get()];
        for (uint32_t Loc : PA.pointsTo(St->getPtr()))
          Chis.push_back({Loc, ChiKind::Store});
      } else if (const auto *A = dyn_cast<AllocInst>(I.get())) {
        auto &Chis = ChiLocs[I.get()];
        for (unsigned Loc : PA.locsOfObject(A->getObject()))
          Chis.push_back({Loc, ChiKind::Alloc});
      } else if (const auto *Call = dyn_cast<CallInst>(I.get())) {
        // Reads feed the callee's virtual input parameters; writes become
        // chis whose old version doubles as the input for mod-only
        // locations. Clone locations are "allocated" here and take no
        // input at all.
        std::unordered_set<uint32_t> CloneLocs;
        for (const MemObject *Clone : PA.clonesAt(Call))
          for (unsigned Loc : PA.locsOfObject(Clone))
            CloneLocs.insert(Loc);
        auto &Mus = MuLocs[I.get()];
        MR.refAt(Call).forEach([&](size_t Loc) {
          if (!CloneLocs.count(static_cast<uint32_t>(Loc)))
            Mus.push_back(static_cast<uint32_t>(Loc));
        });
        auto &Chis = ChiLocs[I.get()];
        MR.modAt(Call).forEach([&](size_t Loc) {
          ChiKind Kind = CloneLocs.count(static_cast<uint32_t>(Loc))
                             ? ChiKind::CloneAlloc
                             : ChiKind::CallMod;
          Chis.push_back({static_cast<uint32_t>(Loc), Kind});
        });
      } else if (isa<RetInst>(I.get())) {
        // Virtual output parameters are read at every return.
        MuLocs[I.get()] = S.FormalOut;
      }
    }
  }
}

void FunctionSSA::Builder::placePhis() {
  // Enumerate keys: all top-level variables plus all formal-in locations.
  for (const auto &V : F.variables())
    AllKeys.push_back({Space::TopLevel, V->getId()});
  for (uint32_t Loc : S.FormalIn)
    AllKeys.push_back({Space::Memory, Loc});

  // Version 0 (live-on-entry) exists for every key.
  for (VarKey Key : AllKeys)
    freshVersion(Key, DefDesc{DefDesc::Kind::Entry, nullptr, nullptr, 0});

  // Record def blocks.
  const BasicBlock *Entry = F.getEntry();
  for (VarKey Key : AllKeys)
    DefBlocks[Key].push_back(Entry);
  for (const auto &BB : F.blocks()) {
    if (!S.CFG.isReachable(BB->getId()))
      continue;
    for (const auto &I : BB->instructions()) {
      if (const Variable *Def = I->getDef())
        DefBlocks[{Space::TopLevel, Def->getId()}].push_back(BB.get());
      auto ChiIt = ChiLocs.find(I.get());
      if (ChiIt != ChiLocs.end())
        for (const auto &[Loc, Kind] : ChiIt->second)
          DefBlocks[{Space::Memory, Loc}].push_back(BB.get());
    }
  }

  // Iterated dominance frontier per key.
  const size_t NumBlocks = F.blocks().size();
  std::vector<uint8_t> HasPhi(NumBlocks), InWork(NumBlocks);
  for (VarKey Key : AllKeys) {
    std::fill(HasPhi.begin(), HasPhi.end(), 0);
    std::fill(InWork.begin(), InWork.end(), 0);
    std::vector<const BasicBlock *> Work;
    for (const BasicBlock *BB : DefBlocks[Key]) {
      if (!InWork[BB->getId()]) {
        InWork[BB->getId()] = 1;
        Work.push_back(BB);
      }
    }
    while (!Work.empty()) {
      const BasicBlock *BB = Work.back();
      Work.pop_back();
      for (const BasicBlock *Frontier : S.DF.frontier(BB)) {
        if (HasPhi[Frontier->getId()])
          continue;
        HasPhi[Frontier->getId()] = 1;
        PhiNode Phi;
        Phi.Var = Key;
        Phi.ResultVersion = 0; // Assigned during renaming.
        S.Phis[Frontier].push_back(std::move(Phi));
        if (!InWork[Frontier->getId()]) {
          InWork[Frontier->getId()] = 1;
          Work.push_back(Frontier);
        }
      }
    }
  }
}

void FunctionSSA::Builder::rename() {
  std::unordered_map<VarKey, std::vector<uint32_t>, VarKeyHash> Stacks;
  for (VarKey Key : AllKeys)
    Stacks[Key] = {0};

  auto Top = [&](VarKey Key) {
    auto It = Stacks.find(Key);
    assert(It != Stacks.end() && !It->second.empty() && "missing stack");
    return It->second.back();
  };

  struct Frame {
    const BasicBlock *BB;
    size_t NextChild;
    size_t TrailStart;
  };
  std::vector<VarKey> Trail; // Keys pushed, for undo on frame exit.

  auto ProcessBlock = [&](const BasicBlock *BB) {
    // Phis assign their results first.
    auto PhiIt = S.Phis.find(BB);
    if (PhiIt != S.Phis.end()) {
      for (size_t Idx = 0; Idx != PhiIt->second.size(); ++Idx) {
        PhiNode &Phi = PhiIt->second[Idx];
        uint32_t V = freshVersion(
            Phi.Var, DefDesc{DefDesc::Kind::Phi, nullptr, BB,
                             static_cast<uint32_t>(Idx)});
        Phi.ResultVersion = V;
        Stacks[Phi.Var].push_back(V);
        Trail.push_back(Phi.Var);
      }
    }

    for (const auto &I : BB->instructions()) {
      InstSSA &Info = S.Insts[I.get()];

      // Uses (top-level, then mus) read the current versions.
      std::vector<Variable *> Used;
      I->collectUsedVars(Used);
      std::sort(Used.begin(), Used.end(),
                [](const Variable *A, const Variable *B) {
                  return A->getId() < B->getId();
                });
      Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
      for (const Variable *V : Used)
        Info.TLUses.push_back({V, Top({Space::TopLevel, V->getId()})});
      auto MuIt = MuLocs.find(I.get());
      if (MuIt != MuLocs.end())
        for (uint32_t Loc : MuIt->second)
          Info.Mus.push_back({Loc, Top({Space::Memory, Loc})});

      // Defs create fresh versions.
      if (const Variable *Def = I->getDef()) {
        VarKey Key{Space::TopLevel, Def->getId()};
        uint32_t V =
            freshVersion(Key, DefDesc{DefDesc::Kind::Inst, I.get(), nullptr,
                                      0});
        Info.TLDefVersion = V;
        Stacks[Key].push_back(V);
        Trail.push_back(Key);
      }
      auto ChiIt = ChiLocs.find(I.get());
      if (ChiIt != ChiLocs.end()) {
        for (const auto &[Loc, Kind] : ChiIt->second) {
          VarKey Key{Space::Memory, Loc};
          uint32_t Old = Top(Key);
          uint32_t New =
              freshVersion(Key, DefDesc{DefDesc::Kind::Inst, I.get(),
                                        nullptr, 0});
          Info.Chis.push_back({Loc, New, Old, Kind});
          Stacks[Key].push_back(New);
          Trail.push_back(Key);
        }
      }
    }

    // Feed phi operands of CFG successors.
    std::vector<BasicBlock *> Succs;
    BB->getSuccessors(Succs);
    for (const BasicBlock *Succ : Succs) {
      auto SuccPhiIt = S.Phis.find(Succ);
      if (SuccPhiIt == S.Phis.end())
        continue;
      for (PhiNode &Phi : SuccPhiIt->second)
        Phi.Incoming.push_back({BB, Top(Phi.Var)});
    }
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
    // Undo this frame's version pushes.
    while (Trail.size() > Cur.TrailStart) {
      Stacks[Trail.back()].pop_back();
      Trail.pop_back();
    }
    DFS.pop_back();
  }
}

void FunctionSSA::Builder::run() {
  collectFormals();
  placeMuChi();
  placePhis();
  rename();
}

FunctionSSA::FunctionSSA(const Function &F, const PointerAnalysis &PA,
                         const ModRefAnalysis &MR)
    : F(F), CFG(F), DT(CFG), DF(DT) {
  Builder(*this, PA, MR).run();
}

MemorySSA::MemorySSA(const Module &M, const PointerAnalysis &PA,
                     const ModRefAnalysis &MR, ThreadPool *) {
  for (const auto &F : M.functions())
    Funcs[F.get()] = std::make_unique<FunctionSSA>(*F, PA, MR);
}
