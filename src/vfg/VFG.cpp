//===- vfg/VFG.cpp - Value-flow graph construction -------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "vfg/VFG.h"

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "ssa/MemorySSA.h"
#include "support/RawStream.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace usher;
using namespace usher::vfg;
using namespace usher::ir;
using ssa::ChiKind;
using ssa::DefDesc;
using ssa::FunctionSSA;
using ssa::InstSSA;
using ssa::MemDef;
using ssa::Space;
using ssa::VarKey;

//===----------------------------------------------------------------------===//
// VFG queries
//===----------------------------------------------------------------------===//

bool VFG::reachable(const Instruction *I) const {
  return InstUses[I->getId()].Begin != ~0u;
}

uint32_t VFG::useNode(const Instruction *I, const Variable *V) const {
  const UseRange &R = InstUses[I->getId()];
  if (R.Begin == ~0u)
    return ~0u;
  for (uint32_t Idx = R.Begin; Idx != R.End; ++Idx)
    if (Uses[Idx].Var == V->getId())
      return Uses[Idx].Node;
  return ~0u;
}

uint32_t VFG::originMask() const {
  uint32_t Mask = 0;
  for (NodeOrigin O : Origins)
    Mask |= 1u << static_cast<unsigned>(O);
  return Mask;
}

const char *vfg::nodeOriginName(NodeOrigin O) {
  switch (O) {
  case NodeOrigin::Unknown:
    return "?";
  case NodeOrigin::Root:
    return "root";
  case NodeOrigin::CopyDef:
    return "copy";
  case NodeOrigin::BinOpDef:
    return "binop";
  case NodeOrigin::FieldAddrDef:
    return "gep";
  case NodeOrigin::AllocPtr:
    return "allocptr";
  case NodeOrigin::AllocChi:
    return "allocchi";
  case NodeOrigin::CloneAllocChi:
    return "clonechi";
  case NodeOrigin::StoreChiStrong:
    return "store.s";
  case NodeOrigin::StoreChiSemi:
    return "store.ss";
  case NodeOrigin::StoreChiWeak:
    return "store.w";
  case NodeOrigin::LoadDef:
    return "load";
  case NodeOrigin::CallResult:
    return "callres";
  case NodeOrigin::CallModChi:
    return "callmod";
  case NodeOrigin::FormalParam:
    return "param";
  case NodeOrigin::FormalIn:
    return "formalin";
  case NodeOrigin::Phi:
    return "phi";
  case NodeOrigin::EntryDef:
    return "entry";
  }
  return "?";
}

void VFG::dumpDot(raw_ostream &OS,
                  const std::vector<DotVerdict> *Verdicts) const {
  OS << "digraph VFG {\n  rankdir=BT;\n";
  for (uint32_t Id = 0; Id != numNodes(); ++Id) {
    OS << "  n" << Id << " [label=\"";
    if (Id == RootT) {
      OS << "T";
    } else if (Id == RootF) {
      OS << "F";
    } else {
      const NodeData &N = Nodes[Id];
      OS << N.Fn->getName() << ':';
      if (N.Key.Sp == Space::TopLevel)
        OS << "tl" << N.Key.Id;
      else
        OS << "mem" << N.Key.Id;
      OS << 'v' << N.Version;
      if (Origins[Id] != NodeOrigin::Unknown)
        OS << "\\n" << nodeOriginName(Origins[Id]);
    }
    OS << '"';
    // Memory-space nodes render as boxes so the two SSA spaces are
    // visually distinct; verdicts color the node.
    if (!isRoot(Id) && Nodes[Id].Key.Sp == Space::Memory)
      OS << ", shape=box";
    if (Verdicts) {
      switch ((*Verdicts)[Id]) {
      case DotVerdict::None:
        break;
      case DotVerdict::Clean:
        OS << ", style=filled, fillcolor=palegreen";
        break;
      case DotVerdict::May:
        OS << ", style=filled, fillcolor=khaki";
        break;
      case DotVerdict::Definite:
        OS << ", style=filled, fillcolor=lightcoral";
        break;
      }
    }
    OS << "];\n";
  }
  for (uint32_t Id = 0; Id != numNodes(); ++Id) {
    for (const Edge &E : Deps[Id]) {
      OS << "  n" << Id << " -> n" << E.Node;
      if (E.Kind == EdgeKind::Call)
        OS << " [color=blue, label=\"call@" << E.CallSite << "\"]";
      else if (E.Kind == EdgeKind::Ret)
        OS << " [color=red, label=\"ret@" << E.CallSite << "\"]";
      OS << ";\n";
    }
  }
  OS << "}\n";
}

//===----------------------------------------------------------------------===//
// VFGBuilder
//===----------------------------------------------------------------------===//

uint32_t VFGBuilder::getNode(uint32_t &Slot, const Function *Fn, VarKey Key,
                             uint32_t Version) {
  if (Slot != ~0u)
    return Slot;
  Slot = G.numNodes();
  G.Nodes.push_back({Fn, Key, Version});
  G.Origins.push_back(NodeOrigin::Unknown);
  G.Deps.emplace_back();
  G.Users.emplace_back();
  return Slot;
}

uint32_t VFGBuilder::tlNode(const Function *Fn, uint32_t Var,
                            uint32_t Version) {
  return getNode(TLNodes[Fns[Fn->getId()].TLBase[Var] + Version], Fn,
                 {Space::TopLevel, Var}, Version);
}

uint32_t VFGBuilder::memNode(uint32_t Bit, const Function *Fn, uint32_t Loc,
                             uint32_t Version) {
  Seen.set(Bit);
  return Live.test(Bit)
             ? getNode(MemNodes[Bit], Fn, {Space::Memory, Loc}, Version)
             : ~0u;
}

void VFGBuilder::memDep(uint32_t From, uint32_t Bit, const Function *Fn,
                        uint32_t Loc, uint32_t Version, EdgeKind Kind,
                        uint32_t CallSite) {
  uint32_t To = memNode(Bit, Fn, Loc, Version);
  if (From == ~0u)
    return;
  assert(To != ~0u && "a live version depends on a dead one");
  addDep(From, To, Kind, CallSite);
}

void VFGBuilder::setOrigin(uint32_t Node, NodeOrigin O,
                           const Instruction *Def) {
  G.Origins[Node] = O;
  G.Nodes[Node].Def = Def;
}

void VFGBuilder::addDep(uint32_t From, uint32_t To, EdgeKind Kind,
                        uint32_t CallSite) {
  for (const Edge &E : G.Deps[From])
    if (E.Node == To && E.Kind == Kind && E.CallSite == CallSite)
      return;
  G.Deps[From].push_back({To, Kind, CallSite});
  G.Users[To].push_back({From, Kind, CallSite});
  ++G.NumEdges;
}

uint32_t VFGBuilder::operandNode(const Function *Fn, const InstSSA &Info,
                                 const Operand &Op) {
  if (Op.isConst() || Op.isGlobal())
    return VFG::RootT; // Constants and global addresses are always defined.
  assert(Op.isVar() && "unexpected operand kind");
  for (const ssa::TLUse &Use : Info.TLUses)
    if (Use.Var == Op.getVar())
      return tlNode(Fn, Op.getVar()->getId(), Use.Version);
  assert(false && "operand variable has no recorded SSA use");
  return VFG::RootT;
}

/// The entry for \p Loc in a list of mus or chis sorted by location, or
/// null.
template <typename T>
static const T *findLoc(const std::vector<T> &List, uint32_t Loc) {
  auto It = std::lower_bound(
      List.begin(), List.end(), Loc,
      [](const T &Entry, uint32_t L) { return Entry.Loc < L; });
  return It != List.end() && It->Loc == Loc ? &*It : nullptr;
}

/// The version of \p Loc visible just before the call \p Info annotates:
/// the version its mu reads, else the one its chi overwrites; ~0u if the
/// call neither reads nor writes \p Loc.
static uint32_t versionAtCall(const InstSSA &Info, uint32_t Loc) {
  if (const ssa::MemUse *Mu = findLoc(Info.Mus, Loc))
    return Mu->Version;
  if (const MemDef *Chi = findLoc(Info.Chis, Loc))
    return Chi->OldVersion;
  return ~0u;
}

/// Returns true when the stored-through pointer's value is a phi-free
/// chain of copies and field-address computations from \p Anchor's def:
/// the pointer then necessarily targets the instance allocated by the
/// *most recent* execution of the anchor (geps change the field, never
/// the instance; the chi's location already identifies the field).
static bool ptrDerivedFromAnchor(const FunctionSSA &FS, const Variable *Var,
                                 uint32_t Version,
                                 const Instruction *Anchor) {
  for (unsigned Steps = 0; Steps < 64; ++Steps) {
    const DefDesc &Desc = FS.defOf({Space::TopLevel, Var->getId()}, Version);
    if (Desc.K != DefDesc::Kind::Inst)
      return false;
    if (Desc.I == Anchor)
      return true;
    Operand Next;
    if (const auto *C = dyn_cast<CopyInst>(Desc.I))
      Next = C->getSrc();
    else if (const auto *G = dyn_cast<FieldAddrInst>(Desc.I))
      Next = G->getBase();
    else
      return false;
    if (!Next.isVar())
      return false;
    const InstSSA *StepInfo = FS.instInfo(Desc.I);
    assert(StepInfo && "chain step in reachable code lacks SSA info");
    Var = Next.getVar();
    Version = ~0u;
    for (const ssa::TLUse &Use : StepInfo->TLUses)
      if (Use.Var == Var)
        Version = Use.Version;
    assert(Version != ~0u && "chain source has no recorded use");
  }
  return false;
}

bool VFGBuilder::safeBypass(const FunctionSSA &FS, uint32_t Loc,
                            uint32_t FromVersion, uint32_t AnchorNewVersion,
                            const Instruction *Anchor) {
  VarKey Key{Space::Memory, Loc};
  std::unordered_set<uint32_t> Visited;
  std::vector<uint32_t> Work{FromVersion};
  while (!Work.empty()) {
    uint32_t V = Work.back();
    Work.pop_back();
    if (V == AnchorNewVersion || !Visited.insert(V).second)
      continue;
    const DefDesc &Desc = FS.defOf(Key, V);
    switch (Desc.K) {
    case DefDesc::Kind::Entry:
      return false; // Escaped above the anchor: should not happen when the
                    // anchor dominates, but be conservative.
    case DefDesc::Kind::Phi: {
      const ssa::PhiNode &Phi = FS.phisIn(Desc.PhiBlock)[Desc.Idx];
      for (const auto &[Pred, InVersion] : Phi.Incoming)
        Work.push_back(InVersion);
      break;
    }
    case DefDesc::Kind::Inst: {
      const auto *St = dyn_cast<StoreInst>(Desc.I);
      if (!St)
        return false; // A call or another allocation intervenes.
      // The intervening store must itself definitely write the current
      // instance, so that our store's bypass cannot hide its value.
      const std::vector<uint32_t> &Pts = PA.pointsTo(St->getPtr());
      if (Pts.size() != 1 || Pts[0] != Loc)
        return false;
      if (!St->getPtr().isVar())
        return false;
      const InstSSA *StInfo = FS.instInfo(St);
      uint32_t PtrVersion = ~0u;
      for (const ssa::TLUse &Use : StInfo->TLUses)
        if (Use.Var == St->getPtr().getVar())
          PtrVersion = Use.Version;
      if (!ptrDerivedFromAnchor(FS, St->getPtr().getVar(), PtrVersion,
                                Anchor))
        return false;
      // Continue above this store's chi.
      for (const MemDef &Chi : StInfo->Chis)
        if (Chi.Loc == Loc)
          Work.push_back(Chi.OldVersion);
      break;
    }
    }
  }
  return true;
}

void VFGBuilder::classifyStoreChis(const Function &F, const StoreInst &St,
                                   const InstSSA &Info) {
  const FunctionSSA &FS = *Fns[F.getId()].SSA;
  const std::vector<uint32_t> &Pts = PA.pointsTo(St.getPtr());
  StoreChiStart[St.getId()] = static_cast<uint32_t>(StoreChis.size());

  for (const MemDef &Chi : Info.Chis) {
    assert(Chi.Kind == ChiKind::Store && "non-store chi at a store");
    const MemObject *Obj = PA.location(Chi.Loc).Obj;
    bool Singleton = Pts.size() == 1 && !PA.isCollapsedLoc(Chi.Loc);

    // Traditional strong update: one concrete cell.
    if (Opts.StrongUpdates && Singleton && !Obj->isHeap()) {
      bool OneInstance = Obj->isGlobal();
      if (Obj->isStack()) {
        const Function *AllocFn = Obj->getAllocSite()
                                      ? Obj->getAllocSite()
                                            ->getParent()
                                            ->getParent()
                                      : nullptr;
        OneInstance = AllocFn && !CG->isRecursive(AllocFn);
      }
      if (OneInstance) {
        ++G.NumStrong;
        // Old version killed: no edge to Chi.OldVersion.
        StoreChis.push_back({NodeOrigin::StoreChiStrong, ~0u});
        continue;
      }
    }

    // Semi-strong update: singleton abstract heap object whose unique
    // allocation anchor dominates this store, the pointer provably holds
    // the freshest instance, and the bypassed chain only writes that
    // instance.
    if (Opts.SemiStrongUpdates && Singleton && Obj->isHeap()) {
      Instruction *Anchor = Obj->getAllocSite();
      if (Anchor && Anchor->getParent()->getParent() == &F &&
          Anchor->getDef() && FS.getDomTree().dominates(Anchor, &St) &&
          St.getPtr().isVar()) {
        uint32_t PtrVersion = ~0u;
        for (const ssa::TLUse &Use : Info.TLUses)
          if (Use.Var == St.getPtr().getVar())
            PtrVersion = Use.Version;
        const InstSSA *AnchorInfo = FS.instInfo(Anchor);
        const MemDef *AnchorChi = nullptr;
        for (const MemDef &AChi : AnchorInfo->Chis)
          if (AChi.Loc == Chi.Loc)
            AnchorChi = &AChi;
        if (AnchorChi &&
            ptrDerivedFromAnchor(FS, St.getPtr().getVar(), PtrVersion,
                                 Anchor) &&
            safeBypass(FS, Chi.Loc, Chi.OldVersion, AnchorChi->NewVersion,
                       Anchor)) {
          // Redirect the old-version edge to the version *before* the
          // allocation, bypassing the allocation's undefinedness.
          ++G.NumSemi;
          ++G.SemiStrongCuts[Obj->getId()];
          StoreChis.push_back(
              {NodeOrigin::StoreChiSemi, AnchorChi->OldVersion});
          continue;
        }
      }
    }

    // Weak update: merge with the previous version.
    ++G.NumWeak;
    StoreChis.push_back({NodeOrigin::StoreChiWeak, Chi.OldVersion});
  }
}

void VFGBuilder::enterFunction(const Function &F) {
  const FnInfo &FI = Fns[F.getId()];
  const std::vector<uint32_t> &Locs = FI.SSA->formalIns();
  for (size_t P = 0; P != Locs.size(); ++P)
    LocalBase[Locs[P]] = FI.Base[P] + 1;
}

void VFGBuilder::leaveFunction(const Function &F) {
  for (uint32_t Loc : Fns[F.getId()].SSA->formalIns())
    LocalBase[Loc] = 0;
}

uint32_t VFGBuilder::returnBit(const FnInfo &FI, const InstSSA &RInfo,
                               size_t Idx, uint32_t Loc) {
  // Every return reads the virtual output parameters, in formalOuts()
  // order.
  assert(RInfo.Mus.size() == FI.OutPos.size() && "return mus are not outs");
  if (Idx == RInfo.Mus.size() || RInfo.Mus[Idx].Loc != Loc)
    return ~0u;
  return FI.Base[FI.OutPos[Idx]] + RInfo.Mus[Idx].Version;
}

void VFGBuilder::markLive(uint32_t Bit, const Function *Fn, uint32_t Loc,
                          uint32_t Version) {
  if (Live.set(Bit))
    LiveWork.push_back({Fn, Loc, Version, Bit});
}

void VFGBuilder::computeLiveness() {
  // Number every SSA version densely, and gather each function's
  // reachable returns and call sites.
  size_t NumFns = 0;
  for (const auto &F : M.functions())
    NumFns = std::max<size_t>(NumFns, F->getId() + 1);
  Fns.resize(NumFns);
  uint32_t NumBits = 0, NumTL = 0;
  for (const auto &F : M.functions()) {
    FnInfo &FI = Fns[F->getId()];
    FI.SSA = &SSA.get(F.get());
    for (const auto &V : F->variables()) {
      FI.TLBase.push_back(NumTL);
      NumTL += FI.SSA->numVersions({Space::TopLevel, V->getId()});
    }
    const std::vector<uint32_t> &Ins = FI.SSA->formalIns();
    for (uint32_t Loc : Ins) {
      FI.Base.push_back(NumBits);
      NumBits += FI.SSA->numVersions({Space::Memory, Loc});
    }
    for (uint32_t Loc : FI.SSA->formalOuts())
      FI.OutPos.push_back(static_cast<uint32_t>(
          std::lower_bound(Ins.begin(), Ins.end(), Loc) - Ins.begin()));
  }
  TLNodes.assign(NumTL, ~0u);
  MemNodes.assign(NumBits, ~0u);
  Live.resize(NumBits);
  Seen.resize(NumBits);
  // A version 0 that a reachable call site hands in counts as referenced
  // even where the caller does not version the location.
  for (const FnInfo &FI : Fns)
    for (size_t P = 0; P != FI.Base.size(); ++P)
      if (FI.SSA->passedByCaller(P))
        Seen.set(FI.Base[P]);
  LocalBase.assign(PA.numLocations(), 0);
  InstInfos.assign(M.instructionCount(), nullptr);
  StoreChiStart.assign(M.instructionCount(), ~0u);

  // Seeds: every load's mus. Store chis are classified here, once, in
  // the order of the construction walk.
  for (const auto &F : M.functions()) {
    const FunctionSSA &FS = *Fns[F->getId()].SSA;
    enterFunction(*F);
    for (const auto &BB : F->blocks()) {
      if (!FS.getCFG().isReachable(BB->getId()))
        continue;
      for (const auto &I : BB->instructions()) {
        const InstSSA *Info = FS.instInfo(I.get());
        assert(Info && "reachable instruction lacks SSA info");
        assert(I->getId() < InstInfos.size() && "module not renumbered");
        InstInfos[I->getId()] = Info;
        if (isa<LoadInst>(I.get())) {
          for (const ssa::MemUse &Mu : Info->Mus)
            markLive(localBit(Mu.Loc, Mu.Version), F.get(), Mu.Loc,
                     Mu.Version);
        } else if (const auto *St = dyn_cast<StoreInst>(I.get())) {
          classifyStoreChis(*F, *St, *Info);
        } else if (const auto *Call = dyn_cast<CallInst>(I.get())) {
          Fns[Call->getCallee()->getId()].Callers.push_back({F.get(), Info});
        } else if (const auto *R = dyn_cast<RetInst>(I.get())) {
          Fns[F->getId()].Rets.push_back({R, Info});
        }
      }
    }
    leaveFunction(*F);
  }

  // A live version makes live what its node's dependency edges reach.
  // Versions of one location in one function have consecutive bits.
  while (!LiveWork.empty()) {
    LiveVersion V = LiveWork.back();
    LiveWork.pop_back();
    auto MarkSameLoc = [&](uint32_t Version) {
      markLive(V.Bit - V.Version + Version, V.Fn, V.Loc, Version);
    };
    const FnInfo &FI = Fns[V.Fn->getId()];
    const DefDesc &Desc = FI.SSA->defOf({Space::Memory, V.Loc}, V.Version);
    switch (Desc.K) {
    case DefDesc::Kind::Entry:
      // A virtual input parameter: the caller's version at every call.
      for (const auto &[Caller, CallInfo] : FI.Callers) {
        uint32_t AtCall = versionAtCall(*CallInfo, V.Loc);
        if (AtCall == ~0u)
          continue;
        const FnInfo &CI = Fns[Caller->getId()];
        const std::vector<uint32_t> &Ins = CI.SSA->formalIns();
        size_t P = std::lower_bound(Ins.begin(), Ins.end(), V.Loc) -
                   Ins.begin();
        markLive(CI.Base[P] + AtCall, Caller, V.Loc, AtCall);
      }
      break;
    case DefDesc::Kind::Phi:
      for (const auto &[Pred, In] :
           FI.SSA->phisIn(Desc.PhiBlock)[Desc.Idx].Incoming)
        MarkSameLoc(In);
      break;
    case DefDesc::Kind::Inst: {
      const MemDef &Chi = InstInfos[Desc.I->getId()]->Chis[Desc.Idx];
      switch (Chi.Kind) {
      case ChiKind::Alloc:
      case ChiKind::CloneAlloc:
        MarkSameLoc(Chi.OldVersion);
        break;
      case ChiKind::Store: {
        uint32_t Dep =
            StoreChis[StoreChiStart[Desc.I->getId()] + Desc.Idx].Dep;
        if (Dep != ~0u)
          MarkSameLoc(Dep);
        break;
      }
      case ChiKind::CallMod: {
        const Function *Callee = cast<CallInst>(Desc.I)->getCallee();
        const FnInfo &CI = Fns[Callee->getId()];
        const std::vector<uint32_t> &Outs = CI.SSA->formalOuts();
        size_t Idx = std::lower_bound(Outs.begin(), Outs.end(), V.Loc) -
                     Outs.begin();
        for (const auto &[R, RInfo] : CI.Rets) {
          uint32_t Bit = returnBit(CI, *RInfo, Idx, V.Loc);
          if (Bit != ~0u)
            markLive(Bit, Callee, V.Loc, RInfo->Mus[Idx].Version);
        }
        break;
      }
      }
      break;
    }
    }
  }
}

void VFGBuilder::buildStoreChis(const Function &F, const StoreInst &St,
                                const InstSSA &Info) {
  uint32_t ValueNode = operandNode(&F, Info, St.getValue());
  const StoreChiClass *Classes =
      StoreChis.data() + StoreChiStart[St.getId()];
  for (size_t Idx = 0; Idx != Info.Chis.size(); ++Idx) {
    const MemDef &Chi = Info.Chis[Idx];
    const StoreChiClass &C = Classes[Idx];
    uint32_t NewNode = localNode(F, Chi.Loc, Chi.NewVersion);
    if (NewNode != ~0u) {
      setOrigin(NewNode, C.Origin, &St);
      addDep(NewNode, ValueNode, EdgeKind::Direct);
    }
    if (C.Dep != ~0u)
      localDep(NewNode, F, Chi.Loc, C.Dep);
  }
}

void VFGBuilder::buildCall(const Function &F, const CallInst &Call,
                           const InstSSA &Info) {
  const Function *Callee = Call.getCallee();
  const FnInfo &CalleeInfo = Fns[Callee->getId()];
  uint32_t CallSite = Call.getId();

  // Actual -> formal for top-level parameters.
  const auto &Params = Callee->params();
  for (size_t Idx = 0; Idx != Params.size(); ++Idx) {
    uint32_t Formal = tlNode(Callee, Params[Idx]->getId(), 0);
    setOrigin(Formal, NodeOrigin::FormalParam);
    uint32_t Actual = operandNode(&F, Info, Call.getArgs()[Idx]);
    addDep(Formal, Actual, EdgeKind::Call, CallSite);
  }

  // Return value -> call result.
  if (Call.getDef()) {
    uint32_t Result = tlNode(&F, Call.getDef()->getId(), Info.TLDefVersion);
    setOrigin(Result, NodeOrigin::CallResult, &Call);
    for (const auto &[R, RInfo] : CalleeInfo.Rets) {
      if (R->getValue().isNone()) {
        // Capturing the result of a void return yields an undefined value.
        addDep(Result, VFG::RootF, EdgeKind::Ret, CallSite);
      } else {
        addDep(Result, operandNode(Callee, *RInfo, R->getValue()),
               EdgeKind::Ret, CallSite);
      }
    }
  }

  // Caller state -> callee virtual input parameters: the version the
  // call's mu reads, else the one its chi overwrites. Wrapper origins
  // have no caller-side version (they are cloned away) and take no input.
  // The formal-ins, mus and chis are all sorted by location.
  const std::vector<uint32_t> &Ins = CalleeInfo.SSA->formalIns();
  auto Mu = Info.Mus.begin();
  auto Chi = Info.Chis.begin();
  for (size_t P = 0; P != Ins.size(); ++P) {
    uint32_t Loc = Ins[P];
    while (Mu != Info.Mus.end() && Mu->Loc < Loc)
      ++Mu;
    while (Chi != Info.Chis.end() && Chi->Loc < Loc)
      ++Chi;
    uint32_t AtCall = Mu != Info.Mus.end() && Mu->Loc == Loc ? Mu->Version
                      : Chi != Info.Chis.end() && Chi->Loc == Loc
                          ? Chi->OldVersion
                          : ~0u;
    if (AtCall == ~0u)
      continue;
    uint32_t FormalIn = memNode(CalleeInfo.Base[P], Callee, Loc, 0);
    if (FormalIn != ~0u)
      setOrigin(FormalIn, NodeOrigin::FormalIn);
    memDep(FormalIn, localBit(Loc, AtCall), &F, Loc, AtCall, EdgeKind::Call,
           CallSite);
  }

  // Chis at the call: clone allocations behave like allocation sites; mod
  // chis receive the callee's virtual output parameters.
  const std::vector<uint32_t> &Outs = CalleeInfo.SSA->formalOuts();
  size_t OutIdx = 0;
  for (const MemDef &Chi : Info.Chis) {
    uint32_t NewNode = localNode(F, Chi.Loc, Chi.NewVersion);
    if (Chi.Kind == ChiKind::CloneAlloc) {
      if (NewNode != ~0u) {
        const MemObject *Clone = PA.location(Chi.Loc).Obj;
        setOrigin(NewNode, NodeOrigin::CloneAllocChi, &Call);
        addDep(NewNode, Clone->isInitialized() ? VFG::RootT : VFG::RootF,
               EdgeKind::Direct);
      }
      localDep(NewNode, F, Chi.Loc, Chi.OldVersion);
      continue;
    }
    assert(Chi.Kind == ChiKind::CallMod && "unexpected chi kind at call");
    if (NewNode != ~0u)
      setOrigin(NewNode, NodeOrigin::CallModChi, &Call);
    while (OutIdx != Outs.size() && Outs[OutIdx] < Chi.Loc)
      ++OutIdx;
    for (const auto &[R, RInfo] : CalleeInfo.Rets) {
      uint32_t Bit = returnBit(CalleeInfo, *RInfo, OutIdx, Chi.Loc);
      if (Bit != ~0u)
        memDep(NewNode, Bit, Callee, Chi.Loc, RInfo->Mus[OutIdx].Version,
               EdgeKind::Ret, CallSite);
    }
  }
}

void VFGBuilder::buildInstruction(const Function &F, const Instruction &I,
                                  const InstSSA &Info) {
  switch (I.getKind()) {
  case Instruction::IKind::Copy: {
    const auto *C = cast<CopyInst>(&I);
    uint32_t Def = tlNode(&F, C->getDef()->getId(), Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::CopyDef, &I);
    addDep(Def, operandNode(&F, Info, C->getSrc()), EdgeKind::Direct);
    break;
  }
  case Instruction::IKind::BinOp: {
    const auto *B = cast<BinOpInst>(&I);
    uint32_t Def = tlNode(&F, B->getDef()->getId(), Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::BinOpDef, &I);
    addDep(Def, operandNode(&F, Info, B->getLHS()), EdgeKind::Direct);
    addDep(Def, operandNode(&F, Info, B->getRHS()), EdgeKind::Direct);
    break;
  }
  case Instruction::IKind::FieldAddr: {
    const auto *FA = cast<FieldAddrInst>(&I);
    uint32_t Def = tlNode(&F, FA->getDef()->getId(), Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::FieldAddrDef, &I);
    addDep(Def, operandNode(&F, Info, FA->getBase()), EdgeKind::Direct);
    addDep(Def, operandNode(&F, Info, FA->getIndex()), EdgeKind::Direct);
    break;
  }
  case Instruction::IKind::Alloc: {
    const auto *A = cast<AllocInst>(&I);
    // The pointer itself is defined; each field of the fresh object is
    // defined (alloc_T) or undefined (alloc_F), merged with the other
    // instances of the abstract object.
    uint32_t Def = tlNode(&F, A->getDef()->getId(), Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::AllocPtr, &I);
    addDep(Def, VFG::RootT, EdgeKind::Direct);
    uint32_t InitRoot =
        A->getObject()->isInitialized() ? VFG::RootT : VFG::RootF;
    for (const MemDef &Chi : Info.Chis) {
      uint32_t NewNode = localNode(F, Chi.Loc, Chi.NewVersion);
      if (NewNode != ~0u) {
        setOrigin(NewNode, NodeOrigin::AllocChi, &I);
        addDep(NewNode, InitRoot, EdgeKind::Direct);
      }
      localDep(NewNode, F, Chi.Loc, Chi.OldVersion);
    }
    break;
  }
  case Instruction::IKind::Load: {
    const auto *L = cast<LoadInst>(&I);
    uint32_t Def = tlNode(&F, L->getDef()->getId(), Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::LoadDef, &I);
    for (const ssa::MemUse &Mu : Info.Mus)
      localDep(Def, F, Mu.Loc, Mu.Version);
    if (L->getPtr().isVar())
      G.CriticalUses.push_back(
          {&I, L->getPtr().getVar(),
           operandNode(&F, Info, L->getPtr())});
    break;
  }
  case Instruction::IKind::Store: {
    const auto *St = cast<StoreInst>(&I);
    buildStoreChis(F, *St, Info);
    if (St->getPtr().isVar())
      G.CriticalUses.push_back(
          {&I, St->getPtr().getVar(),
           operandNode(&F, Info, St->getPtr())});
    break;
  }
  case Instruction::IKind::Call:
    buildCall(F, *cast<CallInst>(&I), Info);
    break;
  case Instruction::IKind::CondBr: {
    const auto *B = cast<CondBrInst>(&I);
    if (B->getCond().isVar())
      G.CriticalUses.push_back(
          {&I, B->getCond().getVar(),
           operandNode(&F, Info, B->getCond())});
    break;
  }
  case Instruction::IKind::Goto:
  case Instruction::IKind::Ret:
    // Returns contribute edges at their call sites; mus at returns are
    // read by buildCall through the callee's SSA info.
    break;
  }
}

void VFGBuilder::buildFunction(const Function &F) {
  const FunctionSSA &FS = *Fns[F.getId()].SSA;
  enterFunction(F);

  for (const auto &BB : F.blocks()) {
    if (!FS.getCFG().isReachable(BB->getId()))
      continue;
    // Phi nodes.
    for (const ssa::PhiNode &Phi : FS.phisIn(BB.get())) {
      bool Memory = Phi.Var.Sp == Space::Memory;
      uint32_t Result = Memory ? localNode(F, Phi.Var.Id, Phi.ResultVersion)
                               : tlNode(&F, Phi.Var.Id, Phi.ResultVersion);
      if (Result != ~0u)
        setOrigin(Result, NodeOrigin::Phi);
      for (const auto &[Pred, Version] : Phi.Incoming) {
        if (Memory)
          localDep(Result, F, Phi.Var.Id, Version);
        else
          addDep(Result, tlNode(&F, Phi.Var.Id, Version), EdgeKind::Direct);
      }
    }
    for (const auto &I : BB->instructions())
      buildInstruction(F, *I, *InstInfos[I->getId()]);
  }
  leaveFunction(F);
}

VFG VFGBuilder::build() {
  // Nodes 0 and 1 are the T and F roots.
  G.Nodes.resize(2);
  G.Origins.resize(2, NodeOrigin::Root);
  G.Deps.resize(2);
  G.Users.resize(2);

  computeLiveness();
  for (const auto &F : M.functions())
    buildFunction(*F);
  G.NumMemVersions = Seen.count() + SSA.numDroppedVersions();
  G.NumPrunedMemVersions = G.NumMemVersions - Live.count();

  // Entry (version 0) nodes referenced anywhere now get their root edges.
  // Formal parameters and virtual input parameters already received call
  // edges above; everything else is rooted here.
  const Function *Main = M.findFunction("main");
  for (uint32_t Id = 2; Id != G.numNodes(); ++Id) {
    const VFG::NodeData &N = G.Nodes[Id];
    if (N.Version != 0)
      continue;
    if (N.Key.Sp == Space::TopLevel) {
      const Variable *V =
          N.Fn->variables()[N.Key.Id].get();
      if (!V->isParam()) {
        setOrigin(Id, NodeOrigin::EntryDef);
        addDep(Id, VFG::RootF, EdgeKind::Direct);
      }
      // Parameters: call edges only; a never-called function stays T.
    } else if (N.Fn == Main) {
      // Program start: globals are defined iff declared `init`; stack and
      // heap locations have no live instances yet, hence no undefined
      // value can be read from them before their allocation runs.
      const MemObject *Obj = PA.location(N.Key.Id).Obj;
      setOrigin(Id, NodeOrigin::EntryDef);
      if (Obj->isGlobal())
        addDep(Id, Obj->isInitialized() ? VFG::RootT : VFG::RootF,
               EdgeKind::Direct);
      else
        addDep(Id, VFG::RootT, EdgeKind::Direct);
    }
  }

  // Per reachable instruction, the nodes of the top-level versions it
  // reads (~0u for a version no node was built for, such as the value of
  // a return whose result no call captures).
  G.InstUses.assign(InstInfos.size(), {});
  for (uint32_t Id = 0; Id != InstInfos.size(); ++Id) {
    if (!InstInfos[Id])
      continue;
    VFG::UseRange &Range = G.InstUses[Id];
    Range.Begin = static_cast<uint32_t>(G.Uses.size());
    for (const ssa::TLUse &Use : InstInfos[Id]->TLUses) {
      uint32_t Var = Use.Var->getId();
      const FnInfo &FI = Fns[Use.Var->getParent()->getId()];
      G.Uses.push_back({Var, TLNodes[FI.TLBase[Var] + Use.Version]});
    }
    Range.End = static_cast<uint32_t>(G.Uses.size());
  }
  return std::move(G);
}
