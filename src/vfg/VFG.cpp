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
#include "support/CSR.h"
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
    for (const Edge &E : deps(Id)) {
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
  return Slot;
}

uint32_t VFGBuilder::tlNode(const Function *Fn, uint32_t Var,
                            uint32_t Version) {
  return getNode(TLNodes[Fns[Fn->getId()].SSA->tlNumber(Var) + Version], Fn,
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

void VFGBuilder::buildEdges() {
  const uint32_t N = G.numNodes();
  const uint32_t NumPending = static_cast<uint32_t>(PendingEdges.size());
  // Dependencies: each node's queued edges in call order, less any edge
  // equal to one the node already holds.
  std::vector<uint32_t> Begin, Queued;
  fillCSR(
      N,
      [&](auto &&Emit) {
        for (uint32_t P = 0; P != NumPending; ++P)
          Emit(PendingEdges[P].first, P);
      },
      Begin, Queued);
  std::vector<uint8_t> Kept(NumPending, 0);
  G.DepBegin.resize(N + 1);
  G.DepEdges.reserve(NumPending);
  for (uint32_t Id = 0; Id != N; ++Id) {
    G.DepBegin[Id] = static_cast<uint32_t>(G.DepEdges.size());
    for (uint32_t I = Begin[Id]; I != Begin[Id + 1]; ++I) {
      const Edge &E = PendingEdges[Queued[I]].second;
      if (std::find(G.DepEdges.begin() + G.DepBegin[Id], G.DepEdges.end(),
                    E) != G.DepEdges.end())
        continue;
      G.DepEdges.push_back(E);
      Kept[Queued[I]] = 1;
    }
  }
  G.DepBegin[N] = static_cast<uint32_t>(G.DepEdges.size());
  G.NumEdges = G.DepEdges.size();

  // Users: the kept edges reversed, in call order across the graph.
  fillCSR(
      N,
      [&](auto &&Emit) {
        for (uint32_t P = 0; P != NumPending; ++P) {
          if (!Kept[P])
            continue;
          const auto &[From, E] = PendingEdges[P];
          Emit(E.Node, Edge{From, E.Kind, E.CallSite});
        }
      },
      G.UserBegin, G.UserEdges);
  PendingEdges = {};
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
  SiteStart[St.getId()] = static_cast<uint32_t>(StoreChis.size());

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
  const FunctionSSA &FS = *Fns[F.getId()].SSA;
  const std::vector<uint32_t> &Locs = FS.formalIns();
  for (uint32_t P = 0; P != Locs.size(); ++P)
    LocalKey[Locs[P]] = {P, FS.memNumber(P) + 1};
}

void VFGBuilder::leaveFunction(const Function &F) {
  for (uint32_t Loc : Fns[F.getId()].SSA->formalIns())
    LocalKey[Loc] = {};
}

void VFGBuilder::markLive(uint32_t Bit, uint32_t Fn, uint32_t Pos,
                          uint32_t Version) {
  if (Live.set(Bit))
    LiveWork.push_back({Fn, Pos, Version, Bit});
}

void VFGBuilder::addCallSite(const Function &F, const CallInst &Call,
                             const InstSSA &Info) {
  const FunctionSSA &CS = *Fns[Call.getCallee()->getId()].SSA;
  SiteStart[Call.getId()] = static_cast<uint32_t>(Sites.size());
  Sites.push_back({&F, &Call, static_cast<uint32_t>(CallIns.size()),
                   static_cast<uint32_t>(CallOuts.size())});

  // Per callee formal-in, the caller's version at the call: the one the
  // call's mu reads, else the one its chi overwrites. Wrapper origins have
  // no caller-side version (they are cloned away) and take no input. The
  // formal-ins, mus and chis are all sorted by location.
  const std::vector<uint32_t> &Ins = CS.formalIns();
  auto Mu = Info.Mus.begin();
  auto Chi = Info.Chis.begin();
  for (uint32_t Loc : Ins) {
    while (Mu != Info.Mus.end() && Mu->Loc < Loc)
      ++Mu;
    while (Chi != Info.Chis.end() && Chi->Loc < Loc)
      ++Chi;
    uint32_t AtCall = Mu != Info.Mus.end() && Mu->Loc == Loc ? Mu->Version
                      : Chi != Info.Chis.end() && Chi->Loc == Loc
                          ? Chi->OldVersion
                          : ~0u;
    if (AtCall == ~0u)
      CallIns.push_back({~0u, ~0u, ~0u});
    else
      CallIns.push_back({LocalKey[Loc].Pos, AtCall, localBit(Loc, AtCall)});
  }

  // Per chi, where the callee outputs its location.
  const std::vector<uint32_t> &Outs = CS.formalOuts();
  size_t Out = 0, Pos = 0;
  for (const MemDef &C : Info.Chis) {
    while (Out != Outs.size() && Outs[Out] < C.Loc)
      ++Out;
    if (C.Kind != ChiKind::CallMod || Out == Outs.size() ||
        Outs[Out] != C.Loc) {
      CallOuts.push_back({~0u, ~0u});
      continue;
    }
    while (Ins[Pos] < C.Loc)
      ++Pos;
    CallOuts.push_back(
        {static_cast<uint32_t>(Out), static_cast<uint32_t>(Pos)});
  }
}

void VFGBuilder::computeLiveness() {
  // Every version has its number in memory SSA's dense numberings; gather
  // each function's reachable returns and call sites.
  size_t NumFns = 0;
  for (const auto &F : M.functions())
    NumFns = std::max<size_t>(NumFns, F->getId() + 1);
  Fns.resize(NumFns);
  for (const auto &F : M.functions())
    Fns[F->getId()].SSA = &SSA.get(F.get());
  const uint32_t NumBits = static_cast<uint32_t>(SSA.numPlacedVersions());
  TLNodes.assign(SSA.numTLVersions(), ~0u);
  MemNodes.assign(NumBits, ~0u);
  Live.resize(NumBits);
  Seen.resize(NumBits);
  // A version 0 that a reachable call site hands in counts as referenced
  // even where the caller does not version the location.
  for (const FnInfo &FI : Fns)
    for (size_t P = 0; P != FI.SSA->formalIns().size(); ++P)
      if (FI.SSA->passedByCaller(P))
        Seen.set(FI.SSA->memNumber(P));
  LocalKey.assign(PA.numLocations(), {});
  InstInfos.assign(M.instructionCount(), nullptr);
  SiteStart.assign(M.instructionCount(), ~0u);

  // Seeds: every load's mus. Store chis are classified and call sites
  // mapped here, once, in the order of the construction walk.
  for (const auto &F : M.functions()) {
    FnInfo &FI = Fns[F->getId()];
    const FunctionSSA &FS = *FI.SSA;
    enterFunction(*F);
    FI.RetBegin = static_cast<uint32_t>(Rets.size());
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
            markLive(localBit(Mu.Loc, Mu.Version), F->getId(),
                     LocalKey[Mu.Loc].Pos, Mu.Version);
        } else if (const auto *St = dyn_cast<StoreInst>(I.get())) {
          classifyStoreChis(*F, *St, *Info);
        } else if (const auto *Call = dyn_cast<CallInst>(I.get())) {
          addCallSite(*F, *Call, *Info);
        } else if (const auto *R = dyn_cast<RetInst>(I.get())) {
          // Every return reads the virtual output parameters, in
          // formalOuts() order.
          assert(Info->Mus.size() == FS.formalOuts().size() &&
                 "return mus are not outs");
          Rets.push_back({R, Info});
        }
      }
    }
    FI.RetEnd = static_cast<uint32_t>(Rets.size());
    leaveFunction(*F);
  }
  fillCSR(
      static_cast<uint32_t>(NumFns),
      [&](auto &&Emit) {
        for (uint32_t Idx = 0; Idx != Sites.size(); ++Idx)
          Emit(Sites[Idx].Call->getCallee()->getId(), Idx);
      },
      CallerBegin, CallerSites);

  // A live version makes live what its node's dependency edges reach.
  // Versions of one location in one function have consecutive bits.
  while (!LiveWork.empty()) {
    const LiveVersion V = LiveWork.back();
    LiveWork.pop_back();
    auto MarkSameLoc = [&](uint32_t Version) {
      markLive(V.Bit - V.Version + Version, V.Fn, V.Pos, Version);
    };
    const FunctionSSA &FS = *Fns[V.Fn].SSA;
    const DefDesc &Desc = FS.memDefOf(V.Bit);
    switch (Desc.K) {
    case DefDesc::Kind::Entry:
      // A virtual input parameter: the caller's version at every call.
      for (uint32_t Idx = CallerBegin[V.Fn]; Idx != CallerBegin[V.Fn + 1];
           ++Idx) {
        const CallSite &Site = Sites[CallerSites[Idx]];
        const CallIn &In = CallIns[Site.In + V.Pos];
        if (In.Bit != ~0u)
          markLive(In.Bit, Site.Caller->getId(), In.Pos, In.Version);
      }
      break;
    case DefDesc::Kind::Phi:
      for (const auto &[Pred, In] : FS.phisIn(Desc.PhiBlock)[Desc.Idx].Incoming)
        MarkSameLoc(In);
      break;
    case DefDesc::Kind::Inst: {
      const uint32_t Id = Desc.I->getId();
      const MemDef &Chi = InstInfos[Id]->Chis[Desc.Idx];
      switch (Chi.Kind) {
      case ChiKind::Alloc:
      case ChiKind::CloneAlloc:
        MarkSameLoc(Chi.OldVersion);
        break;
      case ChiKind::Store: {
        uint32_t Dep = StoreChis[SiteStart[Id] + Desc.Idx].Dep;
        if (Dep != ~0u)
          MarkSameLoc(Dep);
        break;
      }
      case ChiKind::CallMod: {
        const CallSite &Site = Sites[SiteStart[Id]];
        const CallOut &Out = CallOuts[Site.Out + Desc.Idx];
        if (Out.Out == ~0u)
          break;
        const uint32_t Callee = Site.Call->getCallee()->getId();
        const FnInfo &CI = Fns[Callee];
        const uint32_t Base = CI.SSA->memNumber(Out.Pos);
        for (const auto &[R, RInfo] : rets(CI)) {
          const uint32_t Version = RInfo->Mus[Out.Out].Version;
          markLive(Base + Version, Callee, Out.Pos, Version);
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
      StoreChis.data() + SiteStart[St.getId()];
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
                           const InstSSA &Info, std::span<const CallIn> Ins,
                           std::span<const CallOut> Outs) {
  const Function *Callee = Call.getCallee();
  const FnInfo &CalleeInfo = Fns[Callee->getId()];
  const FunctionSSA &CS = *CalleeInfo.SSA;
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
    for (const auto &[R, RInfo] : rets(CalleeInfo)) {
      if (R->getValue().isNone()) {
        // Capturing the result of a void return yields an undefined value.
        addDep(Result, VFG::RootF, EdgeKind::Ret, CallSite);
      } else {
        addDep(Result, operandNode(Callee, *RInfo, R->getValue()),
               EdgeKind::Ret, CallSite);
      }
    }
  }

  // Caller state -> callee virtual input parameters.
  for (uint32_t P = 0; P != Ins.size(); ++P) {
    const CallIn &In = Ins[P];
    if (In.Bit == ~0u)
      continue;
    const uint32_t Loc = CS.formalIns()[P];
    uint32_t FormalIn = memNode(CS.memNumber(P), Callee, Loc, 0);
    if (FormalIn != ~0u)
      setOrigin(FormalIn, NodeOrigin::FormalIn);
    memDep(FormalIn, In.Bit, &F, Loc, In.Version, EdgeKind::Call, CallSite);
  }

  // Chis at the call: clone allocations behave like allocation sites; mod
  // chis receive the callee's virtual output parameters.
  for (size_t Idx = 0; Idx != Info.Chis.size(); ++Idx) {
    const MemDef &Chi = Info.Chis[Idx];
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
    const CallOut &Out = Outs[Idx];
    if (Out.Out == ~0u)
      continue;
    const uint32_t Base = CS.memNumber(Out.Pos);
    for (const auto &[R, RInfo] : rets(CalleeInfo)) {
      const uint32_t Version = RInfo->Mus[Out.Out].Version;
      memDep(NewNode, Base + Version, Callee, Chi.Loc, Version, EdgeKind::Ret,
             CallSite);
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
  case Instruction::IKind::Call: {
    const CallSite &Site = Sites[SiteStart[I.getId()]];
    const size_t NumIns =
        Fns[Site.Call->getCallee()->getId()].SSA->formalIns().size();
    buildCall(F, *Site.Call, Info, {CallIns.data() + Site.In, NumIns},
              {CallOuts.data() + Site.Out, Info.Chis.size()});
    break;
  }
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
  buildEdges();

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
      const FunctionSSA &FS = *Fns[Use.Var->getParent()->getId()].SSA;
      G.Uses.push_back({Var, TLNodes[FS.tlNumber(Var) + Use.Version]});
    }
    Range.End = static_cast<uint32_t>(G.Uses.size());
  }
  return std::move(G);
}
