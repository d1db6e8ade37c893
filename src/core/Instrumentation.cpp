//===- core/Instrumentation.cpp - Guided & full instrumentation ------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/Instrumentation.h"

#include "ir/IR.h"
#include "ssa/MemorySSA.h"
#include "support/Budget.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace usher;
using namespace usher::core;
using namespace usher::ir;
using ssa::ChiKind;
using ssa::DefDesc;
using ssa::FunctionSSA;
using ssa::InstSSA;
using ssa::MemDef;
using ssa::MemorySSA;
using ssa::Space;
using vfg::Edge;
using vfg::EdgeKind;
using vfg::UpdateKind;
using vfg::VFG;

//===----------------------------------------------------------------------===//
// Full (MSan-style) instrumentation
//===----------------------------------------------------------------------===//

/// The variable UUV's MSan baseline checks before \p I: the pointer of a
/// load or store, the condition of a branch.
static const Variable *syntacticCheck(const Instruction &I) {
  Operand Op;
  if (const auto *L = dyn_cast<LoadInst>(&I))
    Op = L->getPtr();
  else if (const auto *St = dyn_cast<StoreInst>(&I))
    Op = St->getPtr();
  else if (const auto *B = dyn_cast<CondBrInst>(&I))
    Op = B->getCond();
  return Op.isVar() ? Op.getVar() : nullptr;
}

InstrumentationPlan core::buildFullInstrumentation(const Module &M,
                                                   const PlannerOptions &Hooks) {
  InstrumentationPlan Plan(M);

  std::vector<const Variable *> SinkVar;
  if (Hooks.Sinks) {
    SinkVar.assign(M.instructionCount(), nullptr);
    for (const VFG::CriticalUse &Use : *Hooks.Sinks) {
      assert(!SinkVar[Use.I->getId()] && "one sink per instruction");
      SinkVar[Use.I->getId()] = Use.Var;
    }
  }

  auto SetVar = [](const Variable *Dst, ShadowVal Src) {
    ShadowOp Op;
    Op.K = ShadowOp::Kind::SetVar;
    Op.Dst = Dst;
    Op.Srcs = {Src};
    return Op;
  };

  for (const auto &F : M.functions()) {
    for (size_t Idx = 0; Idx != F->params().size(); ++Idx) {
      ShadowOp Op;
      Op.K = ShadowOp::Kind::ParamIn;
      Op.Dst = F->params()[Idx];
      Op.Index = static_cast<uint32_t>(Idx);
      Plan.addEntry(F.get(), std::move(Op));
    }
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->instructions()) {
        // The check, if any, runs before every other op of the statement.
        if (const Variable *V = Hooks.Sinks ? SinkVar[I->getId()]
                                            : syntacticCheck(*I)) {
          ShadowOp Op;
          Op.K = ShadowOp::Kind::Check;
          Op.Srcs = {ShadowVal::var(V)};
          Plan.addBefore(I.get(), std::move(Op));
        }
        switch (I->getKind()) {
        case Instruction::IKind::Copy:
          Plan.addAfter(I.get(),
                        SetVar(I->getDef(), ShadowVal::operand(
                                                cast<CopyInst>(I.get())
                                                    ->getSrc())));
          break;
        case Instruction::IKind::BinOp: {
          const auto *B = cast<BinOpInst>(I.get());
          ShadowOp Op;
          Op.K = ShadowOp::Kind::AndVar;
          Op.Dst = B->getDef();
          Op.Srcs = {ShadowVal::operand(B->getLHS()),
                     ShadowVal::operand(B->getRHS())};
          Plan.addAfter(I.get(), std::move(Op));
          break;
        }
        case Instruction::IKind::Alloc: {
          const auto *A = cast<AllocInst>(I.get());
          Plan.addAfter(I.get(),
                        SetVar(A->getDef(), ShadowVal::literal(
                                                !Hooks.AllocResultsAreSources)));
          ShadowOp Op;
          Op.K = ShadowOp::Kind::SetMemObject;
          Op.Ptr = Operand::var(A->getDef());
          Op.Srcs = {ShadowVal::literal(Hooks.ObjectsStartClean ||
                                        A->getObject()->isInitialized())};
          Plan.addAfter(I.get(), std::move(Op));
          break;
        }
        case Instruction::IKind::FieldAddr: {
          const auto *G = cast<FieldAddrInst>(I.get());
          ShadowOp Op;
          Op.K = ShadowOp::Kind::AndVar;
          Op.Dst = G->getDef();
          Op.Srcs = {ShadowVal::operand(G->getBase()),
                     ShadowVal::operand(G->getIndex())};
          Plan.addAfter(I.get(), std::move(Op));
          break;
        }
        case Instruction::IKind::Load: {
          const auto *L = cast<LoadInst>(I.get());
          ShadowOp Op;
          Op.K = ShadowOp::Kind::LoadMem;
          Op.Dst = L->getDef();
          Op.Ptr = L->getPtr();
          Plan.addAfter(I.get(), std::move(Op));
          break;
        }
        case Instruction::IKind::Store: {
          const auto *St = cast<StoreInst>(I.get());
          ShadowOp Op;
          Op.K = ShadowOp::Kind::SetMemCell;
          Op.Ptr = St->getPtr();
          Op.Srcs = {ShadowVal::operand(St->getValue())};
          Plan.addAfter(I.get(), std::move(Op));
          break;
        }
        case Instruction::IKind::Call: {
          const auto *C = cast<CallInst>(I.get());
          for (size_t Idx = 0; Idx != C->getArgs().size(); ++Idx) {
            ShadowOp Op;
            Op.K = ShadowOp::Kind::ArgOut;
            Op.Index = static_cast<uint32_t>(Idx);
            Op.Srcs = {ShadowVal::operand(C->getArgs()[Idx])};
            Plan.addBefore(I.get(), std::move(Op));
          }
          if (C->getDef()) {
            ShadowOp Op;
            Op.K = ShadowOp::Kind::RetIn;
            Op.Dst = C->getDef();
            Plan.addAfter(I.get(), std::move(Op));
          }
          break;
        }
        case Instruction::IKind::Ret: {
          const auto *R = cast<RetInst>(I.get());
          ShadowOp Op;
          Op.K = ShadowOp::Kind::RetOut;
          Op.Srcs = {R->getValue().isNone()
                         ? ShadowVal::literal(Hooks.VoidRetShadow)
                         : ShadowVal::operand(R->getValue())};
          Plan.addBefore(I.get(), std::move(Op));
          break;
        }
        case Instruction::IKind::CondBr:
        case Instruction::IKind::Goto:
          break;
        }
      }
    }
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Guided instrumentation planner
//===----------------------------------------------------------------------===//

class InstrumentationPlanner::Impl {
public:
  Impl(const Module &M, const MemorySSA &SSA, const VFG &G,
       const Definedness &Gamma, PlannerOptions Opts)
      : M(M), SSA(SSA), G(G), Gamma(Gamma), Opts(Opts), Plan(M) {
    for (const auto &F : M.functions()) {
      for (const auto &BB : F->blocks())
        for (const auto &I : BB->instructions()) {
          if (const auto *C = dyn_cast<CallInst>(I.get()))
            CallById[C->getId()] = C;
          if (const Variable *Def = I->getDef())
            ++DefCounts[Def];
        }
    }
  }

  InstrumentationPlan run();
  uint64_t numSimplifiedMFCs() const { return SimplifiedMFCs; }

private:
  void demand(uint32_t Node) {
    if (Node >= Demanded.size() || Demanded[Node])
      return;
    Demanded[Node] = 1;
    Work.push_back(Node);
  }

  void demandAllDeps(uint32_t Node) {
    for (const Edge &E : G.deps(Node))
      demand(E.Node);
  }

  void process(uint32_t Node);
  void processTopLevel(uint32_t Node, const VFG::NodeData &N,
                       const FunctionSSA &FS, const DefDesc &Desc);
  void processMemory(uint32_t Node, const VFG::NodeData &N,
                     const FunctionSSA &FS, const DefDesc &Desc);
  bool trySimplifyMFC(const VFG::NodeData &N, const FunctionSSA &FS,
                      const Instruction *I0);
  void emitRetOutsOf(const Function *Callee);
  void prepassTopLevelOnly();

  /// Node of a variable operand as used by instruction \p I.
  uint32_t useNode(const Function *Fn, const InstSSA &Info,
                   const Variable *V) const {
    for (const ssa::TLUse &Use : Info.TLUses)
      if (Use.Var == V)
        return G.nodeId(Fn, {Space::TopLevel, V->getId()}, Use.Version);
    assert(false && "no recorded use for operand variable");
    return VFG::RootT;
  }

  static ShadowOp setVar(const Variable *Dst, ShadowVal Src) {
    ShadowOp Op;
    Op.K = ShadowOp::Kind::SetVar;
    Op.Dst = Dst;
    Op.Srcs = {Src};
    return Op;
  }

  const Module &M;
  const MemorySSA &SSA;
  const VFG &G;
  const Definedness &Gamma;
  PlannerOptions Opts;
  InstrumentationPlan Plan;

  std::vector<uint8_t> Demanded;
  std::vector<uint32_t> Work;
  std::unordered_map<uint32_t, const CallInst *> CallById;
  std::unordered_map<const Variable *, unsigned> DefCounts;
  std::unordered_set<const Instruction *> RetOutEmitted;
  std::unordered_set<const Function *> RetOutsEmittedFor;
  std::unordered_set<const Instruction *> MemWriteEmitted;
  uint64_t SimplifiedMFCs = 0;
};

void InstrumentationPlanner::Impl::prepassTopLevelOnly() {
  // The top-level-only variant cannot reason about which store feeds which
  // load, so every store and allocation shadows memory unconditionally.
  for (const auto &F : M.functions()) {
    const FunctionSSA &FS = SSA.get(F.get());
    for (const auto &BB : F->blocks()) {
      if (!FS.getCFG().isReachable(BB->getId()))
        continue;
      for (const auto &I : BB->instructions()) {
        if (const auto *St = dyn_cast<StoreInst>(I.get())) {
          ShadowOp Op;
          Op.K = ShadowOp::Kind::SetMemCell;
          Op.Ptr = St->getPtr();
          Op.Srcs = {ShadowVal::operand(St->getValue())};
          Plan.addAfter(I.get(), std::move(Op));
          if (St->getValue().isVar())
            demand(useNode(F.get(), *FS.instInfo(I.get()),
                           St->getValue().getVar()));
        } else if (const auto *A = dyn_cast<AllocInst>(I.get())) {
          ShadowOp Op;
          Op.K = ShadowOp::Kind::SetMemObject;
          Op.Ptr = Operand::var(A->getDef());
          Op.Srcs = {ShadowVal::literal(A->getObject()->isInitialized())};
          Plan.addAfter(I.get(), std::move(Op));
        }
      }
    }
  }
}

void InstrumentationPlanner::Impl::emitRetOutsOf(const Function *Callee) {
  if (!RetOutsEmittedFor.insert(Callee).second)
    return;
  const FunctionSSA &FS = SSA.get(Callee);
  for (const auto &BB : Callee->blocks()) {
    if (!FS.getCFG().isReachable(BB->getId()))
      continue;
    for (const auto &I : BB->instructions()) {
      const auto *R = dyn_cast<RetInst>(I.get());
      if (!R || !RetOutEmitted.insert(R).second)
        continue;
      ShadowOp Op;
      Op.K = ShadowOp::Kind::RetOut;
      Op.Srcs = {R->getValue().isNone()
                     ? ShadowVal::literal(Opts.VoidRetShadow)
                     : ShadowVal::operand(R->getValue())};
      Plan.addBefore(R, std::move(Op));
    }
  }
}

bool InstrumentationPlanner::Impl::trySimplifyMFC(const VFG::NodeData &N,
                                                  const FunctionSSA &FS,
                                                  const Instruction *I0) {
  // Each simplification attempt is one Opt I budget step. Declining to
  // simplify is always sound: the caller falls through to the normal
  // Figure 7 shadow-propagation rule for this closure.
  if (Opts.B && !Opts.B->step())
    return false;
  // Expand the must-flow-from closure (Definition 2) of I0's def. To keep
  // runtime shadow slots (which are per-variable, not per-version) valid
  // at I0, every variable read beyond depth 0 must have exactly one static
  // def, which then necessarily dominates I0 through the chain.
  struct SourceInfo {
    const Variable *Var;
    uint32_t Node;
  };
  std::vector<SourceInfo> Sources;
  unsigned Interior = 0;
  constexpr unsigned MaxDepth = 8, MaxSources = 16;

  std::function<bool(const Instruction *, unsigned)> Expand =
      [&](const Instruction *I, unsigned Depth) -> bool {
    std::vector<Operand> Ops;
    I->collectOperands(Ops);
    const InstSSA *Info = FS.instInfo(I);
    if (!Info)
      return false;
    for (const Operand &Op : Ops) {
      if (Op.isConst() || Op.isGlobal())
        continue; // Contributes a defined value (T).
      const Variable *V = Op.getVar();
      if (Depth > 0 && DefCounts[V] != 1)
        return false; // sigma(V) at I0 may hold a different version.
      uint32_t UseN = useNode(N.Fn, *Info, V);
      const VFG::NodeData &UseData = G.node(UseN);
      const DefDesc &Desc = FS.defOf(UseData.Key, UseData.Version);
      bool ChainStep = Desc.K == DefDesc::Kind::Inst &&
                       (isa<CopyInst>(Desc.I) || isa<BinOpInst>(Desc.I)) &&
                       Depth + 1 < MaxDepth &&
                       Sources.size() < MaxSources;
      if (ChainStep) {
        ++Interior;
        if (!Expand(Desc.I, Depth + 1))
          return false;
      } else {
        if (Sources.size() >= MaxSources)
          return false;
        Sources.push_back({V, UseN});
      }
    }
    return true;
  };

  if (!Expand(I0, 0))
    return false;
  if (Interior == 0)
    return false; // Nothing bypassed; the normal rule is as good.

  ShadowOp Op;
  Op.Dst = I0->getDef();
  std::vector<ShadowVal> Srcs;
  for (const SourceInfo &S : Sources) {
    if (Gamma.isDefined(S.Node))
      continue; // Defined sources contribute T to the conjunction.
    Srcs.push_back(ShadowVal::var(S.Var));
    demand(S.Node);
  }
  if (Srcs.empty()) {
    Op.K = ShadowOp::Kind::SetVar;
    Op.Srcs = {ShadowVal::literal(true)};
  } else {
    Op.K = ShadowOp::Kind::AndVar;
    Op.Srcs = std::move(Srcs);
  }
  Plan.addAfter(I0, std::move(Op));
  ++SimplifiedMFCs;
  return true;
}

void InstrumentationPlanner::Impl::processTopLevel(uint32_t Node,
                                                   const VFG::NodeData &N,
                                                   const FunctionSSA &FS,
                                                   const DefDesc &Desc) {
  const bool Defined = Gamma.isDefined(Node);

  if (Desc.K == DefDesc::Kind::Entry) {
    const Variable *V = N.Fn->variables()[N.Key.Id].get();
    if (!V->isParam())
      return; // Frame shadows start at F: undefined-on-entry needs no code.
    uint32_t ParamIdx = ~0u;
    for (size_t Idx = 0; Idx != N.Fn->params().size(); ++Idx)
      if (N.Fn->params()[Idx] == V)
        ParamIdx = static_cast<uint32_t>(Idx);
    assert(ParamIdx != ~0u && "parameter not found in its function");
    if (Defined) {
      // [T-Para]: the parameter is provably defined on every call path.
      Plan.addEntry(N.Fn, setVar(V, ShadowVal::literal(true)));
      return;
    }
    // [B-Para]: relay the actual's shadow through the transfer register.
    ShadowOp In;
    In.K = ShadowOp::Kind::ParamIn;
    In.Dst = V;
    In.Index = ParamIdx;
    Plan.addEntry(N.Fn, std::move(In));
    for (const Edge &E : G.deps(Node)) {
      assert(E.Kind == EdgeKind::Call && "parameter with non-call dep");
      const CallInst *Call = CallById.at(E.CallSite);
      ShadowOp Out;
      Out.K = ShadowOp::Kind::ArgOut;
      Out.Index = ParamIdx;
      Out.Srcs = {ShadowVal::operand(Call->getArgs()[ParamIdx])};
      Plan.addBefore(Call, std::move(Out));
      demand(E.Node);
    }
    return;
  }

  if (Desc.K == DefDesc::Kind::Phi) {
    // [Phi]: shadows flow through the shared runtime slot; collect only.
    demandAllDeps(Node);
    return;
  }

  const Instruction *I = Desc.I;
  [[maybe_unused]] const InstSSA *CheckInfo = FS.instInfo(I);
  assert(CheckInfo && "definition in unreachable code was demanded");

  if (Defined) {
    // [T-Assign]: one strong update covers every defining statement kind.
    Plan.addAfter(I, setVar(I->getDef(), ShadowVal::literal(true)));
    return;
  }

  switch (I->getKind()) {
  case Instruction::IKind::Copy: {
    if (Opts.OptI && trySimplifyMFC(N, FS, I))
      return;
    const auto *C = cast<CopyInst>(I);
    Plan.addAfter(I, setVar(I->getDef(), ShadowVal::operand(C->getSrc())));
    demandAllDeps(Node);
    break;
  }
  case Instruction::IKind::BinOp: {
    if (Opts.OptI && trySimplifyMFC(N, FS, I))
      return;
    const auto *B = cast<BinOpInst>(I);
    ShadowOp Op;
    Op.K = ShadowOp::Kind::AndVar;
    Op.Dst = I->getDef();
    Op.Srcs = {ShadowVal::operand(B->getLHS()),
               ShadowVal::operand(B->getRHS())};
    Plan.addAfter(I, std::move(Op));
    demandAllDeps(Node);
    break;
  }
  case Instruction::IKind::FieldAddr: {
    const auto *FA = cast<FieldAddrInst>(I);
    ShadowOp Op;
    Op.K = ShadowOp::Kind::AndVar;
    Op.Dst = I->getDef();
    Op.Srcs = {ShadowVal::operand(FA->getBase()),
               ShadowVal::operand(FA->getIndex())};
    Plan.addAfter(I, std::move(Op));
    demandAllDeps(Node);
    break;
  }
  case Instruction::IKind::Alloc:
    if (Opts.AllocResultsAreSources) {
      // A taint client's source: the fresh address is born tainted.
      Plan.addAfter(I, setVar(I->getDef(), ShadowVal::literal(false)));
      break;
    }
    assert(false && "allocation results are always defined");
    break;
  case Instruction::IKind::Load: {
    // [B-Load]: read the cell's shadow; all indirect uses are tracked.
    const auto *L = cast<LoadInst>(I);
    ShadowOp Op;
    Op.K = ShadowOp::Kind::LoadMem;
    Op.Dst = I->getDef();
    Op.Ptr = L->getPtr();
    Plan.addAfter(I, std::move(Op));
    demandAllDeps(Node);
    break;
  }
  case Instruction::IKind::Call: {
    // [B-Ret]: relay the callee's return shadow through the transfer
    // register.
    ShadowOp Op;
    Op.K = ShadowOp::Kind::RetIn;
    Op.Dst = I->getDef();
    Plan.addAfter(I, std::move(Op));
    emitRetOutsOf(cast<CallInst>(I)->getCallee());
    demandAllDeps(Node);
    break;
  }
  default:
    assert(false && "instruction kind cannot define a top-level variable");
  }
}

void InstrumentationPlanner::Impl::processMemory(uint32_t Node,
                                                 const VFG::NodeData &N,
                                                 const FunctionSSA &FS,
                                                 const DefDesc &Desc) {
  if (!Opts.AddressTakenAware)
    return; // The prepass shadows memory unconditionally.

  const bool Defined = Gamma.isDefined(Node);

  if (Desc.K == DefDesc::Kind::Entry) {
    // [VPara]: virtual input parameter. Cell shadows persist across the
    // call; demand the producers at every call site. For main, the
    // runtime pre-initializes global shadows, so there is nothing to do.
    demandAllDeps(Node);
    return;
  }
  if (Desc.K == DefDesc::Kind::Phi) {
    demandAllDeps(Node);
    return;
  }

  const Instruction *I = Desc.I;
  const InstSSA *Info = FS.instInfo(I);
  assert(Info && "chi in unreachable code was demanded");
  const MemDef *Chi = nullptr;
  for (const MemDef &C : Info->Chis)
    if (C.Loc == N.Key.Id && C.NewVersion == N.Version)
      Chi = &C;
  assert(Chi && "memory def without a matching chi");

  auto DemandMemoryDeps = [&] {
    for (const Edge &E : G.deps(Node))
      if (!G.isRoot(E.Node) && G.node(E.Node).Key.Sp == Space::Memory)
        demand(E.Node);
  };

  switch (Chi->Kind) {
  case ChiKind::Alloc:
  case ChiKind::CloneAlloc: {
    // [T-Alloc] / [B-Alloc]: initialize the fresh object's shadow to its
    // actual definedness (correct in both Gamma cases); possibly-
    // undefined older instances keep being tracked.
    Variable *Ptr = I->getDef();
    if (!Ptr)
      return; // Discarded wrapper result: the clone is unreachable.
    if (MemWriteEmitted.insert(I).second) {
      const MemObject *Obj = Chi->Kind == ChiKind::Alloc
                                 ? cast<AllocInst>(I)->getObject()
                                 : nullptr;
      bool Init;
      if (Opts.ObjectsStartClean) {
        Init = true;
      } else if (Obj) {
        Init = Obj->isInitialized();
      } else {
        // All clones of a wrapper share the initialization flag (the
        // wrapper check enforces it).
        const auto &Deps = G.deps(Node);
        Init = false;
        for (const Edge &E : Deps)
          if (E.Node == VFG::RootT)
            Init = true;
      }
      ShadowOp Op;
      Op.K = ShadowOp::Kind::SetMemObject;
      Op.Ptr = Operand::var(Ptr);
      Op.Srcs = {ShadowVal::literal(Init)};
      Plan.addAfter(I, std::move(Op));
    }
    if (!Defined)
      DemandMemoryDeps();
    break;
  }
  case ChiKind::Store: {
    const auto *St = cast<StoreInst>(I);
    UpdateKind Kind = G.storeUpdateKind(St, N.Key.Id);
    if (Defined) {
      if (Kind == UpdateKind::Strong || Kind == UpdateKind::SemiStrong) {
        // [T-Store SU]: strongly update the unique cell's shadow. We
        // deviate from the paper by also applying this to semi-strong
        // updates: our semi-strong condition proves the store writes the
        // freshest instance's single cell, and without the update that
        // cell could keep a stale F shadow written by the same abstract
        // object's allocation-site instrumentation (a false positive the
        // property tests caught). The bypassed older version is still
        // tracked, as [T-Store SemiSU] requires.
        if (MemWriteEmitted.insert(I).second) {
          ShadowOp Op;
          Op.K = ShadowOp::Kind::SetMemCell;
          Op.Ptr = St->getPtr();
          Op.Srcs = {ShadowVal::literal(true)};
          Plan.addAfter(I, std::move(Op));
        }
      }
      if (Kind != UpdateKind::Strong) {
        // [T-Store WU/SemiSU]: keep tracking the surviving older values.
        DemandMemoryDeps();
      }
      return;
    }
    // [B-Store SU/WU/SemiSU]: propagate the stored value's shadow and keep
    // tracking whatever the update flavor says survives.
    if (MemWriteEmitted.insert(I).second) {
      ShadowOp Op;
      Op.K = ShadowOp::Kind::SetMemCell;
      Op.Ptr = St->getPtr();
      Op.Srcs = {ShadowVal::operand(St->getValue())};
      Plan.addAfter(I, std::move(Op));
    }
    if (St->getValue().isVar())
      demand(useNode(N.Fn, *Info, St->getValue().getVar()));
    DemandMemoryDeps();
    break;
  }
  case ChiKind::CallMod:
    // [VRet]: the callee's virtual output parameter produces this value;
    // demand it at the callee's returns (both Gamma cases).
    demandAllDeps(Node);
    break;
  }
}

void InstrumentationPlanner::Impl::process(uint32_t Node) {
  if (G.isRoot(Node))
    return;
  const VFG::NodeData &N = G.node(Node);
  const FunctionSSA &FS = SSA.get(N.Fn);
  const DefDesc &Desc = FS.defOf(N.Key, N.Version);
  if (N.Key.Sp == Space::TopLevel)
    processTopLevel(Node, N, FS, Desc);
  else
    processMemory(Node, N, FS, Desc);
}

InstrumentationPlan InstrumentationPlanner::Impl::run() {
  Demanded.assign(G.numNodes(), 0);

  if (!Opts.AddressTakenAware)
    prepassTopLevelOnly();

  // Seed from the runtime checks that are needed ([T-Check]/[B-Check]).
  // A SanitizerClient substitutes its own sink list for the UUV critical
  // uses; the demand rules below are client-agnostic.
  const std::vector<VFG::CriticalUse> &Sinks =
      Opts.Sinks ? *Opts.Sinks : G.criticalUses();
  for (const VFG::CriticalUse &Use : Sinks) {
    if (Gamma.isDefined(Use.Node))
      continue;
    ShadowOp Op;
    Op.K = ShadowOp::Kind::Check;
    Op.Srcs = {ShadowVal::var(Use.Var)};
    Plan.addBefore(Use.I, std::move(Op));
    demand(Use.Node);
  }

  while (!Work.empty()) {
    uint32_t Node = Work.back();
    Work.pop_back();
    process(Node);
  }
  return std::move(Plan);
}

//===----------------------------------------------------------------------===//
// InstrumentationPlanner facade
//===----------------------------------------------------------------------===//

InstrumentationPlanner::InstrumentationPlanner(const Module &M,
                                               const MemorySSA &SSA,
                                               const VFG &G,
                                               const Definedness &Gamma,
                                               PlannerOptions Opts)
    : PImpl(std::make_unique<Impl>(M, SSA, G, Gamma, Opts)) {}

InstrumentationPlanner::~InstrumentationPlanner() = default;

InstrumentationPlan InstrumentationPlanner::run() { return PImpl->run(); }

uint64_t InstrumentationPlanner::numSimplifiedMFCs() const {
  return PImpl->numSimplifiedMFCs();
}
