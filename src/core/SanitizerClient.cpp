//===- core/SanitizerClient.cpp - Multi-client sanitizer framework ----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/SanitizerClient.h"

#include "analysis/PointerAnalysis.h"
#include "core/Definedness.h"
#include "core/Instrumentation.h"
#include "core/Placement.h"
#include "ir/IR.h"
#include "runtime/CostModel.h"
#include "support/SCC.h"
#include "vfg/VFG.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace usher;
using namespace usher::core;
using namespace usher::ir;
using vfg::NodeOrigin;
using vfg::VFG;

const char *core::clientName(ClientKind K) {
  switch (K) {
  case ClientKind::UUV:
    return "uuv";
  case ClientKind::AddrLeak:
    return "addrleak";
  case ClientKind::Bounds:
    return "bounds";
  }
  return "?";
}

bool core::parseClientList(std::string_view List,
                           std::vector<ClientKind> &Out) {
  for (;;) {
    size_t Comma = List.find(',');
    std::string_view Name = List.substr(0, Comma);
    unsigned I = 0;
    while (I != NumClientKinds && Name != clientName(ClientKind(I)))
      ++I;
    if (I == NumClientKinds)
      return false;
    Out.push_back(ClientKind(I));
    if (Comma == std::string_view::npos)
      return true;
    List.remove_prefix(Comma + 1);
  }
}

const char *core::clientWarningText(ClientKind K) {
  switch (K) {
  case ClientKind::UUV:
    return "use of undefined value";
  case ClientKind::AddrLeak:
    return "allocated address may leak";
  case ClientKind::Bounds:
    return "out-of-bounds pointer formed";
  }
  return "?";
}

ShadowSemantics core::clientShadowSemantics(ClientKind K) {
  ShadowSemantics Sem;
  if (K != ClientKind::UUV) {
    // Taint-style clients: "no information" means clean, not bad.
    Sem.FrameInit = true;
    Sem.GlobalsFromInit = false;
  }
  return Sem;
}

//===----------------------------------------------------------------------===//
// Address-leak client
//===----------------------------------------------------------------------===//

/// Collects the AddrLeak sink set: stores whose pointer may target a
/// global object (the value escapes the process's reachable state) and
/// value-carrying returns of main (the value escapes to the exit status).
/// With \p PA null every store is conservatively a sink. With \p G the VFG
/// node of the used value is resolved (required by the planner); sinks in
/// unreachable code are dropped — they cannot execute.
static std::vector<VFG::CriticalUse>
addrLeakSinks(const Module &M, const analysis::PointerAnalysis *PA,
              const VFG *G) {
  std::vector<VFG::CriticalUse> Sinks;
  const Function *Main = M.findFunction("main");
  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->instructions()) {
        const Variable *V = nullptr;
        if (const auto *St = dyn_cast<StoreInst>(I.get())) {
          if (!St->getValue().isVar())
            continue;
          if (PA) {
            bool MayTargetGlobal = false;
            for (uint32_t L : PA->pointsTo(St->getPtr()))
              if (PA->location(L).Obj->isGlobal()) {
                MayTargetGlobal = true;
                break;
              }
            if (!MayTargetGlobal)
              continue;
          }
          V = St->getValue().getVar();
        } else if (const auto *R = dyn_cast<RetInst>(I.get())) {
          if (F.get() != Main || !R->getValue().isVar())
            continue;
          V = R->getValue().getVar();
        } else {
          continue;
        }
        uint32_t Node = G ? G->useNode(I.get(), V) : VFG::RootT;
        if (Node == ~0u)
          continue;
        Sinks.push_back({I.get(), V, Node});
      }
    }
  }
  return Sinks;
}

/// The planner hooks that make the UUV rules plan taint: allocations are
/// the sources, fresh cells and void returns are clean, and only the
/// \p Sinks are checked.
static PlannerOptions
addrLeakHooks(const std::vector<VFG::CriticalUse> &Sinks) {
  PlannerOptions Hooks;
  Hooks.Sinks = &Sinks;
  Hooks.AllocResultsAreSources = true;
  Hooks.ObjectsStartClean = true;
  Hooks.VoidRetShadow = true;
  return Hooks;
}

static ClientPlanInfo buildAddrLeakGuided(const ClientBuildInputs &In) {
  assert(In.PA && In.G &&
         "guided addrleak plan needs the full analysis pipeline");
  const VFG &G = *In.G;

  // Sources: every allocation's result pointer is born tainted.
  std::vector<uint32_t> Seeds;
  for (uint32_t Id = 2; Id != G.numNodes(); ++Id)
    if (G.origin(Id) == NodeOrigin::AllocPtr)
      Seeds.push_back(Id);

  // Taint reachability: the identical context-sensitive machinery as UUV
  // definedness, seeded from the sources instead of the F root.
  DefinednessOptions DefOpts;
  DefOpts.ContextK = In.ContextK;
  DefOpts.AddressTakenAware = true;
  DefOpts.Seeds = &Seeds;
  Definedness Taint(G, DefOpts);

  std::vector<VFG::CriticalUse> Sinks = addrLeakSinks(In.M, In.PA, In.G);

  InstrumentationPlanner Planner(In.M, G, Taint, addrLeakHooks(Sinks));

  ClientPlanInfo Info(ClientKind::AddrLeak, Planner.run());
  Info.SinkCandidates = Sinks.size();
  for (const VFG::CriticalUse &Use : Sinks)
    if (Taint.mayBeUndefined(Use.Node))
      ++Info.UnsafeSinks;
  Info.ChosenChecks = Info.Plan.countChecks();
  return Info;
}

static ClientPlanInfo buildAddrLeakFull(const ClientBuildInputs &In) {
  std::vector<VFG::CriticalUse> Sinks = addrLeakSinks(In.M, In.PA, nullptr);
  ClientPlanInfo Info(ClientKind::AddrLeak,
                      buildFullInstrumentation(In.M, addrLeakHooks(Sinks)));
  Info.SinkCandidates = Sinks.size();
  Info.UnsafeSinks = Sinks.size();
  Info.ChosenChecks = Info.Plan.countChecks();
  return Info;
}

//===----------------------------------------------------------------------===//
// Bounds client
//===----------------------------------------------------------------------===//

/// All costs enter the placement knapsack scaled to integers.
static constexpr double CostScale = 100.0;
/// Coverage weight of a site inside a CFG cycle versus straight-line code.
static constexpr uint64_t LoopWeight = 8;

/// True if the CheckBounds after \p FA can never warn, by provenance: the
/// formed pointer either traps natively first, or its base is provably a
/// fresh object-base pointer (field 0) and the constant index stays inside
/// every object the base can name. Points-to sets are deliberately NOT
/// consulted: the loc domain has no representation for a pointer that is
/// already out of range, so "every pointee's field fits" would silently
/// miss geps whose base went out of bounds earlier.
static bool boundsStaticallySafe(const FieldAddrInst *FA) {
  if (!FA->getIndex().isConst())
    return false;
  int64_t C = FA->getIndex().getConst();
  if (C < 0)
    return true; // Negative indices trap natively before any after-op.
  const Operand &Base = FA->getBase();
  if (Base.isConst() || Base.isNone())
    return true; // Non-pointer bases trap natively.
  if (Base.isGlobal())
    return static_cast<uint64_t>(C) < Base.getGlobal()->getNumFields();

  const Variable *V = Base.getVar();
  if (V->isParam())
    return false; // The caller's value: provenance unknown.
  uint64_t MinFields = std::numeric_limits<uint64_t>::max();
  bool AnyPointerDef = false;
  for (const auto &BB : V->getParent()->blocks()) {
    for (const auto &I : BB->instructions()) {
      if (I->getDef() != V)
        continue;
      uint64_t Fields;
      if (const auto *A = dyn_cast<AllocInst>(I.get())) {
        Fields = A->getObject()->getNumFields();
      } else if (const auto *Cp = dyn_cast<CopyInst>(I.get())) {
        if (Cp->getSrc().isConst())
          continue; // Never yields a pointer; a gep on it traps.
        if (!Cp->getSrc().isGlobal())
          return false;
        Fields = Cp->getSrc().getGlobal()->getNumFields();
      } else {
        return false;
      }
      AnyPointerDef = true;
      MinFields = std::min(MinFields, Fields);
    }
  }
  if (!AnyPointerDef)
    return true; // V can only hold integers (or stay uninitialized).
  return static_cast<uint64_t>(C) < MinFields;
}

static ShadowOp checkBoundsOp(const Instruction *FA) {
  ShadowOp Op;
  Op.K = ShadowOp::Kind::CheckBounds;
  Op.Ptr = Operand::var(FA->getDef());
  return Op;
}

/// Marks, per block id, whether the block sits on a CFG cycle (member of a
/// successor-graph SCC of size > 1, or self-looping). Loop membership is
/// the coverage/cost weight of the budgeted placement.
static std::vector<uint8_t> blocksInCycle(const Function &F) {
  const size_t N = F.blocks().size();
  std::vector<std::vector<uint32_t>> Succs(N);
  std::vector<BasicBlock *> Tmp;
  for (const auto &BB : F.blocks()) {
    Tmp.clear();
    BB->getSuccessors(Tmp);
    for (BasicBlock *S : Tmp)
      Succs[BB->getId()].push_back(S->getId());
  }

  std::vector<uint8_t> InCycle(N, 0);
  forEachSCC(
      static_cast<uint32_t>(N),
      [&](uint32_t U) -> const std::vector<uint32_t> & { return Succs[U]; },
      [](uint32_t V) { return V; },
      [&](uint32_t Root, const std::vector<uint32_t> &Comp) {
        bool Cyclic = Comp.size() > 1 ||
                      std::find(Succs[Root].begin(), Succs[Root].end(),
                                Root) != Succs[Root].end();
        if (Cyclic)
          for (uint32_t M : Comp)
            InCycle[M] = 1;
      });
  return InCycle;
}

/// Blocks reachable from the entry (unreachable sites cannot execute, so
/// the guided plan does not spend budget on them).
static std::vector<uint8_t> reachableBlocks(const Function &F) {
  std::vector<uint8_t> Seen(F.blocks().size(), 0);
  std::vector<BasicBlock *> Tmp;
  std::vector<uint32_t> Work{F.getEntry()->getId()};
  Seen[F.getEntry()->getId()] = 1;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    Tmp.clear();
    F.blocks()[B]->getSuccessors(Tmp);
    for (BasicBlock *S : Tmp)
      if (!Seen[S->getId()]) {
        Seen[S->getId()] = 1;
        Work.push_back(S->getId());
      }
  }
  return Seen;
}

static ClientPlanInfo buildBoundsGuided(const ClientBuildInputs &In) {
  const Module &M = In.M;
  runtime::CostModel Model;
  ClientPlanInfo Info(ClientKind::Bounds, InstrumentationPlan(M));

  std::vector<const Instruction *> Sites;
  std::vector<PlacementCandidate> Cands;
  const uint64_t CheckCost =
      static_cast<uint64_t>(std::llround(Model.CheckBounds * CostScale));
  uint64_t ScaledBase = 0;
  for (const auto &F : M.functions()) {
    std::vector<uint8_t> Reach = reachableBlocks(*F);
    std::vector<uint8_t> InCycle = blocksInCycle(*F);
    for (const auto &BB : F->blocks()) {
      if (!Reach[BB->getId()])
        continue;
      uint64_t W = InCycle[BB->getId()] ? LoopWeight : 1;
      for (const auto &I : BB->instructions()) {
        ScaledBase +=
            static_cast<uint64_t>(std::llround(Model.baseCost(*I) *
                                               CostScale)) *
            W;
        const auto *FA = dyn_cast<FieldAddrInst>(I.get());
        if (!FA)
          continue;
        ++Info.SinkCandidates;
        if (boundsStaticallySafe(FA))
          continue;
        ++Info.UnsafeSinks;
        Sites.push_back(I.get());
        Cands.push_back({W, CheckCost * W});
      }
    }
  }

  uint64_t Capacity = std::numeric_limits<uint64_t>::max();
  if (In.BoundsBudgetPercent)
    Capacity = ScaledBase / 100 * In.BoundsBudgetPercent +
               ScaledBase % 100 * In.BoundsBudgetPercent / 100;
  PlacementResult R = solvePlacement(Cands, Capacity);
  for (size_t I = 0; I != Sites.size(); ++I)
    if (R.Chosen[I])
      Info.Plan.addAfter(Sites[I], checkBoundsOp(Sites[I]));

  Info.ChosenChecks = Info.Plan.countChecks();
  Info.PlacementCapacity = In.BoundsBudgetPercent ? Capacity : 0;
  Info.PlacementCost = R.TotalCost;
  Info.CapacityBound = R.CapacityBound;
  return Info;
}

static ClientPlanInfo buildBoundsFull(const ClientBuildInputs &In) {
  const Module &M = In.M;
  ClientPlanInfo Info(ClientKind::Bounds, InstrumentationPlan(M));
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (isa<FieldAddrInst>(I.get())) {
          ++Info.SinkCandidates;
          Info.Plan.addAfter(I.get(), checkBoundsOp(I.get()));
        }
  Info.UnsafeSinks = Info.SinkCandidates;
  Info.ChosenChecks = Info.Plan.countChecks();
  return Info;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

ClientPlanInfo core::buildClientPlan(ClientKind K,
                                     const ClientBuildInputs &In) {
  switch (K) {
  case ClientKind::AddrLeak:
    return buildAddrLeakGuided(In);
  case ClientKind::Bounds:
    return buildBoundsGuided(In);
  case ClientKind::UUV:
    break;
  }
  assert(false && "the UUV client is planned by runUsher itself");
  return ClientPlanInfo(ClientKind::UUV, InstrumentationPlan(In.M));
}

ClientPlanInfo core::buildClientFullPlan(ClientKind K,
                                         const ClientBuildInputs &In) {
  switch (K) {
  case ClientKind::AddrLeak:
    return buildAddrLeakFull(In);
  case ClientKind::Bounds:
    return buildBoundsFull(In);
  case ClientKind::UUV:
    break;
  }
  assert(false && "the UUV client is planned by runUsher itself");
  return ClientPlanInfo(ClientKind::UUV, InstrumentationPlan(In.M));
}
