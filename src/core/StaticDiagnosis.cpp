//===- core/StaticDiagnosis.cpp - Static UUV diagnosis ---------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/StaticDiagnosis.h"

#include "analysis/CFG.h"
#include "analysis/CallGraph.h"
#include "analysis/DemandVFA.h"
#include "analysis/Dominators.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <unordered_set>

using namespace usher;
using namespace usher::core;
using namespace usher::ir;
using vfg::Edge;
using vfg::EdgeKind;
using vfg::NodeOrigin;
using vfg::VFG;

/// Witness search caps: explored (node, context) states overall, and
/// distinct contexts remembered per node (matching the Definedness
/// saturation cap keeps the search able to reach whatever Gamma reached).
static constexpr size_t MaxWitnessStates = size_t(1) << 20;
static constexpr size_t MaxContextsPerNode = 64;

const char *core::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Clean:
    return "clean";
  case Verdict::May:
    return "may";
  case Verdict::Definite:
    return "definite";
  }
  return "?";
}

StaticDiagnosis::StaticDiagnosis(const analysis::PointerAnalysis &PA,
                                 const analysis::CallGraph &CG, const VFG &G,
                                 DiagnosisOptions Opts)
    : PA(PA), G(G), Opts(Opts) {
  // The engine's own may-analysis: always address-taken aware and
  // unbudgeted, so verdicts do not depend on the caller's variant or on
  // any degradation its pipeline went through.
  DefinednessOptions DefOpts;
  DefOpts.ContextK = ContextK;
  DefOpts.AddressTakenAware = true;
  Gamma = std::make_unique<Definedness>(G, DefOpts);

  computeMustUndef(CG);
  computeMustFire(CG);
  classify();
  reconstructWitnesses();

  for (Verdict V : Report.UseVerdicts) {
    switch (V) {
    case Verdict::Clean:
      ++Report.NumClean;
      break;
    case Verdict::May:
      ++Report.NumMay;
      break;
    case Verdict::Definite:
      ++Report.NumDefinite;
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Must-undef fixpoint
//===----------------------------------------------------------------------===//

void StaticDiagnosis::computeMustUndef(const analysis::CallGraph &CG) {
  const uint32_t N = G.numNodes();
  MustUndef.resize(N);
  MustUndef.set(VFG::RootF);

  // An alloc_F chi over an "exact cell" — one field of a non-array,
  // non-collapsed object with at most one live instance (stack storage in
  // a non-recursive function) — leaves that single cell undefined
  // unconditionally: the anchored F-arm rule.
  auto IsExactUninitCell = [&](uint32_t Id) {
    uint32_t Loc = G.node(Id).Key.Id;
    if (PA.isCollapsedLoc(Loc))
      return false;
    const MemObject *Obj = PA.location(Loc).Obj;
    if (Obj->isInitialized() || Obj->isArray() || !Obj->isStack())
      return false;
    const Instruction *Site = Obj->getAllocSite();
    const Function *AllocFn =
        Site ? Site->getParent()->getParent() : nullptr;
    return AllocFn && !CG.isRecursive(AllocFn);
  };

  // Per-provenance transfer rule: conjunctive defs taint from ANY
  // undefined dependency; merge nodes demand ALL dependencies undefined
  // unless the default posture admits the ANY rule for their class (the
  // anchor-coverage hypothesis; see DESIGN.md). Must-undef is restricted
  // to Gamma-bottom nodes, so DEFINITE is always a refinement of MAY.
  auto Eval = [&](uint32_t Id) {
    if (G.isRoot(Id) || !Gamma->mayBeUndefined(Id))
      return false;
    std::span<const Edge> Deps = G.deps(Id);
    if (Deps.empty())
      return false;
    auto AnyDep = [&] {
      for (const Edge &E : Deps)
        if (MustUndef.test(E.Node))
          return true;
      return false;
    };
    auto AllDeps = [&] {
      for (const Edge &E : Deps)
        if (!MustUndef.test(E.Node))
          return false;
      return true;
    };
    switch (G.origin(Id)) {
    case NodeOrigin::CopyDef:
    case NodeOrigin::BinOpDef:
    case NodeOrigin::FieldAddrDef:
    case NodeOrigin::EntryDef:
    case NodeOrigin::StoreChiStrong:
      return AnyDep();
    case NodeOrigin::AllocPtr:
      return false; // The pointer itself is always defined.
    case NodeOrigin::AllocChi:
      if (!Opts.Conservative && IsExactUninitCell(Id))
        return true;
      return AllDeps();
    case NodeOrigin::CloneAllocChi:
    case NodeOrigin::StoreChiSemi:
    case NodeOrigin::StoreChiWeak:
    case NodeOrigin::CallModChi:
    case NodeOrigin::LoadDef:
      return AllDeps();
    case NodeOrigin::CallResult:
    case NodeOrigin::FormalParam:
    case NodeOrigin::FormalIn:
    case NodeOrigin::Phi:
      return Opts.Conservative ? AllDeps() : AnyDep();
    case NodeOrigin::Root:
    case NodeOrigin::Unknown:
      return false;
    }
    return false;
  };

  // Least fixpoint by worklist: the initial sweep admits every node whose
  // rule already fires (unconditional anchors and direct RootF
  // dependents); each admission re-queues its users.
  std::vector<uint32_t> Work;
  for (uint32_t Id = 2; Id != N; ++Id) {
    if (Eval(Id)) {
      MustUndef.set(Id);
      Work.push_back(Id);
    }
  }
  while (!Work.empty()) {
    uint32_t S = Work.back();
    Work.pop_back();
    for (const Edge &E : G.users(S)) {
      if (MustUndef.test(E.Node))
        continue;
      if (Eval(E.Node)) {
        MustUndef.set(E.Node);
        Work.push_back(E.Node);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The must-fire gate
//===----------------------------------------------------------------------===//

/// The blocks of \p F that lie on every entry-to-return path: once F is
/// entered and runs to completion, each of them executes. These are the
/// reachable blocks that dominate every reachable return block (all
/// reachable blocks when no return is reachable).
static std::unordered_set<const BasicBlock *>
mustExecBlocks(const ir::Function &F) {
  const analysis::CFGInfo CFG(F);
  const analysis::DominatorTree DT(CFG);
  std::vector<const BasicBlock *> Rets;
  for (const BasicBlock *BB : CFG.reversePostOrder())
    if (isa<RetInst>(BB->getTerminator()))
      Rets.push_back(BB);
  std::unordered_set<const BasicBlock *> Out;
  for (const BasicBlock *BB : CFG.reversePostOrder())
    if (std::ranges::all_of(
            Rets, [&](const BasicBlock *R) { return DT.dominates(BB, R); }))
      Out.insert(BB);
  return Out;
}

void StaticDiagnosis::computeMustFire(const analysis::CallGraph &CG) {
  // Find the program entry through any critical use's module; with no
  // critical uses there is nothing to gate.
  const std::vector<VFG::CriticalUse> &Uses = G.criticalUses();
  if (Uses.empty())
    return;
  const ir::Module *M = Uses.front().I->getParent()->getParent()->getParent();
  const Function *Main = M->findFunction("main");
  if (!Main)
    return;

  auto Enter = [&](const Function *F, std::vector<const Function *> &Work) {
    if (!Entered.insert(F).second)
      return;
    MustExec.emplace(F, mustExecBlocks(*F));
    Work.push_back(F);
  };

  std::vector<const Function *> Work;
  Enter(Main, Work);
  while (!Work.empty()) {
    const Function *F = Work.back();
    Work.pop_back();
    if (!Opts.Conservative) {
      // Function-coverage hypothesis: every statically reachable callee
      // is entered at least once.
      for (const Function *Callee : CG.calleesOf(F))
        Enter(Callee, Work);
    } else {
      // Conservative: only callees of call sites that themselves must
      // execute count as entered.
      const auto &Exec = MustExec.find(F)->second;
      for (const ir::CallInst *Site : CG.callSitesIn(F))
        if (Exec.count(Site->getParent()))
          Enter(Site->getCallee(), Work);
    }
  }
}

bool StaticDiagnosis::mustFire(const ir::Instruction *I) const {
  const Function *F = I->getParent()->getParent();
  auto It = MustExec.find(F);
  return It != MustExec.end() && It->second.count(I->getParent());
}

//===----------------------------------------------------------------------===//
// Classification and witness reconstruction
//===----------------------------------------------------------------------===//

void StaticDiagnosis::classify() {
  const std::vector<VFG::CriticalUse> &Uses = G.criticalUses();
  Report.UseVerdicts.resize(Uses.size(), Verdict::Clean);
  for (size_t Idx = 0; Idx != Uses.size(); ++Idx) {
    const VFG::CriticalUse &Use = Uses[Idx];
    if (Gamma->isDefined(Use.Node))
      continue;
    Verdict V = MustUndef.test(Use.Node) && mustFire(Use.I)
                    ? Verdict::Definite
                    : Verdict::May;
    Report.UseVerdicts[Idx] = V;
    Report.Findings.push_back({Use.I, Use.Var, Use.Node, V, {}});
  }
  std::sort(Report.Findings.begin(), Report.Findings.end(),
            [](const Finding &A, const Finding &B) {
              return A.I->getId() < B.I->getId();
            });
}

void StaticDiagnosis::reconstructWitnesses() {
  if (Report.Findings.empty())
    return;
  // One search forward from the F root; first arrival at a node is a
  // shortest context-valid slice to it. A finding whose node is not
  // reached within the caps keeps an empty witness and, if DEFINITE, is
  // downgraded to MAY (must-precision is only claimed for witnessed
  // findings).
  analysis::PathSearchLimits L;
  L.MaxStates = MaxWitnessStates;
  L.MaxContextsPerNode = MaxContextsPerNode;
  analysis::PathSearch S = analysis::searchPaths(G, VFG::RootF, ContextK, L);

  for (Finding &F : Report.Findings) {
    F.Witness = S.witness(F.UseNode);
    if (F.Witness.empty() && F.V == Verdict::Definite)
      F.V = Verdict::May;
  }
  // Witness-failure downgrades must be reflected in UseVerdicts too.
  const std::vector<VFG::CriticalUse> &Uses = G.criticalUses();
  for (size_t Idx = 0; Idx != Uses.size(); ++Idx)
    if (Report.UseVerdicts[Idx] == Verdict::Definite &&
        !S.reached(Uses[Idx].Node))
      Report.UseVerdicts[Idx] = Verdict::May;
}

std::vector<VFG::DotVerdict> StaticDiagnosis::dotVerdicts() const {
  std::vector<VFG::DotVerdict> Out(G.numNodes(), VFG::DotVerdict::Clean);
  for (uint32_t Id = 0; Id != G.numNodes(); ++Id) {
    if (MustUndef.test(Id))
      Out[Id] = VFG::DotVerdict::Definite;
    else if (Gamma->mayBeUndefined(Id))
      Out[Id] = VFG::DotVerdict::May;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

void StaticDiagnosis::describeNode(raw_ostream &OS, uint32_t Node) const {
  if (Node == VFG::RootT) {
    OS << "T";
    return;
  }
  if (Node == VFG::RootF) {
    OS << "F";
    return;
  }
  const VFG::NodeData &N = G.node(Node);
  OS << N.Fn->getName() << ':';
  if (N.Key.Sp == ssa::Space::TopLevel) {
    OS << N.Fn->variables()[N.Key.Id]->getName();
  } else {
    const analysis::PtLoc &L = PA.location(N.Key.Id);
    OS << L.Obj->getName();
    if (L.Obj->getNumFields() > 1)
      OS << '.' << L.Field;
  }
  OS << ".v" << N.Version;
  if (G.origin(Node) != NodeOrigin::Unknown)
    OS << " [" << nodeOriginName(G.origin(Node)) << ']';
}

static void printLoc(raw_ostream &OS, const Instruction *I) {
  SourceLoc L = I->getLoc();
  if (L.isValid())
    OS << L.Line << ':' << L.Col;
  else
    OS << "inst#" << I->getId();
}

void StaticDiagnosis::printText(raw_ostream &OS) const {
  OS << "static diagnosis: " << G.criticalUses().size()
     << " critical uses, " << Report.NumClean << " clean, " << Report.NumMay
     << " may, " << Report.NumDefinite << " definite\n";
  for (const Finding &F : Report.Findings) {
    OS << (F.V == Verdict::Definite ? "error" : "warning") << ": ";
    printLoc(OS, F.I);
    OS << ": " << verdictName(F.V) << " use of undefined value '"
       << F.Var->getName() << "' in "
       << F.I->getParent()->getParent()->getName() << ": ";
    F.I->print(OS);
    OS << '\n';
    if (F.Witness.empty()) {
      OS << "  (no witness: search capped)\n";
      continue;
    }
    OS << "  value flow:\n";
    for (size_t Pos = 0; Pos != F.Witness.size(); ++Pos) {
      OS << "    ";
      describeNode(OS, F.Witness[Pos].Node);
      // Each step carries the edge into it; print it after its source.
      if (Pos + 1 != F.Witness.size()) {
        const analysis::QueryStep &Next = F.Witness[Pos + 1];
        if (Next.Kind == EdgeKind::Call)
          OS << "  --call@" << Next.CallSite << "-->";
        else if (Next.Kind == EdgeKind::Ret)
          OS << "  --ret@" << Next.CallSite << "-->";
        else
          OS << "  -->";
      }
      OS << '\n';
    }
  }
}

void StaticDiagnosis::printJson(raw_ostream &OS) const {
  using Layout = JsonWriter::Layout;
  JsonWriter W(OS);
  W.beginObject().members("schema", "usher-diagnosis-v1");
  W.key("summary").beginObject(Layout::Inline);
  W.members("critical_uses", G.criticalUses().size(),
            "clean", Report.NumClean, "may", Report.NumMay,
            "definite", Report.NumDefinite);
  W.end().key("findings").beginArray();
  for (const Finding &F : Report.Findings) {
    std::string Text;
    {
      raw_string_ostream TS(Text);
      F.I->print(TS);
    }
    W.beginObject().members(
        "ruleId", "usher-uuv", "client", "uuv",
        "severity", F.V == Verdict::Definite ? "error" : "warning",
        "verdict", verdictName(F.V),
        "function", F.I->getParent()->getParent()->getName(),
        "instructionId", F.I->getId(), "instruction", Text);
    W.key("location").beginObject(Layout::Inline);
    W.members("line", F.I->getLoc().Line, "col", F.I->getLoc().Col).end();
    W.members("var", F.Var->getName()).key("codeFlow").beginArray();
    for (size_t Pos = 0; Pos != F.Witness.size(); ++Pos) {
      std::string Desc;
      {
        raw_string_ostream DS(Desc);
        describeNode(DS, F.Witness[Pos].Node);
      }
      W.beginObject(Layout::Inline)
          .members("nodeId", F.Witness[Pos].Node, "desc", Desc);
      if (Pos + 1 != F.Witness.size()) {
        const analysis::QueryStep &Next = F.Witness[Pos + 1];
        W.key("edgeToNext").beginObject(Layout::Inline);
        W.members("kind", Next.Kind == EdgeKind::Call  ? "call"
                          : Next.Kind == EdgeKind::Ret ? "ret"
                                                       : "direct");
        if (Next.CallSite != ~0u)
          W.members("callSite", Next.CallSite);
        W.end();
      }
      W.end();
    }
    W.end().end();
  }
  W.end().end();
}
