//===- core/Usher.cpp - The Usher driver ------------------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/Usher.h"

#include "core/OptII.h"
#include "ir/IR.h"
#include "support/Timer.h"

using namespace usher;
using namespace usher::core;
using namespace usher::ir;

const char *core::toolVariantName(ToolVariant V) {
  switch (V) {
  case ToolVariant::MSanFull:
    return "MSAN";
  case ToolVariant::UsherTL:
    return "USHER-TL";
  case ToolVariant::UsherTLAT:
    return "USHER-TL+AT";
  case ToolVariant::UsherOptI:
    return "USHER-OPTI";
  case ToolVariant::UsherFull:
    return "USHER";
  }
  return "?";
}

std::string DegradationReport::summary() const {
  if (!Degraded)
    return "";
  std::string S = "degraded ";
  S += toolVariantName(Requested);
  S += " -> ";
  S += toolVariantName(Rung);
  S += ":";
  for (const DegradationStep &Step : Steps) {
    S += " ";
    S += budgetPhaseName(Step.Phase);
    S += " hit ";
    S += exhaustKindName(Step.Kind);
    S += " (";
    S += Step.Action;
    S += ");";
  }
  if (!Steps.empty())
    S.pop_back();
  return S;
}

/// The enumerator order is the ladder order, so "weaker of two rungs" is a
/// numeric min.
static ToolVariant minRung(ToolVariant A, ToolVariant B) {
  return static_cast<int>(A) < static_cast<int>(B) ? A : B;
}

static void collectModuleStats(const Module &M, UsherStatistics &Stats) {
  Stats.NumInstructions = M.instructionCount();
  for (const auto &F : M.functions())
    Stats.NumTopLevelVars += F->variables().size();
  uint64_t Uninit = 0, Total = 0;
  for (const auto &Obj : M.objects()) {
    if (Obj->getCloneOrigin())
      continue; // Clones are analysis artifacts, not program objects.
    ++Total;
    if (!Obj->isInitialized())
      ++Uninit;
    switch (Obj->getRegion()) {
    case Region::Stack:
      ++Stats.NumStackObjects;
      break;
    case Region::Heap:
      ++Stats.NumHeapObjects;
      break;
    case Region::Global:
      ++Stats.NumGlobalObjects;
      break;
    }
  }
  Stats.PercentUninitObjects = Total ? 100.0 * Uninit / Total : 0.0;
}

UsherResult core::runUsher(Module &M, const UsherOptions &Opts) {
  Timer Total;
  UsherStatistics Stats;
  collectModuleStats(M, Stats);

  DegradationReport DR;
  DR.Requested = Opts.Variant;
  DR.Rung = Opts.Variant;

  // The terminal ladder rung: the MSan full plan needs no fixed point at
  // all, so it is always reachable within any budget. Requested clients
  // land on their own MSan analogs (full plans, no analyses consulted).
  auto FinishMSan = [&]() -> UsherResult {
    UsherResult Result(buildFullInstrumentation(M));
    ClientBuildInputs In(M);
    In.BoundsBudgetPercent = Opts.BoundsBudgetPercent;
    for (ClientKind K : Opts.Clients)
      if (K != ClientKind::UUV)
        Result.ClientPlans.push_back(buildClientFullPlan(K, In));
    Stats.AnalysisSeconds = Total.seconds();
    Stats.StaticPropagations = Result.Plan.countPropagationReads();
    Stats.StaticChecks = Result.Plan.countChecks();
    DR.Rung = ToolVariant::MSanFull;
    Result.Stats = std::move(Stats);
    Result.Degradation = std::move(DR);
    return Result;
  };

  if (Opts.Variant == ToolVariant::MSanFull)
    return FinishMSan();

  Budget B(Opts.Limits, Opts.Fault);
  auto Fail = [&](BudgetPhase P, std::string Action) {
    DR.Degraded = true;
    DR.Steps.push_back({P, B.exhaustKind(), std::move(Action)});
  };

  Timer Phase;
  auto Record = [&](const char *Name) {
    Stats.PhaseSeconds[Name] = Phase.seconds();
    Phase.reset();
  };

  auto CG = std::make_unique<analysis::CallGraph>(M);

  // Heap cloning appends clone objects to the module; remember the
  // watermark so a failed attempt can be rolled back before a retry (or
  // the MSan fallback) re-runs cloning or instruments the module.
  const size_t ObjMark = M.objects().size();
  auto PurgeClones = [&] {
    M.purgeObjects([&](const ir::MemObject *O) {
      return static_cast<size_t>(O->getId()) >= ObjMark;
    });
  };

  B.beginPhase(BudgetPhase::PointerAnalysis);
  auto PA = std::make_unique<analysis::PointerAnalysis>(M, *CG, Opts.Pta, &B);
  if (PA->exhausted() && Opts.Pta.FieldSensitive) {
    // First fallback: the field-insensitive constraint system is much
    // smaller and still a sound over-approximation. Fresh arm, fresh
    // module (no stale clones).
    Fail(BudgetPhase::PointerAnalysis, "retrying field-insensitive");
    PurgeClones();
    analysis::PtaOptions Cheap = Opts.Pta;
    Cheap.FieldSensitive = false;
    B.beginPhase(BudgetPhase::PointerAnalysis);
    PA = std::make_unique<analysis::PointerAnalysis>(M, *CG, Cheap, &B);
  }
  if (PA->exhausted() && Opts.Pta.Solver != analysis::SolverKind::Unify) {
    // Second fallback: the near-linear unification solver over the
    // field-insensitive constraints. Its coarser (but still sound)
    // points-to sets are not worth running Opt I/II over, so a run
    // salvaged here caps at the TL+AT rung below.
    Fail(BudgetPhase::PointerAnalysis, "retrying with unification solver");
    PurgeClones();
    analysis::PtaOptions Cheap = Opts.Pta;
    Cheap.FieldSensitive = false;
    Cheap.Solver = analysis::SolverKind::Unify;
    B.beginPhase(BudgetPhase::PointerAnalysis);
    PA = std::make_unique<analysis::PointerAnalysis>(M, *CG, Cheap, &B);
    if (!PA->exhausted())
      DR.Rung = minRung(DR.Rung, ToolVariant::UsherTLAT);
  }
  Stats.Solver = PA->solverStats();
  if (PA->exhausted()) {
    // No usable points-to information: everything downstream depends on
    // it, so the only sound landing is the full plan.
    Fail(BudgetPhase::PointerAnalysis, "falling back to full instrumentation");
    PurgeClones();
    Record("1.pointer-analysis");
    return FinishMSan();
  }
  Record("1.pointer-analysis");

  auto MR = std::make_unique<analysis::ModRefAnalysis>(M, *CG, *PA);
  auto SSA = std::make_unique<ssa::MemorySSA>(M, *PA, *MR);
  Record("2.memory-ssa");
  auto G = std::make_unique<vfg::VFG>(
      vfg::VFGBuilder(M, *SSA, *PA, *CG, Opts.Vfg).build());
  Record("3.vfg");

  DefinednessOptions DefOpts;
  DefOpts.ContextK = Opts.ContextK;
  DefOpts.AddressTakenAware = Opts.Variant != ToolVariant::UsherTL;

  B.beginPhase(BudgetPhase::Definedness);
  auto Gamma = std::make_unique<Definedness>(*G, DefOpts, nullptr, &B);
  if (Gamma->wasPessimized()) {
    // The pessimistically completed Gamma is sound but too coarse to
    // justify Opt I/II decisions profitably; land on the plain guided
    // rung for the chosen memory model.
    Fail(BudgetPhase::Definedness, "unresolved nodes marked undefined-capable");
    DR.Rung = minRung(DR.Rung, DefOpts.AddressTakenAware
                                   ? ToolVariant::UsherTLAT
                                   : ToolVariant::UsherTL);
  }
  Record("4.definedness");

  // Opt II recomputes definedness on a graph with redirected edges; the
  // resulting Gamma drives instrumentation over the *original* VFG so all
  // shadow values stay correctly initialized (Algorithm 1). The base
  // Gamma stays alive so later rungs can discard the redirects wholesale.
  std::unique_ptr<Definedness> RedirGamma;
  if (Opts.Variant == ToolVariant::UsherFull &&
      DR.Rung == ToolVariant::UsherFull && !Gamma->wasPessimized()) {
    B.beginPhase(BudgetPhase::OptII);
    OptIIResult Opt2 =
        runRedundantCheckElimination(M, *SSA, *PA, *CG, *G, *Gamma, &B);
    if (Opt2.Exhausted) {
      // Partial redirect sets are not individually sound (each redirect
      // assumes its whole closure stays checked): drop them all.
      Fail(BudgetPhase::OptII, "Opt II redirects discarded");
      DR.Rung = minRung(DR.Rung, ToolVariant::UsherOptI);
    } else {
      Stats.NumRedirectedNodes = Opt2.NumRedirectedNodes;
      if (!Opt2.Redirects.empty()) {
        auto G2 =
            std::make_unique<Definedness>(*G, DefOpts, &Opt2.Redirects, &B);
        if (G2->wasPessimized()) {
          // The re-resolution ran out of the same Opt II budget; the base
          // Gamma is still intact, so discard the redirects instead of
          // accepting a coarser Gamma.
          Fail(BudgetPhase::OptII, "Opt II re-resolution discarded");
          DR.Rung = minRung(DR.Rung, ToolVariant::UsherOptI);
          Stats.NumRedirectedNodes = 0;
        } else {
          RedirGamma = std::move(G2);
        }
      }
    }
    Record("5.opt2");
  }

  PlannerOptions POpts;
  POpts.OptI = static_cast<int>(DR.Rung) >=
               static_cast<int>(ToolVariant::UsherOptI);
  POpts.B = &B;
  if (POpts.OptI)
    B.beginPhase(BudgetPhase::OptI);
  InstrumentationPlanner Planner(M, *G, RedirGamma ? *RedirGamma : *Gamma,
                                 POpts);
  UsherResult Result(Planner.run());
  Stats.NumSimplifiedMFCs = Planner.numSimplifiedMFCs();
  if (POpts.OptI && B.exhausted()) {
    // Unsimplified closures fall back to the normal Figure 7 rules, so any
    // partially simplified plan is sound — but its guarantees are the
    // TL+AT ones, so rebuild the plan honestly at that rung: base Gamma,
    // no Opt I, no Opt II redirects.
    Fail(BudgetPhase::OptI,
         std::to_string(Planner.numSimplifiedMFCs()) +
             " closures simplified before exhaustion");
    DR.Rung = minRung(DR.Rung, ToolVariant::UsherTLAT);
    RedirGamma.reset();
    Stats.NumRedirectedNodes = 0;
    Stats.NumSimplifiedMFCs = 0;
    POpts.OptI = false;
    POpts.B = nullptr;
    InstrumentationPlanner Replanner(M, *G, *Gamma, POpts);
    Result.Plan = Replanner.run();
  }
  if (RedirGamma)
    Gamma = std::move(RedirGamma);
  Record("6.instrumentation");

  // Statistics over the built analyses.
  Stats.NumVFGNodes = G->numNodes();
  Stats.NumVFGEdges = G->numEdges();
  Stats.NumMemSSAVersions = G->numMemSSAVersions();
  Stats.NumPrunedMemVersions = G->numPrunedMemVersions();
  Stats.NumPlacedMemVersions = SSA->numPlacedVersions();
  uint64_t StoreChis = G->numStrongStoreChis() + G->numSemiStrongStoreChis() +
                       G->numWeakStoreChis();
  if (StoreChis) {
    Stats.PercentStrongStores = 100.0 * G->numStrongStoreChis() / StoreChis;
    Stats.PercentWeakStores =
        100.0 * (G->numSemiStrongStoreChis() + G->numWeakStoreChis()) /
        StoreChis;
  }
  uint64_t HeapSites = 0, Cuts = 0;
  for (const auto &Obj : M.objects())
    if (Obj->isHeap() && !Obj->isArray())
      ++HeapSites;
  for (const auto &[ObjId, Count] : G->semiStrongCuts())
    Cuts += Count;
  Stats.SemiStrongCutsPerHeapSite =
      HeapSites ? static_cast<double>(Cuts) / HeapSites : 0.0;
  BitSet Reaching = computeCheckReaching(*G, *Gamma);
  uint64_t UnprunedNodes = G->numNodes() + G->numPrunedMemVersions();
  Stats.PercentReachingCheck =
      UnprunedNodes ? 100.0 * Reaching.count() / UnprunedNodes : 0.0;
  Stats.StaticPropagations = Result.Plan.countPropagationReads();
  Stats.StaticChecks = Result.Plan.countChecks();

  // Guided plans for the additional clients, over the same analyses (one
  // VFG, many detectors). Client taint resolution runs unbudgeted: it is
  // a plain reachability pass, linear in the graph the budgets already
  // admitted.
  if (!Opts.Clients.empty()) {
    Phase.reset();
    ClientBuildInputs In(M);
    In.PA = PA.get();
    In.G = G.get();
    In.ContextK = Opts.ContextK;
    In.BoundsBudgetPercent = Opts.BoundsBudgetPercent;
    for (ClientKind K : Opts.Clients)
      if (K != ClientKind::UUV)
        Result.ClientPlans.push_back(buildClientPlan(K, In));
    Record("7.clients");
  }

  Stats.AnalysisSeconds = Total.seconds();
  Stats.PeakRSSBytes = peakRSSBytes();

  Result.Stats = std::move(Stats);
  Result.Degradation = std::move(DR);
  Result.CG = std::move(CG);
  Result.PA = std::move(PA);
  Result.MR = std::move(MR);
  Result.SSA = std::move(SSA);
  Result.G = std::move(G);
  Result.Gamma = std::move(Gamma);
  return Result;
}

QueryOutcome core::runUsherQuery(Module &M, const UsherOptions &Opts,
                                 uint32_t Src, uint32_t Sink) {
  QueryOutcome Out;
  Budget B(Opts.Limits, Opts.Fault);

  analysis::CallGraph CG(M);
  B.beginPhase(BudgetPhase::PointerAnalysis);
  analysis::PointerAnalysis PA(M, CG, Opts.Pta, &B);
  Out.Solver = PA.solverStats();
  if (PA.exhausted()) {
    // Without points-to sets there is no VFG to query; the answer is
    // inconclusive rather than invalid.
    Out.Valid = true;
    Out.Exhausted = true;
    return Out;
  }

  analysis::ModRefAnalysis MR(M, CG, PA);
  ssa::MemorySSA SSA(M, PA, MR);
  vfg::VFG G = vfg::VFGBuilder(M, SSA, PA, CG, Opts.Vfg).build();
  Out.NumNodes = G.numNodes();
  if (Src >= G.numNodes() || Sink >= G.numNodes()) {
    Out.Error = "query node id out of range (VFG has " +
                std::to_string(G.numNodes()) + " nodes)";
    return Out;
  }

  Out.Valid = true;
  B.beginPhase(BudgetPhase::Definedness);
  analysis::QueryResult R =
      analysis::cflReachable(G, Src, Sink, Opts.ContextK, &B);
  Out.Reachable = R.Reachable;
  Out.Exhausted = R.Exhausted;
  Out.StatesVisited = R.StatesVisited;
  Out.Witness = std::move(R.Witness);
  return Out;
}
