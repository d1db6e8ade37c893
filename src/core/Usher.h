//===- core/Usher.h - The Usher driver --------------------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Top-level entry point: runs the five-phase pipeline of Figure 3
/// (pointer analysis, memory SSA construction, VFG building, definedness
/// resolution, guided instrumentation with VFG-based optimizations) for a
/// chosen tool variant, and collects the statistics behind Table 1.
///
/// The variants mirror the paper's evaluation:
///  - MSanFull:   full instrumentation (the MSan baseline);
///  - UsherTL:    top-level variables only, no Opt I / Opt II;
///  - UsherTLAT:  top-level + address-taken variables;
///  - UsherOptI:  UsherTLAT plus value-flow simplification;
///  - UsherFull:  UsherOptI plus redundant check elimination.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_CORE_USHER_H
#define USHER_CORE_USHER_H

#include "analysis/CallGraph.h"
#include "analysis/DemandVFA.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "core/Definedness.h"
#include "core/Instrumentation.h"
#include "core/InstrumentationPlan.h"
#include "core/SanitizerClient.h"
#include "ssa/MemorySSA.h"
#include "support/Budget.h"
#include "vfg/VFG.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace usher {
namespace core {

/// The tool variants compared in the paper's evaluation. The enumerator
/// order doubles as the degradation ladder: each variant is sound with
/// strictly less static analysis than its successor, so falling back on
/// budget exhaustion is a numeric min towards MSanFull.
enum class ToolVariant { MSanFull, UsherTL, UsherTLAT, UsherOptI, UsherFull };

/// Returns the display name used in tables ("MSAN", "USHER-TL", ...).
const char *toolVariantName(ToolVariant V);

/// Pipeline configuration.
struct UsherOptions {
  ToolVariant Variant = ToolVariant::UsherFull;
  /// Call-site sensitivity of definedness resolution (paper: 1).
  unsigned ContextK = 1;
  analysis::PtaOptions Pta;
  vfg::VFGOptions Vfg;
  /// Per-phase resource budgets; all-zero (the default) means unlimited
  /// and keeps the pipeline on the zero-cost happy path.
  BudgetLimits Limits;
  /// Deterministic exhaustion injection for tests and --inject-fault.
  std::optional<FaultPlan> Fault;
  /// Additional sanitizer clients to plan over the same VFG, in request
  /// order (--client=). ClientKind::UUV entries are ignored here: the UUV
  /// plan is UsherResult::Plan itself. Empty (the default) runs the
  /// pipeline exactly as before the multi-client framework.
  std::vector<ClientKind> Clients;
  /// Bounds client: slowdown capacity for budgeted check placement, as a
  /// percentage of modeled native cost (0 = unlimited).
  unsigned BoundsBudgetPercent = 0;
};

/// One rung descent of the degradation ladder.
struct DegradationStep {
  BudgetPhase Phase;  ///< The phase whose budget ran out.
  ExhaustKind Kind;   ///< Why it ran out.
  std::string Action; ///< What the driver did about it.
};

/// How far the driver had to climb down from the requested variant.
struct DegradationReport {
  ToolVariant Requested = ToolVariant::UsherFull;
  /// The variant whose guarantees the produced plan actually delivers.
  ToolVariant Rung = ToolVariant::UsherFull;
  bool Degraded = false;
  std::vector<DegradationStep> Steps;

  /// One-line human-readable summary, e.g.
  /// "degraded USHER -> USHER-OPTI: opt2 hit step budget (Opt II
  ///  redirects discarded)". Empty when not degraded.
  std::string summary() const;
};

/// Table 1 statistics plus phase timings.
struct UsherStatistics {
  double AnalysisSeconds = 0;
  uint64_t PeakRSSBytes = 0;
  uint64_t NumInstructions = 0;
  uint64_t NumTopLevelVars = 0;
  uint64_t NumStackObjects = 0;
  uint64_t NumHeapObjects = 0;
  uint64_t NumGlobalObjects = 0;
  /// %F: percentage of address-taken objects uninitialized on allocation.
  double PercentUninitObjects = 0;
  /// S: semi-strong cuts per non-array heap allocation site.
  double SemiStrongCutsPerHeapSite = 0;
  /// %SU / %WU: store chis strongly updated / singleton-but-weak.
  double PercentStrongStores = 0;
  double PercentWeakStores = 0;
  uint64_t NumVFGNodes = 0;
  uint64_t NumVFGEdges = 0;
  /// Memory SSA versions an unpruned VFG would hold as nodes, and those of
  /// them no load reads, which the VFG leaves out. NumVFGNodes +
  /// NumPrunedMemVersions is the unpruned VFG's size. runUsher leaves
  /// both at 0; measureUnpruned fills them.
  uint64_t NumMemSSAVersions = 0;
  uint64_t NumPrunedMemVersions = 0;
  /// Memory SSA versions actually placed: those of the locations each
  /// function keeps (ssa::MemorySSA::numPlacedVersions).
  uint64_t NumPlacedMemVersions = 0;
  /// %B: VFG nodes reaching at least one needed runtime check, out of the
  /// unpruned VFG's nodes (a pruned node reaches no check). runUsher
  /// leaves it at 0; measureUnpruned fills it.
  double PercentReachingCheck = 0;
  /// (Representative, context) states the definedness phase explored
  /// (Definedness::numStates of the base Gamma, before Opt II).
  uint64_t NumDefinednessStates = 0;
  /// Opt I: simplified must-flow-from closures.
  uint64_t NumSimplifiedMFCs = 0;
  /// Opt II: nodes redirected to T.
  uint64_t NumRedirectedNodes = 0;
  /// Figure 11 numerators.
  uint64_t StaticPropagations = 0;
  uint64_t StaticChecks = 0;
  /// Constraint-solver engine counters from the (possibly retried)
  /// pointer analysis: propagations, cycle collapses, budget charges.
  analysis::SolverStatistics Solver;
  /// Wall-clock seconds per pipeline phase.
  std::map<std::string, double> PhaseSeconds;
};

/// Everything a run produces. The analyses are kept alive so examples and
/// tests can inspect intermediate results (VFG, Gamma, points-to sets).
struct UsherResult {
  InstrumentationPlan Plan;
  UsherStatistics Stats;
  DegradationReport Degradation;
  /// Plans for the non-UUV clients requested via UsherOptions::Clients,
  /// in request order. On the degraded MSan rung (or PA exhaustion) these
  /// are the clients' *full* plans — the ladder lands every client on its
  /// own MSan analog.
  std::vector<ClientPlanInfo> ClientPlans;

  std::unique_ptr<analysis::CallGraph> CG;
  std::unique_ptr<analysis::PointerAnalysis> PA;
  std::unique_ptr<analysis::ModRefAnalysis> MR;
  /// Kept for inspection only: the planner, Opt II's closures and the
  /// clients read the VFG. Freeing memory SSA here, inside runUsher, would
  /// put its teardown in the analysis time.
  std::unique_ptr<ssa::MemorySSA> SSA;
  std::unique_ptr<vfg::VFG> G;
  std::unique_ptr<Definedness> Gamma;

  explicit UsherResult(InstrumentationPlan Plan) : Plan(std::move(Plan)) {}
};

/// Runs the pipeline on \p M. The module must be verified and renumbered;
/// heap cloning may add clone objects to it.
///
/// With budgets or a fault configured, a phase that exhausts its budget
/// never fails the run: the driver walks the degradation ladder
/// UsherFull -> UsherOptI -> UsherTL+AT -> UsherTL -> MSanFull, reusing
/// partial results where sound, and records what happened in
/// UsherResult::Degradation. Within the pointer-analysis phase the ladder
/// has its own rungs: field-sensitive Andersen, then field-insensitive
/// Andersen, then MSanFull. The returned plan always detects at least the
/// undefined-value uses full instrumentation would.
UsherResult runUsher(ir::Module &M, const UsherOptions &Opts);

/// Fills \p Result's Table 1 fields over the unpruned VFG:
/// NumMemSSAVersions, NumPrunedMemVersions and PercentReachingCheck. It
/// builds the unpruned memory SSA (ssa::MemorySSA::unpruned) on Result's
/// PA and MR, and a VFG over it with \p Opts.Vfg, which runUsher must have
/// been given with \p M. Only the reporters of Table 1 call it; runUsher
/// pays for none of it. A run that kept no VFG is left as it is.
void measureUnpruned(const ir::Module &M, const UsherOptions &Opts,
                     UsherResult &Result);

/// Outcome of one demand reachability query (runUsherQuery).
struct QueryOutcome {
  /// The pipeline ran and the node ids were in range; when false, Error
  /// says why and the remaining fields are meaningless.
  bool Valid = false;
  std::string Error;
  bool Reachable = false;
  /// A budget ran out (during constraint solving or the query walk);
  /// Reachable is then inconclusive.
  bool Exhausted = false;
  /// Shortest context-valid witness path; non-empty iff Reachable.
  std::vector<analysis::QueryStep> Witness;
  /// Statistics of the constraint solver that backed the VFG.
  analysis::SolverStatistics Solver;
  uint64_t StatesVisited = 0;
  /// VFG node count, so callers can report the valid id range.
  uint32_t NumNodes = 0;
};

/// Answers a single demand query: is VFG node \p Sink context-validly
/// reachable from \p Src? Builds the pipeline prefix runUsher builds
/// with the same options (call graph, pointer analysis with Opts.Pta,
/// memory SSA, VFG), so node ids are those of runUsher's VFG, and then
/// runs the demand-driven engine from \p Src only, instead of a
/// whole-program definedness resolution. Budget phases: PointerAnalysis
/// covers constraint solving, Definedness covers the query walk.
QueryOutcome runUsherQuery(ir::Module &M, const UsherOptions &Opts,
                           uint32_t Src, uint32_t Sink);

} // namespace core
} // namespace usher

#endif // USHER_CORE_USHER_H
