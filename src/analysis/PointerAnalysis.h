//===- analysis/PointerAnalysis.h - Andersen's analysis ---------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An inclusion-based (Andersen-style) pointer analysis over TinyC,
/// matching the configuration the paper uses (Section 4.1):
///  - offset-based field sensitivity, with arrays collapsed to a single
///    field ("arrays are treated as a whole");
///  - 1-callsite-sensitive heap cloning for allocation wrapper functions;
///  - context-insensitive otherwise.
///
/// The unit of may-point-to information is a PtLoc: one field of one
/// abstract memory object. PtLocs are also the address-taken variables
/// (Var_AT) that memory SSA and the VFG version.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_ANALYSIS_POINTERANALYSIS_H
#define USHER_ANALYSIS_POINTERANALYSIS_H

#include "support/BitSet.h"

#include <memory>
#include <ranges>
#include <unordered_map>
#include <vector>

namespace usher {
class Budget;

namespace ir {
class CallInst;
class Function;
class MemObject;
class Module;
class Operand;
class Variable;
} // namespace ir

namespace analysis {

class CallGraph;

/// One field of one abstract object: the granule of points-to sets and of
/// the value-flow analysis for address-taken variables.
struct PtLoc {
  ir::MemObject *Obj = nullptr;
  unsigned Field = 0;
};

/// Which constraint-solving engine runs the inclusion fixpoint.
enum class SolverKind : uint8_t {
  /// The production engine: online lazy cycle detection with union-find
  /// SCC collapsing plus difference (delta) propagation, 64 bits per word
  /// operation. See DESIGN.md "Solver architecture".
  Optimized,
  /// The plain full-set worklist solver, retained as an oracle: it never
  /// collapses and always re-propagates whole points-to sets. Used by the
  /// equivalence property tests and as the bench_solver baseline.
  NaiveReference,
};

/// Stable lower-case engine name ("andersen", "naive") used by
/// --stats, bench_solver rows, and the --solver= flag spelling.
const char *solverKindName(SolverKind K);

/// Configuration knobs of the pointer analysis.
struct PtaOptions {
  /// Track (object, field) pairs; when false all fields collapse to 0.
  bool FieldSensitive = true;
  /// Clone heap objects of allocation wrappers per call site.
  bool HeapCloning = true;
  /// Constraint-solving engine; both compute identical points-to sets.
  SolverKind Solver = SolverKind::Optimized;
};

/// Counters maintained by the solver engines. bench_solver emits them
/// into BENCH_solver.json and the Budget accounting regression tests pin
/// the relation between pops, merged-pop skips, and charged steps.
struct SolverStatistics {
  /// Which engine produced this run's numbers.
  SolverKind Engine = SolverKind::Optimized;
  uint64_t NumConstraints = 0;  ///< Seed/copy/load/store/gep constraints built.
  uint64_t NumCopyEdges = 0;    ///< Distinct copy edges materialized.
  uint64_t NumPropagations = 0; ///< Set merges pushed along copy edges.
  uint64_t NumPops = 0;         ///< Worklist pops, including stale ones.
  /// Pops of nodes that were merged into an SCC representative after
  /// being enqueued; skipped without charging the Budget (the
  /// representative's own pop accounts for the whole component).
  uint64_t NumSkippedMergedPops = 0;
  uint64_t NumCollapses = 0;      ///< Cycle-collapse events.
  uint64_t NumCollapsedNodes = 0; ///< Nodes merged into representatives.
  uint64_t NumBudgetSteps = 0;    ///< Budget steps the solver charged.
  /// Wall time of the constraint *solve* (fixpoint plus harvest), in
  /// milliseconds. Excludes location numbering and constraint building,
  /// which are engine-independent — this is what bench_solver's speedup
  /// column compares.
  double SolveMs = 0;
};

/// Andersen-style whole-program pointer analysis.
class PointerAnalysis {
public:
  /// Builds constraints for \p M and solves them. Heap cloning may add
  /// clone objects to \p M. \p CG must outlive this analysis. When \p B is
  /// armed (BudgetPhase::PointerAnalysis), the solver checks it at
  /// worklist-pop granularity and stops early on exhaustion; the partial
  /// points-to sets are then an *under*-approximation and must not be
  /// used — callers check exhausted() and degrade instead.
  PointerAnalysis(ir::Module &M, const CallGraph &CG,
                  PtaOptions Opts = PtaOptions(), Budget *B = nullptr);

  const PtaOptions &options() const { return Opts; }

  /// True if the solver stopped on budget exhaustion; the analysis result
  /// is unusable and the caller must fall back (field-insensitive retry,
  /// then the MSan full plan).
  bool exhausted() const { return Exhausted; }

  //===--------------------------------------------------------------------===//
  // Location numbering
  //===--------------------------------------------------------------------===//

  /// Number of PtLocs (address-taken variables) in the program.
  unsigned numLocations() const {
    return static_cast<unsigned>(Locations.size());
  }

  /// The PtLoc with dense id \p LocId.
  const PtLoc &location(unsigned LocId) const { return Locations[LocId]; }

  /// Dense id of field \p Field of \p Obj (after collapsing).
  unsigned locId(const ir::MemObject *Obj, unsigned Field) const;

  /// All loc ids belonging to \p Obj (consecutive ids).
  std::ranges::iota_view<unsigned, unsigned>
  locsOfObject(const ir::MemObject *Obj) const;

  /// True if this loc stands for more than one concrete cell (array
  /// element or collapsed overflow field); such locs must never be
  /// strongly updated.
  bool isCollapsedLoc(unsigned LocId) const { return Collapsed[LocId]; }

  //===--------------------------------------------------------------------===//
  // Points-to queries
  //===--------------------------------------------------------------------===//

  /// May-point-to set of a top-level variable, as sorted loc ids.
  /// Variables with equal sets share one vector.
  const std::vector<uint32_t> &pointsTo(const ir::Variable *V) const;

  /// May-point-to set of any operand (globals resolve to their base loc,
  /// constants to the empty set).
  const std::vector<uint32_t> &pointsTo(const ir::Operand &Op) const;

  //===--------------------------------------------------------------------===//
  // Allocation wrappers and heap cloning
  //===--------------------------------------------------------------------===//

  /// True if \p F is an allocation wrapper: every return value traces
  /// (through copies only) to heap allocations that do not otherwise
  /// escape or get accessed inside \p F.
  bool isAllocWrapper(const ir::Function *F) const {
    return Wrappers.count(F) != 0;
  }

  /// Clone objects allocated (conceptually) at call site \p Call; empty
  /// unless the callee is an allocation wrapper and cloning is enabled.
  const std::vector<ir::MemObject *> &clonesAt(const ir::CallInst *Call) const;

  /// The heap objects of wrapper \p F that are replaced by clones at its
  /// call sites; empty for non-wrappers.
  const std::vector<ir::MemObject *> &
  cloneOrigins(const ir::Function *F) const;

  //===--------------------------------------------------------------------===//
  // Statistics (Table 1)
  //===--------------------------------------------------------------------===//

  /// Number of solver nodes (variables + locations).
  unsigned numNodes() const { return NumNodes; }

  /// Solver engine counters (propagations, collapses, budget charges).
  const SolverStatistics &solverStats() const { return SStats; }

private:
  class Solver;

  void numberLocations();
  void detectWrappers();
  void createClones();

  ir::Module &M;
  const CallGraph &CG;
  PtaOptions Opts;

  std::vector<PtLoc> Locations;
  std::vector<bool> Collapsed;
  // Obj id -> (first loc id, tracked field count).
  std::vector<std::pair<unsigned, unsigned>> ObjLocBase;

  std::unordered_map<const ir::Function *, std::vector<ir::MemObject *>>
      Wrappers;
  std::unordered_map<const ir::CallInst *, std::vector<ir::MemObject *>>
      Clones;

  // Function id -> solver node of its first variable, plus one entry past
  // the last function: variable V of F is node FnBase[F] + V's id, as ids
  // are dense and never reused.
  std::vector<uint32_t> FnBase;
  // Every engine's harvest interns one vector per distinct points-to set
  // and points each variable node with that set at the shared copy (empty
  // sets at EmptyPts) — per-variable vectors would cost Θ(vars × pts-size)
  // on the many readers of one hub.
  std::vector<std::unique_ptr<std::vector<uint32_t>>> SharedPts;
  std::vector<const std::vector<uint32_t> *> VarPts;
  // Obj id -> {base loc} for globals (the set a global operand names),
  // empty for every other object.
  std::vector<std::vector<uint32_t>> GlobalPts;
  unsigned NumNodes = 0;
  bool Exhausted = false;
  SolverStatistics SStats;

  static const std::vector<ir::MemObject *> EmptyObjList;
  static const std::vector<uint32_t> EmptyPts;
};

} // namespace analysis
} // namespace usher

#endif // USHER_ANALYSIS_POINTERANALYSIS_H
