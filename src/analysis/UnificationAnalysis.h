//===- analysis/UnificationAnalysis.h - Unification solver ------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Steensgaard-family unification solver over the Andersen constraint
/// system, following the oversharing mitigations of Kuderski et al.
/// ("Unification-based Pointer Analysis without Oversharing"):
///
///  - Copy edges between top-level pointers stay *directional* — assigning
///    p = q never merges p and q, so precision along assignment chains is
///    Andersen's, not Steensgaard's.
///  - Unification happens only under the address-taken cells: locations
///    form union-find classes, and each class has at most ONE pointee
///    class. A store through a pointer unifies everything stored with the
///    cell class's single contents class instead of accumulating a set,
///    and a load reads back exactly that one class id.
///
/// This changes the propagation currency: where Andersen moves *location*
/// ids (a set of size |pts|), this engine moves *class* ids, and a class
/// subsumes every location unified into it. A hub cell holding M pointees
/// read by N pointers costs Andersen Θ(N·M) set work; here the M pointees
/// merge into one contents class (Θ(M·α)) and each reader receives one
/// class id (Θ(N)) — the near-linear bound the degradation ladder's UNIFY
/// rung is named for. Member sets are materialized only at harvest, and
/// variables whose class sets coincide share one materialized vector.
///
/// The result over-approximates Andersen: pts_andersen(p) ⊆ pts_unify(p)
/// for every pointer (SolverEquivalenceTest enforces this on the suite and
/// the fuzz corpus), so the degradation ladder can fall from Andersen to
/// this rung instead of straight to the MSan full plan.
///
/// The ConstraintSystem here is the one PointerAnalysis::Solver builds; it
/// lives in this header so the Andersen engines (PointerAnalysis.cpp) and
/// the unification engine consume the identical constraints — the basis of
/// the soundness comparison.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_ANALYSIS_UNIFICATIONANALYSIS_H
#define USHER_ANALYSIS_UNIFICATIONANALYSIS_H

#include "analysis/PointerAnalysis.h"
#include "support/BitSet.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace usher {
class Budget;

namespace analysis {

/// The flow-insensitive inclusion constraint system extracted from a
/// module: solver nodes are variables (ids [0, NumVars)) followed by
/// locations (ids [NumVars, NumNodes)). Built once by
/// PointerAnalysis::Solver and consumed unchanged by every engine.
struct ConstraintSystem {
  /// Either a solver node or a literal location (a global's address or a
  /// wrapper clone).
  struct ValueRef {
    bool IsLoc;
    uint32_t Id;
  };

  struct SeedCst {
    uint32_t Node;
    uint32_t Loc;
  }; // Loc ∈ pts(Node)
  struct CopyCst {
    uint32_t Src, Dst;
  }; // pts(Src) ⊆ pts(Dst)
  struct LoadCst {
    uint32_t Ptr, Dst;
  }; // x := *p
  struct StoreCst {
    uint32_t Ptr;
    ValueRef Val;
  }; // *p := v
  struct GepCst {
    uint32_t Ptr, Dst;
    unsigned Offset;
    bool Dynamic;
  }; // x := gep p, off

  uint32_t NumVars = 0;
  uint32_t NumNodes = 0;

  std::vector<SeedCst> Seeds;
  std::vector<CopyCst> Copies;
  std::vector<LoadCst> Loads;
  std::vector<StoreCst> Stores;
  std::vector<GepCst> Geps;

  /// Solver node standing for location \p LocId.
  uint32_t locNode(uint32_t LocId) const { return NumVars + LocId; }

  size_t size() const {
    return Seeds.size() + Copies.size() + Loads.size() + Stores.size() +
           Geps.size();
  }
};

/// The unification engine (PtaOptions Solver = SolverKind::Unify).
///
/// Structure: an offline Tarjan condensation of the static var-to-var copy
/// graph (exact — members of a copy cycle provably share one points-to
/// set), then a difference-propagation worklist over *class ids*. Top-level
/// variables hold small sets of cell-class ids and stay directional; the
/// cells themselves unify, each class carrying its member locations, at
/// most one pointee class, and subscription lists for the loads and geps
/// waiting on it.
class UnificationSolver {
public:
  /// \p PA supplies the location services (numLocations, locId,
  /// locsOfObject) — valid during PointerAnalysis construction because
  /// numbering precedes solving. \p C must outlive run().
  UnificationSolver(const PointerAnalysis &PA, const ConstraintSystem &C,
                    Budget *B);

  void run();

  /// True if the budget ran out; the partial result under-approximates
  /// and must be discarded, exactly as with the Andersen engines.
  bool exhausted() const { return Exhausted; }

  /// Engine counters, folded into the owning PointerAnalysis' statistics.
  const SolverStatistics &stats() const { return Stats; }

  /// Union-find representative of node \p Node; nodes sharing one have
  /// equal classesOf().
  uint32_t repOf(uint32_t Node) const { return findRepConst(Node); }

  /// Canonical (sorted, deduplicated) cell-class representatives node
  /// \p Node may point to. Two variables with equal classesOf() have
  /// identical points-to sets — the harvest uses this to share one
  /// materialized vector among them.
  std::vector<uint32_t> classesOf(uint32_t Node) const;

  /// Union of the member locations of \p Classes (canonical reps from
  /// classesOf), as sorted loc ids.
  std::vector<uint32_t> locsOfClasses(const std::vector<uint32_t> &Classes) const;

private:
  using ValueRef = ConstraintSystem::ValueRef;
  using GepCst = ConstraintSystem::GepCst;

  uint32_t findRep(uint32_t N) {
    while (Parent[N] != N) {
      Parent[N] = Parent[Parent[N]]; // path halving
      N = Parent[N];
    }
    return N;
  }
  /// Non-mutating lookup for the const harvest entry points.
  uint32_t findRepConst(uint32_t N) const {
    while (Parent[N] != N)
      N = Parent[N];
    return N;
  }
  uint32_t classOfLoc(uint32_t LocId) { return findRep(C.locNode(LocId)); }

  bool charge(uint64_t N = 1);
  void push(uint32_t Var);
  /// Adds class id \p K to Pts[\p V]; true if newly added.
  bool insertPts(uint32_t V, uint32_t K);
  /// Unions the id list \p Src into Pts[\p T], recording the newly added
  /// ids in Delta[\p T]; true if anything was added. \p Src must not
  /// alias Pts[\p T].Ids or Delta[\p T].
  bool unionPtsFrom(uint32_t T, const std::vector<uint32_t> &Src);
  /// Adds class \p K to variable \p V's set (delta-tracked).
  void insertClass(uint32_t V, uint32_t K);
  void addCopyEdge(uint32_t Src, uint32_t Dst);
  /// Subscribes variable \p W to class \p K's pointee class (x := *p).
  void addLoadSub(uint32_t K, uint32_t W);
  /// Registers that variable \p V's pointees flow into the contents of
  /// class \p K (*p := v), binding V's current classes immediately.
  void addStoreSub(uint32_t V, uint32_t K);
  void addGepSub(uint32_t K, const GepCst &G);
  void seedGepFromMembers(const GepCst &G,
                          const std::vector<uint32_t> &Locs);
  /// Makes \p Vc the (single) pointee class of \p K, unifying if \p K
  /// already has one. Returns false on budget exhaustion.
  bool bindPointee(uint32_t K, uint32_t Vc);
  bool mergeClasses(uint32_t A, uint32_t B);
  bool condenseStaticCopies();

  const PointerAnalysis &PA;
  const ConstraintSystem &C;
  Budget *B;

  SolverStatistics Stats;
  bool Exhausted = false;

  /// Union-find over all solver nodes: variables merge only during the
  /// offline condensation; location nodes merge as cell classes.
  std::vector<uint32_t> Parent;

  // -- Per top-level variable (valid at the var's representative) --------
  /// A variable's class set: an append-only, deduplicated id list, plus a
  /// location-indexed membership bitset materialized lazily once the list
  /// outgrows linear search. Adaptive on purpose: after unification most
  /// variables hold a handful of classes, and allocating a dense
  /// Θ(NumLocs) bitset for every variable up front costs
  /// Θ(NumVars·NumLocs) — growing faster with program size than the
  /// Θ(N+M) solve itself — while a purely sorted-vector set pays
  /// Θ(|set|) per delta on the copy-heavy workloads a bitset dedups in
  /// O(1). Ids are as-inserted (unsorted) and may name classes that have
  /// since merged; canonicalization happens at pop time and in
  /// classesOf().
  struct VarPts {
    std::vector<uint32_t> Ids;
    std::unique_ptr<BitSet> Bits;
  };
  /// List length beyond which insertPts builds the membership bitset.
  static constexpr size_t SmallPtsLimit = 32;
  std::vector<VarPts> Pts;
  unsigned NumLocs = 0;
  std::vector<std::vector<uint32_t>> Delta;
  std::vector<std::vector<uint32_t>> CopyTargets; ///< sorted var dsts
  std::vector<std::vector<uint32_t>> LoadTargets; ///< load dst vars
  std::vector<std::vector<ValueRef>> StoreValues; ///< stored values
  std::vector<std::vector<GepCst>> GepTargets;
  /// Classes whose contents this variable's pointees must join (reverse
  /// side of addStoreSub, for pointees the var discovers later).
  std::vector<std::vector<uint32_t>> StoreSubs;

  // -- Per cell class (valid at the class representative) ----------------
  std::vector<uint32_t> ClassPointee; ///< single contents class, or ~0u
  std::vector<std::vector<uint32_t>> Members; ///< member loc ids
  std::vector<std::vector<uint32_t>> LoadSubs; ///< vars reading contents
  std::vector<std::vector<GepCst>> GepSubs; ///< geps tracking member growth

  std::vector<std::pair<uint32_t, uint32_t>> MergePending;
  /// Reused scratch: the iteration snapshot addStoreSub takes before
  /// re-entrant inserts can reallocate the live set.
  std::vector<uint32_t> SnapshotScratch;

  std::vector<uint32_t> Worklist;
  BitSet InWorklist;
};

} // namespace analysis
} // namespace usher

#endif // USHER_ANALYSIS_UNIFICATIONANALYSIS_H
