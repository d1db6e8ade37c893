//===- analysis/DemandVFA.h - Demand-driven VFG reachability ----*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A demand-driven CFL-reachability query over the value-flow graph:
/// cflReachable(G, src, sink, k) answers "can the value at src flow to
/// sink along a context-valid path?" without resolving the whole program.
/// The grammar is the VFG's matched-paren call/return discipline — the
/// exact context step Definedness resolution takes
/// (ContextStack::follow), minus the saturation widening, so a query is
/// *exact* with respect to whole-program k-bounded reachability and the
/// query-equivalence fuzz oracle can compare them bit for bit.
///
/// A query is searchPaths() stopped at the sink, so the returned witness
/// is a shortest context-valid path; each state is visited at most once
/// per query.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_ANALYSIS_DEMANDVFA_H
#define USHER_ANALYSIS_DEMANDVFA_H

#include "vfg/VFG.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace usher {
class Budget;
class raw_ostream;

namespace analysis {

/// One step of a witness path: the node arrived at and the edge taken into
/// it. The first step is the path's start (Kind = Direct, CallSite = ~0u,
/// no edge was taken).
struct QueryStep {
  uint32_t Node = 0;
  vfg::EdgeKind Kind = vfg::EdgeKind::Direct;
  uint32_t CallSite = ~0u;
};

/// What bounds one searchPaths() call. Every field is optional; the
/// defaults explore the whole state space.
struct PathSearchLimits {
  /// Stop as soon as this node is first reached (~0u: never).
  uint32_t Stop = ~0u;
  /// Charged one step per expanded state; exhaustion ends the search.
  Budget *B = nullptr;
  /// Caps on recorded (node, context) states, overall and per node.
  /// States past a cap are dropped, not expanded.
  size_t MaxStates = SIZE_MAX;
  size_t MaxContextsPerNode = SIZE_MAX;
};

/// The outcome of one searchPaths() call: every recorded state with the
/// edge it was first reached by, and the first arrival at each node.
struct PathSearch {
  struct State {
    uint32_t Node;
    int32_t Parent; ///< Index of the predecessor state, -1 at the root.
    uint64_t Ctx;   ///< ContextStack::raw() encoding.
    vfg::EdgeKind Kind;
    uint32_t CallSite;
  };
  std::vector<State> States;
  struct NodeInfo {
    int32_t First = -1;    ///< Index of the node's first state, -1 if none.
    uint32_t Contexts = 0; ///< States recorded at the node.
  };
  std::vector<NodeInfo> Nodes;
  /// The budget ran out before the search finished.
  bool Exhausted = false;
  /// States expanded (each charged one budget step).
  uint64_t Expanded = 0;

  bool reached(uint32_t Node) const { return Nodes[Node].First >= 0; }
  /// A shortest context-valid path from the root to \p Node, or an empty
  /// vector if \p Node was not reached.
  std::vector<QueryStep> witness(uint32_t Node) const;
};

/// Breadth-first search over (node, k-limited context) states forward
/// from \p Root along user edges, each step taken by ContextStack::follow.
/// First arrival at a node is a shortest context-valid path to it. The
/// demand query and the diagnosis witness search both run this.
PathSearch searchPaths(const vfg::VFG &G, uint32_t Root, unsigned ContextK,
                       const PathSearchLimits &L = PathSearchLimits());

/// Prints a witness on one line, "witness: 3 -> 7 -call@12-> 9\n", or
/// nothing when \p W is empty.
void printQueryWitness(raw_ostream &OS, const std::vector<QueryStep> &W);

/// Outcome of one cflReachable() call.
struct QueryResult {
  bool Reachable = false;
  /// The budget ran out before the state space was exhausted; Reachable
  /// is then inconclusive (false only means "not found yet").
  bool Exhausted = false;
  /// (node, context) states expanded by this query.
  uint64_t StatesVisited = 0;
  /// Shortest context-valid path src..sink; non-empty iff Reachable.
  std::vector<QueryStep> Witness;
};

/// Is there a context-valid value-flow path from \p Src to \p Sink of
/// \p G, remembering up to \p ContextK unmatched call sites (the paper's
/// configuration is 1; it must match the Definedness run the answer is
/// compared against)? Node ids outside the graph yield an unreachable
/// result. When \p B is armed, each state expansion charges one step;
/// exhaustion aborts the query with Exhausted set rather than looping on.
QueryResult cflReachable(const vfg::VFG &G, uint32_t Src, uint32_t Sink,
                         unsigned ContextK, Budget *B = nullptr);

/// Validates that \p W is a genuine context-valid user-edge path of \p G
/// from \p Src to \p Sink under k = \p ContextK: every step names a real
/// edge and the call/return discipline replays on a ContextStack. Shared
/// by the query-equivalence fuzz oracle and the unit tests so "the
/// witness is real" means the same thing everywhere.
bool validateQueryWitness(const vfg::VFG &G, uint32_t Src, uint32_t Sink,
                          const std::vector<QueryStep> &W, unsigned ContextK,
                          std::string *Err = nullptr);

} // namespace analysis
} // namespace usher

#endif // USHER_ANALYSIS_DEMANDVFA_H
