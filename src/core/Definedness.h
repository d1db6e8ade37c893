//===- core/Definedness.h - Definedness resolution --------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definedness resolution (Section 3.3): Gamma maps each VFG node to
/// "bottom" (may be undefined: reachable from the F root) or "top"
/// (provably defined). Reachability is context-sensitive: interprocedural
/// edges carry call-site labels and flows that enter a callee through one
/// call site may only exit through the same site, with a k-bounded stack
/// of unmatched calls (the paper configures 1-callsite sensitivity).
///
//===----------------------------------------------------------------------===//

#ifndef USHER_CORE_DEFINEDNESS_H
#define USHER_CORE_DEFINEDNESS_H

#include "support/BitSet.h"
#include "vfg/VFG.h"

namespace usher {
class Budget;

namespace core {

/// Options for definedness resolution.
struct DefinednessOptions {
  /// Unmatched call sites remembered along a flow (0 = context-
  /// insensitive, 1 = the paper's configuration).
  unsigned ContextK = 1;
  /// When false, every memory-space node is pessimistically undefined:
  /// this models the UsherTL variant, which analyzes top-level variables
  /// only. The guided planner reads it back through
  /// Definedness::addressTakenAware().
  bool AddressTakenAware = true;
  /// Reachability seed nodes. Null (the default) seeds from VFG::RootF —
  /// the UUV client's "undefined" root. A taint client (e.g. the
  /// address-leak detector) passes its source-node set instead; Gamma then
  /// answers "may this node carry a tainted value" with the identical
  /// context-sensitive machinery. Seeds are marked bottom themselves.
  const std::vector<uint32_t> *Seeds = nullptr;
};

/// The Gamma function of Section 3.3.
class Definedness {
public:
  /// Resolves definedness over \p G. \p Redirects optionally overrides
  /// the dependency edges of selected nodes (used by the Opt II redundant
  /// check elimination, which recomputes Gamma on a modified graph): a
  /// node present in \p Redirects uses the given dependency list instead
  /// of its VFG one.
  ///
  /// When \p B is armed (BudgetPhase::Definedness, or OptII for the
  /// redirect re-resolution), the reachability worklist checks it per pop.
  /// On exhaustion the resolution is *completed pessimistically* instead
  /// of abandoned: every node that is not structurally defined (i.e. whose
  /// effective dependencies are not all the T root) is marked bottom.
  /// Bottom over-approximates "may be undefined", so the result stays
  /// sound — it merely demands more instrumentation — and wasPessimized()
  /// reports the degradation.
  Definedness(const vfg::VFG &G, DefinednessOptions Opts,
              const std::unordered_map<uint32_t, std::vector<vfg::Edge>>
                  *Redirects = nullptr,
              Budget *B = nullptr);

  /// True if \p Node may carry an undefined value (Gamma = bottom).
  bool mayBeUndefined(uint32_t Node) const { return Bottom.test(Node); }

  /// True if \p Node is provably defined (Gamma = top).
  bool isDefined(uint32_t Node) const { return !Bottom.test(Node); }

  /// Number of bottom nodes (statistics).
  size_t numUndefinedNodes() const { return Bottom.count(); }

  /// Number of (representative, context) states the reachability explored,
  /// a deterministic measure of its work.
  uint64_t numStates() const { return NumStates; }

  /// True if the budget ran out and unresolved nodes were pessimistically
  /// marked undefined-capable.
  bool wasPessimized() const { return Pessimized; }

  /// False for the top-level-only (UsherTL) resolution, where memory is
  /// not reasoned about (DefinednessOptions::AddressTakenAware).
  bool addressTakenAware() const { return AddressTakenAware; }

private:
  BitSet Bottom;
  uint64_t NumStates = 0;
  bool Pessimized = false;
  bool AddressTakenAware = true;
};

/// Computes the set of VFG nodes from which some needed runtime check is
/// reachable along dependency edges — the paper's Table 1 "%B" column
/// ("VFG nodes reaching at least one critical statement where a runtime
/// check is needed"). \p Gamma decides which checks are needed.
BitSet computeCheckReaching(const vfg::VFG &G, const Definedness &Gamma);

} // namespace core
} // namespace usher

#endif // USHER_CORE_DEFINEDNESS_H
