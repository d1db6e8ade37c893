//===- core/Instrumentation.h - Guided & full instrumentation ---*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Guided instrumentation (Section 3.4, Figure 7): starting from the
/// runtime checks that are actually needed, demand shadow operations
/// backwards over the VFG. Nodes proven defined (Gamma = top) are handled
/// by strong updates to their shadows and cut the demand; possibly-
/// undefined nodes get full shadow propagation like MSan would emit.
///
/// Also provides the MSan model: full instrumentation of every statement
/// and every critical operation, which is the paper's baseline.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_CORE_INSTRUMENTATION_H
#define USHER_CORE_INSTRUMENTATION_H

#include "core/Definedness.h"
#include "core/InstrumentationPlan.h"

#include <memory>

namespace usher {
class Budget;

namespace ssa {
class MemorySSA;
}

namespace core {

/// Options for the guided planner.
struct PlannerOptions {
  /// False models the UsherTL variant: memory is not reasoned about, so
  /// every store and allocation is shadowed unconditionally and loads are
  /// pessimistically undefined. Must match the Definedness option.
  bool AddressTakenAware = true;
  /// Apply Opt I (value-flow simplification of must-flow-from closures).
  bool OptI = false;
  /// Optional budget (BudgetPhase::OptI): consulted per simplification
  /// attempt. Exhaustion leaves remaining closures unsimplified — the
  /// normal Figure 7 rules still cover them, so the plan stays sound.
  Budget *B = nullptr;

  // -- SanitizerClient hooks -----------------------------------------------
  // Defaults reproduce the UUV client bit-for-bit; a taint client (see
  // core/SanitizerClient.h) overrides them together with a seeded
  // Definedness so the same Figure 7 rules plan its instrumentation, and
  // buildFullInstrumentation reads them to build its full plan.

  /// Check sites to seed the demand from; null = the VFG's critical uses
  /// (the UUV client's loads/stores/branches/returns).
  const std::vector<vfg::VFG::CriticalUse> *Sinks = nullptr;
  /// Taint mode: allocation results may be Gamma-bottom because they ARE
  /// the taint sources; plan sigma(def) := F at the allocation instead of
  /// asserting unreachability.
  bool AllocResultsAreSources = false;
  /// Fresh objects' cells start clean (taint clients: an uninitialized
  /// cell holds no address) instead of at the object's isInitialized()
  /// flag (UUV).
  bool ObjectsStartClean = false;
  /// Shadow a void `ret` contributes to its captured result. UUV: false
  /// (capturing a void return is an undefined use); taint clients: true
  /// (a void return carries no address).
  bool VoidRetShadow = false;
};

/// Demand-driven planner implementing the deduction rules of Figure 7.
class InstrumentationPlanner {
public:
  InstrumentationPlanner(const ir::Module &M, const ssa::MemorySSA &SSA,
                         const vfg::VFG &G, const Definedness &Gamma,
                         PlannerOptions Opts);
  ~InstrumentationPlanner();

  /// Computes the guided plan.
  InstrumentationPlan run();

  /// Number of must-flow-from closures simplified by Opt I (Table 1's
  /// second-to-last column).
  uint64_t numSimplifiedMFCs() const;

private:
  class Impl;
  std::unique_ptr<Impl> PImpl;
};

/// Builds the MSan-style full instrumentation: every value shadowed, every
/// statement's shadow executed, every check site checked. Only the client
/// hooks of \p Hooks are read. Without Sinks the check sites are UUV's
/// syntactic ones (the pointer of each load and store, the condition of
/// each branch); with Sinks, exactly the sinks are checked.
InstrumentationPlan
buildFullInstrumentation(const ir::Module &M,
                         const PlannerOptions &Hooks = PlannerOptions());

} // namespace core
} // namespace usher

#endif // USHER_CORE_INSTRUMENTATION_H
