//===- support/Budget.h - Per-phase analysis budgets ------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cancellation/budget token threaded through every fixed-point loop of
/// the static pipeline. Each budgeted phase (Andersen solving, definedness
/// resolution, Opt I simplification, Opt II redundant check elimination)
/// re-arms the token with beginPhase() and then calls step() at iteration
/// granularity; a false return means the phase must stop and report a
/// typed Exhausted outcome instead of looping on.
///
/// The token is deliberately zero-cost on the happy path: with no limits
/// configured and no fault injected, step() is a single branch on a
/// cached flag. The wall-clock probe is rate-limited so an armed budget
/// stays cheap too.
///
/// One token belongs to one pipeline run on one thread. Concurrent runs
/// (usher-serve's workers) each build their own token. Within one
/// step(N) that crosses several thresholds, the lowest crossing step
/// wins and an injected fault wins a tie.
///
/// Exhaustion never throws and never crashes the pipeline: the driver
/// (core/Usher.cpp) reacts by walking a sound degradation ladder and the
/// worst outcome is the MSan full-instrumentation plan.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_BUDGET_H
#define USHER_SUPPORT_BUDGET_H

#include <chrono>
#include <cstdint>
#include <optional>

namespace usher {

/// The budgeted fixed-point phases of the pipeline.
enum class BudgetPhase : uint8_t {
  PointerAnalysis = 0, ///< Andersen constraint solving.
  Definedness,         ///< Gamma reachability resolution.
  OptI,                ///< MFC simplification / shadow-plan liveness.
  OptII,               ///< Redundant check elimination + re-resolution.
};
constexpr unsigned NumBudgetPhases = 4;

/// Short stable name used in fault specs and diagnostics
/// ("pta", "definedness", "opt1", "opt2").
const char *budgetPhaseName(BudgetPhase P);

/// Why a budget ran out.
enum class ExhaustKind : uint8_t {
  None = 0, ///< Not exhausted.
  Steps,    ///< Hit MaxStepsPerPhase.
  Deadline, ///< Hit PhaseDeadlineMs.
  Injected, ///< A FaultPlan fired (tests, --inject-fault).
};
const char *exhaustKindName(ExhaustKind K);

/// Resource limits applied to each phase independently. Zero means
/// unlimited. Per-phase (rather than whole-pipeline) limits guarantee the
/// degradation ladder terminates: every fallback attempt gets a fresh arm
/// and the terminal rung (the MSan full plan) needs no fixed point at all.
struct BudgetLimits {
  uint64_t MaxStepsPerPhase = 0; ///< Worklist iterations per phase.
  uint64_t PhaseDeadlineMs = 0;  ///< Wall-clock deadline per phase.

  bool any() const { return MaxStepsPerPhase || PhaseDeadlineMs; }
};

/// A deterministic injected exhaustion: while the named phase is armed,
/// the budget reports Exhausted as soon as AtStep steps were consumed
/// (AtStep == 0 exhausts the phase the moment it is armed). MaxFires
/// bounds the fault to the first N matching arms (spec suffix ":once" is
/// 1, ":2" is 2), which exercises the retry rungs of the ladder: "pta@0:1"
/// fails the field-sensitive Andersen run only, "pta@0:2" also fails the
/// field-insensitive rerun and lands on the unification retry.
struct FaultPlan {
  BudgetPhase Phase = BudgetPhase::PointerAnalysis;
  uint64_t AtStep = 0;
  /// 0 fires on every matching arm.
  uint32_t MaxFires = 0;
};

/// The budget token. Default-constructed tokens are unlimited and free.
/// Non-copyable: exactly one token exists per pipeline run and everyone
/// charges it by pointer.
class Budget {
public:
  Budget() = default;
  explicit Budget(const BudgetLimits &L,
                  std::optional<FaultPlan> F = std::nullopt)
      : Limits(L), Fault(F), Armed(L.any() || F.has_value()) {}

  Budget(const Budget &) = delete;
  Budget &operator=(const Budget &) = delete;

  /// Re-arms the token for phase \p P: resets the step count, the phase
  /// deadline and any previous exhaustion. An AtStep == 0 fault for \p P
  /// fires immediately, so injection is deterministic even for phases
  /// whose worklists happen to be empty.
  void beginPhase(BudgetPhase P);

  /// Consumes \p N steps. Returns true while the phase is within budget;
  /// once false, it stays false until the next beginPhase(). The call
  /// that crosses a threshold is charged in full; later calls charge
  /// nothing.
  bool step(uint64_t N = 1) {
    if (!Armed)
      return true;
    return stepSlow(N);
  }

  bool exhausted() const { return Exhaust != ExhaustKind::None; }
  ExhaustKind exhaustKind() const { return Exhaust; }
  BudgetPhase currentPhase() const { return Cur; }
  uint64_t stepsUsed() const { return Steps; }

private:
  bool stepSlow(uint64_t N);
  /// The fault targets the current phase and has fires left.
  bool faultLeft() const {
    return Fault && Fault->Phase == Cur &&
           (Fault->MaxFires == 0 || FaultFires < Fault->MaxFires);
  }

  BudgetLimits Limits;
  std::optional<FaultPlan> Fault;
  bool Armed = false;
  uint32_t FaultFires = 0;
  BudgetPhase Cur = BudgetPhase::PointerAnalysis;
  ExhaustKind Exhaust = ExhaustKind::None;
  uint64_t Steps = 0;
  uint64_t Checks = 0;
  std::chrono::steady_clock::time_point PhaseStart{};
};

} // namespace usher

#endif // USHER_SUPPORT_BUDGET_H
