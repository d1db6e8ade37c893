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
/// cached flag. Wall-clock and memory probes are rate-limited so an armed
/// budget stays cheap too.
///
/// step() may be called concurrently (concurrent DemandVFA queries charge
/// one token). Charging uses a relaxed atomic counter, and exhaustion is
/// attributed deterministically: thresholds fire on the
/// unique step() call whose charged interval contains the crossing value
/// (limit + 1), and when several thresholds are crossed the one with the
/// lowest crossing step wins — exactly the serial attribution, regardless
/// of scheduling. beginPhase() must not race with step(): phases are
/// separated by joins.
///
/// Exhaustion never throws and never crashes the pipeline: the driver
/// (core/Usher.cpp) reacts by walking a sound degradation ladder and the
/// worst outcome is the MSan full-instrumentation plan.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_BUDGET_H
#define USHER_SUPPORT_BUDGET_H

#include <atomic>
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
  Memory,   ///< Crossed MaxRSSBytes.
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
  uint64_t MaxRSSBytes = 0;      ///< Optional resident-set watermark.

  bool any() const { return MaxStepsPerPhase || PhaseDeadlineMs || MaxRSSBytes; }
};

/// A deterministic injected exhaustion: while the named phase is armed,
/// the budget reports Exhausted as soon as AtStep steps were consumed
/// (AtStep == 0 exhausts the phase the moment it is armed). With Once set
/// the fault fires on the first matching arm only, which exercises the
/// retry rungs of the ladder (e.g. the field-insensitive Andersen rerun).
/// MaxFires generalizes Once to the first N matching arms (spec suffix
/// ":2" etc.), so deeper rungs — the unification retry behind two failed
/// Andersen arms — are reachable deterministically too.
struct FaultPlan {
  BudgetPhase Phase = BudgetPhase::PointerAnalysis;
  uint64_t AtStep = 0;
  bool Once = false;
  /// 0 honors Once (1 arm if set, every arm otherwise); N > 0 fires on
  /// the first N matching arms regardless of Once.
  uint32_t MaxFires = 0;

  uint32_t fireLimit() const {
    if (MaxFires)
      return MaxFires;
    return Once ? 1 : ~0u;
  }
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
  /// whose worklists happen to be empty. Serial only — never call while
  /// workers may still be charging.
  void beginPhase(BudgetPhase P);

  /// Consumes \p N steps. Returns true while the phase is within budget;
  /// once false, it stays false until the next beginPhase(). Safe to call
  /// concurrently; the total charged is the sum of all grants, exactly as
  /// in a serial run.
  bool step(uint64_t N = 1) {
    if (!Armed)
      return true;
    return stepSlow(N);
  }

  bool exhausted() const {
    return Exhaust.load(std::memory_order_acquire) != NotExhausted;
  }
  ExhaustKind exhaustKind() const;
  BudgetPhase currentPhase() const { return Cur; }
  uint64_t stepsUsed() const { return Steps.load(std::memory_order_relaxed); }

private:
  bool stepSlow(uint64_t N);
  /// Records exhaustion \p K attributed to charged-step \p CrossStep; the
  /// lowest crossing step wins (with serial check order breaking ties) so
  /// attribution is schedule-independent.
  void install(ExhaustKind K, uint64_t CrossStep);

  /// Exhaustion state packed into one word — (CrossStep << 8) | check-rank
  /// of the kind — so the pair is installed and read atomically and a
  /// CAS-min linearizes racing crossings.
  static constexpr uint64_t NotExhausted = ~0ull;

  BudgetLimits Limits;
  std::optional<FaultPlan> Fault;
  bool Armed = false;
  std::atomic<uint32_t> FaultFires{0};
  BudgetPhase Cur = BudgetPhase::PointerAnalysis;
  std::atomic<uint64_t> Exhaust{NotExhausted};
  std::atomic<uint64_t> Steps{0};
  std::atomic<uint64_t> Checks{0};
  std::chrono::steady_clock::time_point PhaseStart{};
};

} // namespace usher

#endif // USHER_SUPPORT_BUDGET_H
