//===- support/Budget.cpp - Per-phase analysis budgets ----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

using namespace usher;

const char *usher::budgetPhaseName(BudgetPhase P) {
  switch (P) {
  case BudgetPhase::PointerAnalysis:
    return "pta";
  case BudgetPhase::Definedness:
    return "definedness";
  case BudgetPhase::OptI:
    return "opt1";
  case BudgetPhase::OptII:
    return "opt2";
  }
  return "?";
}

const char *usher::exhaustKindName(ExhaustKind K) {
  switch (K) {
  case ExhaustKind::None:
    return "none";
  case ExhaustKind::Steps:
    return "step budget";
  case ExhaustKind::Deadline:
    return "deadline";
  case ExhaustKind::Injected:
    return "injected fault";
  }
  return "?";
}

void Budget::beginPhase(BudgetPhase P) {
  Cur = P;
  Steps = 0;
  Checks = 0;
  Exhaust = ExhaustKind::None;
  if (!Armed)
    return;
  PhaseStart = std::chrono::steady_clock::now();
  // An at-step-0 fault means "exhaust upon entering the phase". Firing it
  // here (not in step) keeps injection deterministic even when the phase's
  // worklist turns out to be empty.
  if (faultLeft() && Fault->AtStep == 0) {
    ++FaultFires;
    Exhaust = ExhaustKind::Injected;
  }
}

bool Budget::stepSlow(uint64_t N) {
  if (exhausted())
    return false;
  Steps += N;
  // One batched call may cross the fault (at AtStep + 1) and the step
  // limit (at MaxStepsPerPhase + 1) together. The lower crossing is
  // reported; the fault wins a tie but consumes its fire either way.
  bool FaultHit = faultLeft() && Steps > Fault->AtStep;
  if (FaultHit) {
    ++FaultFires;
    Exhaust = ExhaustKind::Injected;
  }
  if (Limits.MaxStepsPerPhase && Steps > Limits.MaxStepsPerPhase &&
      (!FaultHit || Limits.MaxStepsPerPhase < Fault->AtStep))
    Exhaust = ExhaustKind::Steps;
  if (exhausted())
    return false;
  // The clock probe is rate-limited: a syscall-ish probe per worklist
  // pop would dominate small analyses.
  ++Checks;
  if (Limits.PhaseDeadlineMs && (Checks & 127) == 0) {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - PhaseStart)
                       .count();
    if (static_cast<uint64_t>(Elapsed) >= Limits.PhaseDeadlineMs) {
      Exhaust = ExhaustKind::Deadline;
      return false;
    }
  }
  return true;
}
