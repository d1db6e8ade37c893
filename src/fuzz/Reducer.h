//===- fuzz/Reducer.h - Greedy hierarchical test-case reduction -*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Automatic minimization of divergent TinyC programs, in the tradition of
/// hierarchical delta debugging: the predicate ("this still diverges the
/// same way") is re-evaluated on structurally smaller candidates, and a
/// candidate is kept whenever the predicate survives. Three pass shapes,
/// iterated to a fixpoint under pass and predicate-call budgets:
///
///  1. whole-function removal (coarsest granularity first);
///  2. ddmin-style chunk deletion over body lines, halving chunk sizes
///     down to single lines;
///  3. single-line simplification (constant-fold right-hand sides).
///
/// Candidates that break the program are rejected by the predicate itself
/// (an invalid program cannot "diverge the same way"), so the reducer
/// needs no syntax knowledge beyond line classification.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_FUZZ_REDUCER_H
#define USHER_FUZZ_REDUCER_H

#include <functional>
#include <string>

namespace usher {
namespace fuzz {

/// Returns true when \p Source still exhibits the behavior being
/// minimized. Must be deterministic.
using Predicate = std::function<bool(const std::string &)>;

/// Default cap on predicate evaluations (the expensive part).
constexpr unsigned MaxReduceChecks = 1500;

struct ReduceResult {
  std::string Source;      ///< The minimized program.
  unsigned NumChecks = 0;  ///< Predicate evaluations spent.
  unsigned NumPasses = 0;  ///< Sweeps completed.
};

/// Minimizes \p Source while \p P holds, evaluating \p P at most
/// \p MaxChecks times. \p P must hold on \p Source itself; if it does
/// not, the input is returned unchanged.
ReduceResult reduceProgram(const std::string &Source, const Predicate &P,
                           unsigned MaxChecks = MaxReduceChecks);

} // namespace fuzz
} // namespace usher

#endif // USHER_FUZZ_REDUCER_H
