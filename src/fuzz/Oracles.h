//===- fuzz/Oracles.h - Differential oracles over one program ---*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seven differential oracles the fuzzer evaluates on every valid
/// input, each reusing an existing piece of the project's verification
/// infrastructure:
///
///  1. VariantEquivalence — every ToolVariant's instrumented run must
///     preserve semantics (same main result, same termination) and report
///     the shadow interpreter's ground-truth warnings: exactly for
///     MSanFull / UsherTL / UsherTLAT / UsherOptI, and as a non-empty-iff
///     subset for UsherFull (Opt II suppresses dominated duplicates only).
///  2. SolverEquivalence — the naive reference Andersen solver must
///     produce the optimized engine's points-to sets, and plans built on
///     it must keep main's result and the per-rung warning guarantees at
///     every rung of the ladder.
///  3. DiagnosisSoundness — the static diagnosis engine, run in its
///     conservative posture, must classify no oracle warning CLEAN and
///     every DEFINITE finding must fire at runtime with a witness that
///     validateQueryWitness accepts.
///  4. DegradationSoundness — injected budget exhaustion in each pipeline
///     phase must land on the documented rung and keep the plan's
///     warnings exact (Opt II's subset where the run stays on USHER).
///     Pointer analysis is faulted twice: on every arm (the MSan rung)
///     and on its first arm only, which spares the field-insensitive
///     Andersen retry and keeps the USHER rung.
///  5. ServeEquivalence — the analysis service must answer what the
///     in-process pipeline computes: each program is replayed through the
///     full wire protocol (encode, frame, reassemble, decode) into a
///     Session backed by an in-memory snapshot store, twice. The cold
///     reply's check totals must match a direct runUsher, and the warm
///     reply, served from the stored snapshot record, must be
///     byte-identical to the cold one.
///  6. QueryEquivalence — the demand-driven CFL-reachability query must
///     agree with whole-program VFG reachability on sampled (src, sink)
///     pairs: each cflReachable verdict is checked against an independent
///     exhaustive state-space traversal, and every positive verdict's
///     witness must replay as a realizable VFG path.
///  7. ClientConsistency — every sanitizer client's guided plan must
///     report exactly the warnings its own full (analysis-free)
///     instrumentation reports, each warning must sit at an instruction
///     the client's static plan instruments with a check, and a
///     multi-client single-pass run (one interpreter, one plan per
///     client) must reproduce each client's individual-run warning set
///     and dynamic-check count.
///
/// Programs are interchanged as TinyC source text; each pipeline run
/// parses its own fresh module because heap cloning mutates modules, and
/// results are compared by instruction id (renumbering makes ids stable
/// across parses of the same text). The default pipeline (USHER,
/// Andersen, no clients) runs at most once per program and is shared by
/// every oracle that inspects it. Oracles 1, 2 and 4 are rows of one
/// table (options, expected rung, exact or subset warnings), and every
/// row goes through the same check: the run lands on its rung, finishes,
/// keeps main's result and reports the ground-truth warnings.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_FUZZ_ORACLES_H
#define USHER_FUZZ_ORACLES_H

#include "fuzz/Coverage.h"
#include "runtime/Interpreter.h"

#include <optional>
#include <string>
#include <vector>

namespace usher {
namespace fuzz {

enum class OracleKind : uint8_t {
  VariantEquivalence,
  SolverEquivalence,
  DiagnosisSoundness,
  DegradationSoundness,
  ServeEquivalence,
  QueryEquivalence,
  ClientConsistency,
};

constexpr unsigned NumOracleKinds = 7;

/// Stable lower-case name used in reports and JSON
/// ("variant-equivalence", "solver-equivalence", ...).
const char *oracleKindName(OracleKind K);

/// One oracle violation. Detail strings are deterministic functions of
/// the program (instruction ids, variable names — never addresses).
struct Divergence {
  OracleKind Oracle;
  std::string Detail;
};

/// Which oracles to evaluate and under what execution limits.
struct OracleOptions {
  /// Evaluate only this oracle; unset evaluates all seven.
  std::optional<OracleKind> Only;
  /// Applied to every interpreter run. Mutants can manufacture infinite
  /// loops, so the default step budget is far below the interpreter's.
  uint64_t MaxSteps = 2'000'000;
};

/// Everything one program's oracle evaluation produced.
struct OracleOutcome {
  /// Parsed, verified, and ran trap-free to completion natively. Invalid
  /// inputs are not counted against any oracle.
  bool Valid = false;
  std::string InvalidReason;

  std::vector<Divergence> Divergences;
  /// Coverage fingerprint (populated only for valid inputs).
  FeatureSet Features;
  /// Which oracles actually ran, indexed by OracleKind.
  bool Checked[NumOracleKinds] = {};

  int64_t MainResult = 0;
  uint64_t NumOracleWarnings = 0;
};

/// Parses \p Source and evaluates the enabled oracles on it.
OracleOutcome runOracles(const std::string &Source,
                         const OracleOptions &Opts = OracleOptions());

} // namespace fuzz
} // namespace usher

#endif // USHER_FUZZ_ORACLES_H
