//===- fuzz/Fuzzer.h - Coverage-guided differential fuzzing -----*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign driver: a coverage-guided loop over TinyC programs that
/// evaluates the seven differential oracles (fuzz/Oracles.h) on every
/// valid input and minimizes any divergence with the hierarchical reducer
/// (fuzz/Reducer.h).
///
/// Scheduling is AFL-shaped but deliberately small: the corpus holds
/// inputs that contributed a new coverage key; each round either
/// generates a fresh program (workload::generateProgram), mutates a
/// corpus member (workload::mutateProgram), splices two members
/// (workload::spliceProgram), or wraps main in a call to deepen every
/// analysis context (workload::wrapMainInCall). Everything — generation,
/// scheduling, reduction, the report — is a deterministic function of the
/// campaign seed, and the JSON report (schema "usher-fuzz-v1") contains
/// no timings, so same-seed campaigns are byte-identical.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_FUZZ_FUZZER_H
#define USHER_FUZZ_FUZZER_H

#include "fuzz/Oracles.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace usher {

class raw_ostream;

namespace fuzz {

struct FuzzOptions {
  uint64_t Seed = 1;
  unsigned Runs = 256;
  /// Minimize divergent programs before reporting them.
  bool Reduce = true;
  /// Corpus capacity; oldest entries are evicted first.
  unsigned MaxCorpus = 64;
  /// Seed the corpus with this many synthesized mid-size whole programs
  /// before round 0 (seeds Seed + i over a fixed shape). The seeds enter the
  /// mutation/splice/wrap pool immediately — rounds then drive mid-size
  /// mutants through every oracle instead of only the small generated
  /// programs.
  unsigned SeedCorpusSynth = 0;
  OracleOptions Oracle;
  /// Cooperative cancellation: when non-null and raised (e.g. by a
  /// SIGINT/SIGTERM handler), the campaign stops at the next round
  /// boundary. The report then covers exactly the completed rounds
  /// (Runs is adjusted) and carries Interrupted = true, so a flushed
  /// partial campaign still satisfies every schema invariant.
  const std::atomic<bool> *Stop = nullptr;
};

/// One minimized oracle violation.
struct DivergenceRecord {
  OracleKind Oracle;
  std::string Detail;        ///< First divergence detail on the original.
  unsigned Run;              ///< Campaign round that found it.
  std::string Source;        ///< The divergent program as scheduled.
  std::string Reduced;       ///< Minimized repro (== Source when off).
  unsigned OriginalLines = 0;
  unsigned ReducedLines = 0;
  unsigned ReduceChecks = 0; ///< Predicate evaluations the reducer spent.
};

/// Campaign summary; printJson emits schema "usher-fuzz-v1".
struct FuzzReport {
  uint64_t Seed = 0;
  /// Rounds actually completed: equals the scheduled count unless the
  /// campaign was interrupted, so per-round tallies always sum to Runs.
  unsigned Runs = 0;
  bool Interrupted = false;
  unsigned NumValid = 0;
  unsigned NumInvalid = 0;
  unsigned NumGenerated = 0;
  unsigned NumMutated = 0;
  unsigned NumSpliced = 0;
  unsigned NumWrapped = 0;
  unsigned CorpusSize = 0;
  uint64_t CoverageKeys = 0;
  /// Per-oracle tallies, indexed by OracleKind.
  unsigned OracleChecked[NumOracleKinds] = {};
  unsigned OracleDiverged[NumOracleKinds] = {};
  std::vector<DivergenceRecord> Divergences;

  bool clean() const { return Divergences.empty(); }

  /// Deterministic JSON: no timestamps, no timings, no addresses.
  void printJson(raw_ostream &OS) const;
};

/// Runs one fuzzing campaign.
FuzzReport runFuzzer(const FuzzOptions &Opts);

} // namespace fuzz
} // namespace usher

#endif // USHER_FUZZ_FUZZER_H
