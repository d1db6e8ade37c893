//===- workload/Generator.h - Random TinyC program generator ----*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generator of valid, terminating, trap-free TinyC programs that
/// deliberately mix defined and undefined values. Used by property tests
/// (the paper's soundness claim: guided instrumentation misses nothing
/// that full instrumentation reports) and by scaling benchmarks.
///
/// Generated programs:
///  - always terminate (loops are counter-bounded);
///  - never trap (pointer-typed values are tracked during generation and
///    pointers loaded from possibly-uninitialized cells are null-guarded
///    before dereferencing — the guard branch itself is a critical use of
///    a possibly-undefined value, which is exactly what we want to test);
///  - contain uninitialized stack/heap/global objects, partial
///    initialization, pointer chains through memory, calls (including
///    allocation-wrapper patterns) and dead code.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_WORKLOAD_GENERATOR_H
#define USHER_WORKLOAD_GENERATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace usher {
namespace ir {
class Module;
}

namespace workload {

/// Tuning knobs for the generator.
struct GeneratorOptions {
  unsigned NumFunctions = 4;     ///< Besides main.
  unsigned MaxSegmentsPerFn = 6; ///< Straight-line / if / loop segments.
  unsigned MaxStmtsPerSegment = 8;
};

/// Generates a verified, renumbered module from \p Seed.
std::unique_ptr<ir::Module>
generateProgram(uint64_t Seed, GeneratorOptions Opts = GeneratorOptions());

//===--------------------------------------------------------------------===//
// Text-level mutation API (the fuzzer's input scheduler)
//===--------------------------------------------------------------------===//
//
// Mutations operate on TinyC *source text*: the printer and parser
// round-trip, statement lines are self-delimiting (they end in ';'), and
// text splices compose across programs in a way in-memory IR cannot.
// Mutants are only syntactically plausible — callers must re-parse,
// verify and natively execute each one, discarding failures
// (generate-and-filter, as in Csmith-style fuzzing). All entry points are
// deterministic functions of their arguments.

/// Splits source text into lines, without their newlines; a final line
/// without a newline is kept, a trailing empty one is not.
std::vector<std::string> splitLines(const std::string &Source);

/// Joins lines back into source text, each followed by a newline.
std::string joinLines(const std::vector<std::string> &Lines);

/// \p Line without its `//` comment and surrounding blanks.
std::string trimmedLine(const std::string &Line);

/// Applies a random batch of one to three statement-level mutations to
/// \p Source:
/// delete / duplicate / swap statement lines, flip `init` <-> `uninit` on
/// allocations and globals, perturb integer literals, and insert
/// redefinitions of existing variables.
std::string mutateProgram(const std::string &Source, uint64_t Seed);

/// Splices a short contiguous run of statements from \p Donor into a
/// function of \p Receiver, declaring any donor-only names in the
/// receiver's `var` line (they start undefined there — which is exactly
/// the kind of value flow worth fuzzing).
std::string spliceProgram(const std::string &Receiver,
                          const std::string &Donor, uint64_t Seed);

/// Renames `main` to a fresh wrapper name and appends a new `main` that
/// calls it, growing every interprocedural analysis context and the
/// dynamic call depth by one. Returns "" if \p Source has no main.
std::string wrapMainInCall(const std::string &Source);

} // namespace workload
} // namespace usher

#endif // USHER_WORKLOAD_GENERATOR_H
