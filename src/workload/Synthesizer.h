//===- workload/Synthesizer.h - Whole-program workload synthesizer -*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scales the workload axis: a deterministic synthesizer of whole TinyC
/// programs with controlled shape (call-graph depth and fanout, mutual-
/// recursion SCC structure, pointer density, field-chain depth, fraction
/// of uninitialized allocations) and a size dial calibrated in VFG nodes,
/// plus a program linker that renames and composes independently written
/// programs (the 15 SPEC-like suite programs, synthesized modules, or any
/// mix) into one module with a generated driver `main`.
///
/// Every synthesized program:
///  - parses, verifies and terminates (loops are counter-bounded and
///    recursion rings burn an explicit fuel parameter);
///  - never traps (every dereferenced pointer is a local allocation, a
///    parameter backed by a caller allocation, or a pointer reloaded from
///    a cell a dominating store just wrote);
///  - runs its whole body exactly once regardless of how many call-graph
///    paths reach a function (a global memo array guards each body), so
///    dynamic cost stays linear in program size even though the static
///    call graph is a dense layered DAG;
///  - is byte-identical for a fixed spec (function bodies are pure
///    functions of (spec, function index)).
///
/// Undefined values enter through uninitialized allocations whose cells
/// are loaded and then branched on (the branch is the critical use the
/// interpreter's oracle reports). With DefineAll set, every allocation is
/// initialized and no such branch is emitted, so the program is
/// warning-free by construction — the property SynthesizerTest pins.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_WORKLOAD_SYNTHESIZER_H
#define USHER_WORKLOAD_SYNTHESIZER_H

#include <cstdint>
#include <string>
#include <vector>

namespace usher {
namespace ir {
class Instruction;
class Module;
}

namespace workload {

/// The shape specification usher-gen exposes. Defaults produce a mid-size
/// program (~10k VFG nodes) with a realistic mix.
struct ShapeSpec {
  uint64_t Seed = 1;
  /// Approximate VFG node count of the full pipeline on the synthesized
  /// program (the size dial). The calibration constant is pinned by
  /// SynthesizerTest within a factor-of-two band; bench_scale records the
  /// measured value next to the target.
  unsigned TargetNodes = 10'000;
  /// Call-tree levels below main. The layered call graph has exactly this
  /// acyclic depth (measured over the SCC condensation).
  unsigned CallDepth = 6;
  /// Distinct callees per non-leaf tree function. Levels have constant
  /// width, so callees are shared between callers (a DAG, not a tree) —
  /// that is what grows context counts the way real call graphs do.
  unsigned Fanout = 3;
  /// Mutual-recursion rings (one nontrivial call-graph SCC each).
  unsigned RecursionRings = 2;
  /// Functions per ring. 1 degenerates to self-recursion.
  unsigned RingSize = 3;
  /// Percentage of body statements that are pointer operations
  /// (alloc/gep/load/store/field chains); the rest is integer work.
  unsigned PtrDensityPercent = 35;
  /// Maximum linked field-chain descent (store next-pointer, reload it,
  /// gep the loaded base again — LoadDef-reached bases in the VFG).
  unsigned FieldChainDepth = 3;
  /// Percentage of allocations left uninitialized.
  unsigned UninitAllocPercent = 40;
  /// Initialize every allocation and emit no branch on a possibly-
  /// undefined value: the program is warning-free by construction.
  bool DefineAll = false;
};

/// Synthesizes one TinyC program from \p Spec. Deterministic; the text
/// parses, verifies, and terminates warning-free iff Spec.DefineAll.
std::string synthesizeProgram(const ShapeSpec &Spec);

/// What a module's call graph and allocation sites actually look like;
/// the property tests compare this against the requested ShapeSpec.
struct ShapeMetrics {
  unsigned NumFunctions = 0;   ///< Including main.
  uint64_t NumInstructions = 0;
  /// Longest acyclic path from main over the call-graph SCC condensation,
  /// in edges (main -> level0 -> ... counts CallDepth + ring attachment).
  unsigned CallDepth = 0;
  /// Distinct callees averaged over functions that call anything,
  /// excluding main (whose fanout is the level width by construction).
  double AvgFanout = 0;
  /// Call-graph SCCs that are genuine cycles (size > 1 or a self-loop).
  unsigned NontrivialSccs = 0;
  /// Uninitialized fraction of alloc-site objects (globals excluded).
  double UninitAllocFraction = 0;
};

/// Measures \p M (any verified module, not just synthesized ones).
ShapeMetrics measureShape(ir::Module &M);

/// One input program for the linker.
struct LinkUnit {
  std::string Name;   ///< Display name, e.g. "164.gzip".
  std::string Source; ///< TinyC text with its own `main`.
};

/// linkPrograms result: the composed module plus the per-unit symbol
/// prefixes ("u0_", "u1_", ...) callers use to map renamed functions and
/// globals back to their origin.
struct LinkedProgram {
  std::string Source;
  std::vector<std::string> Prefixes; ///< Parallel to the input units.
};

/// Renames every function and global of each unit with a per-unit prefix
/// (its `main` becomes `<prefix>main`), concatenates the renamed units,
/// and appends a driver `main` that calls each unit's entry in order and
/// returns the sum of their results. Per-unit behaviour is unchanged:
/// units share no state (globals are renamed apart), so the linked run's
/// warning set is the union of the standalone runs' warning sets under
/// the prefix mapping. On a parse failure of any unit, returns an empty
/// Source and, when \p Error is non-null, says which unit and why.
LinkedProgram linkPrograms(const std::vector<LinkUnit> &Units,
                           std::string *Error = nullptr);

/// Stable identity of a warning site that survives linking: the holding
/// function's name (with \p StripPrefix removed when it matches), the
/// basic-block name, and the instruction's index within the block.
std::string warningSiteKey(const ir::Instruction *At,
                           const std::string &StripPrefix = "");

} // namespace workload
} // namespace usher

#endif // USHER_WORKLOAD_SYNTHESIZER_H
