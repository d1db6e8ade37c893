//===- transforms/Transforms.h - IR transformations -------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler transformations the paper's evaluation pipelines use:
///
///  - O0+IM: mem2reg ("promote memory to virtual registers") — the
///    paper's recommended setting for debugging. (The paper's "I" inlines
///    functions with function-pointer arguments to simplify the call
///    graph; TinyC has no function pointers, so that step is vacuous.)
///  - O1: O0+IM plus constant/copy propagation, constant folding, dead
///    code elimination and CFG simplification.
///  - O2: O1 plus inlining of small functions and a second optimization
///    round.
///
/// As the paper notes (Section 4.6), higher levels may legitimately
/// *hide* uses of undefined values (dead-load elimination, folding);
/// tests pin down that behaviour rather than fight it.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_TRANSFORMS_TRANSFORMS_H
#define USHER_TRANSFORMS_TRANSFORMS_H

namespace usher {
namespace ir {
class Module;
}

namespace transforms {

/// The callee size up to which O2 inlines.
constexpr unsigned DefaultInlineLimit = 40;

/// Drops non-global objects whose allocation instruction no longer exists
/// (after dead-code or unreachable-block removal). Transforms that delete
/// instructions call this before re-verifying.
void purgeDanglingObjects(ir::Module &M);

/// The evaluation pipelines of Section 4.
enum class OptPreset { O0IM, O1, O2 };

/// Returns "O0+IM" / "O1" / "O2".
const char *optPresetName(OptPreset P);

/// Applies \p P to \p M (verifies and renumbers afterwards).
void runPreset(ir::Module &M, OptPreset P);

namespace detail {
/// The passes runPreset runs. Each returns true if it changed the module,
/// and none renumbers it: no pass reads instruction ids or the module's
/// instruction count, and each keeps block ids dense itself, so runPreset
/// renumbers once, at its end.

/// Promotes non-escaping, non-array stack objects to top-level variables
/// (one per field).
bool promoteMemoryToRegisters(ir::Module &M);

/// Inlines direct calls to non-recursive callees with at most
/// \p MaxCalleeInsts instructions.
bool inlineSmallFunctions(ir::Module &M,
                          unsigned MaxCalleeInsts = DefaultInlineLimit);

/// Block-local constant/copy propagation and constant folding, including
/// folding branches on constants.
bool propagateAndFold(ir::Module &M);

/// Removes side-effect-free instructions whose results are unused (this
/// includes dead loads, which is exactly how real -O1 pipelines hide
/// uninitialized reads).
bool eliminateDeadCode(ir::Module &M);

/// Merges trivial block chains and removes unreachable blocks.
bool simplifyCFG(ir::Module &M);
} // namespace detail

} // namespace transforms
} // namespace usher

#endif // USHER_TRANSFORMS_TRANSFORMS_H
