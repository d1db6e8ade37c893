//===- ir/Verifier.h - TinyC IR well-formedness checks ----------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural well-formedness checks for TinyC modules. Analyses and the
/// interpreter assume a verified module.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_IR_VERIFIER_H
#define USHER_IR_VERIFIER_H

#include <string>
#include <vector>

namespace usher {
namespace ir {

class Module;

/// Checks \p M for structural errors. Returns true if the module is
/// well-formed; otherwise appends one message per problem to \p Errors.
///
/// Checked properties:
///  - every block ends in exactly one terminator, and terminators appear
///    only at block ends;
///  - branch targets belong to the same function;
///  - operands reference variables of the enclosing function;
///  - call argument counts match callee parameter counts;
///  - a `main` function with no parameters exists;
///  - non-global objects have exactly one allocation site, globals none;
///  - value-producing instructions have a def, stores/branches do not.
bool verifyModule(const Module &M, std::vector<std::string> &Errors);

/// Convenience wrapper: verifies and aborts with the error list on failure.
/// Intended for tests and tools, not library code.
void verifyModuleOrAbort(const Module &M);

} // namespace ir
} // namespace usher

#endif // USHER_IR_VERIFIER_H
