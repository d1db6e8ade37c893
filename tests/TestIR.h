//===- tests/TestIR.h - IR helpers shared by tests --------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#ifndef USHER_TESTS_TESTIR_H
#define USHER_TESTS_TESTIR_H

#include "ir/IR.h"

#include <vector>

namespace usher {
namespace test {

/// The variable operands \p I reads, as Instruction::forEachUsedVar visits
/// them (in operand order, once per occurrence).
inline std::vector<ir::Variable *> usedVars(const ir::Instruction &I) {
  std::vector<ir::Variable *> Used;
  I.forEachUsedVar([&](ir::Variable *V) { Used.push_back(V); });
  return Used;
}

} // namespace test
} // namespace usher

#endif // USHER_TESTS_TESTIR_H
