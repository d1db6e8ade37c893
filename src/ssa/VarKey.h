//===- ssa/VarKey.h - Names of SSA variables --------------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The name of one versioned variable of a function, in either SSA space.
/// The VFG labels its nodes with it; only memory SSA construction needs
/// more of memory SSA than this.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SSA_VARKEY_H
#define USHER_SSA_VARKEY_H

#include <cstdint>

namespace usher {
namespace ssa {

/// Which SSA space a variable lives in.
enum class Space : uint8_t {
  TopLevel, ///< Var_TL: id is ir::Variable::getId() within its function.
  Memory    ///< Var_AT: id is a module-wide PtLoc id.
};

/// A versioned variable reference local to one function.
struct VarKey {
  Space Sp;
  uint32_t Id;

  bool operator==(const VarKey &O) const { return Sp == O.Sp && Id == O.Id; }
};

} // namespace ssa
} // namespace usher

#endif // USHER_SSA_VARKEY_H
