//===- support/Decimal.h - Overflow-checked decimal parsing -----*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser for unsigned decimal text: every CLI option value and
/// every fault-spec number goes through parseDecimal().
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_DECIMAL_H
#define USHER_SUPPORT_DECIMAL_H

#include <cstdint>
#include <string_view>

namespace usher {

/// Parses \p Text as an unsigned decimal number no greater than \p Max and
/// stores it in \p Out. The text must be one or more digits 0-9: signs,
/// whitespace and any other character are rejected, and so is a value
/// above \p Max (which also catches uint64_t overflow). \p Out is left
/// unchanged on failure. Fields stored as `unsigned` pass UINT32_MAX.
inline bool parseDecimal(std::string_view Text, uint64_t Max, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (D > Max || V > (Max - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

} // namespace usher

#endif // USHER_SUPPORT_DECIMAL_H
