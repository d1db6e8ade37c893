//===- tests/DecimalTest.cpp - Overflow-checked decimal parsing ------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A table of inputs for support/Decimal.h's parseDecimal, the one parser
/// behind every CLI option value and fault-spec number: only digits, at
/// least one, and no value above the caller's maximum.
///
//===----------------------------------------------------------------------===//

#include "support/Decimal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

using namespace usher;

namespace {

struct DecimalCase {
  const char *Text;
  uint64_t Max;
  std::optional<uint64_t> Want; ///< nullopt = rejected.
};

const DecimalCase Cases[] = {
    {"", UINT64_MAX, std::nullopt},
    {"-1", UINT64_MAX, std::nullopt},
    {" 5", UINT64_MAX, std::nullopt},
    {"5 ", UINT64_MAX, std::nullopt},
    {"+5", UINT64_MAX, std::nullopt},
    {"0x10", UINT64_MAX, std::nullopt},
    {"1e3", UINT64_MAX, std::nullopt},
    {"0", UINT64_MAX, 0},
    {"007", UINT64_MAX, 7},
    {"42", UINT64_MAX, 42},
    // 2^64 - 1 is the largest value; 2^64 and beyond must not wrap.
    {"18446744073709551615", UINT64_MAX, UINT64_MAX},
    {"18446744073709551616", UINT64_MAX, std::nullopt},
    {"18446744073709551617", UINT64_MAX, std::nullopt},
    {"99999999999999999999", UINT64_MAX, std::nullopt},
    {"100000000000000000000", UINT64_MAX, std::nullopt},
    // A 32-bit field: 2^32 - 1 fits, 2^32 and 2^32 + 1 do not.
    {"4294967295", UINT32_MAX, UINT32_MAX},
    {"4294967296", UINT32_MAX, std::nullopt},
    {"4294967297", UINT32_MAX, std::nullopt},
    // Small caller maxima, including a single-digit and a zero bound.
    {"100", 100, 100},
    {"101", 100, std::nullopt},
    {"9", 9, 9},
    {"10", 9, std::nullopt},
    {"0", 0, 0},
    {"1", 0, std::nullopt},
};

} // namespace

TEST(Decimal, InputTable) {
  for (const DecimalCase &C : Cases) {
    uint64_t Out = 12345;
    bool Ok = parseDecimal(C.Text, C.Max, Out);
    ASSERT_EQ(Ok, C.Want.has_value())
        << "'" << C.Text << "' max " << C.Max;
    // A rejected input leaves the destination untouched.
    EXPECT_EQ(Out, Ok ? *C.Want : 12345u) << "'" << C.Text << "'";
  }
}
