//===- core/ContextStack.h - k-bounded call-site context --------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The k-bounded stack of unmatched call sites used by context-sensitive
/// value-flow reachability (Section 3.3), and follow(), the one k-limited
/// Direct/Call/Ret context step. Definedness resolution, the static
/// diagnosis witness search, the demand query and its witness validator
/// all take that step, so they agree exactly on which interprocedural
/// flows are realizable.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_CORE_CONTEXTSTACK_H
#define USHER_CORE_CONTEXTSTACK_H

#include "vfg/VFG.h"

#include <cassert>
#include <cstdint>

namespace usher {
namespace core {

/// A k-bounded stack of unmatched call sites, encoded in 64 bits.
/// Layout: bits 48..49 count, bits 24..47 the site below the top,
/// bits 0..23 the top site. Site ids are instruction ids (< 2^24).
class ContextStack {
public:
  static ContextStack empty() { return ContextStack(0); }

  /// Rehydrates a stack from a raw() encoding. Only values previously
  /// produced by raw() are valid (the demand-driven query keys its visited
  /// states by the raw encoding and round-trips through this).
  static ContextStack fromRaw(uint64_t Bits) { return ContextStack(Bits); }

  uint64_t raw() const { return Bits; }

  ContextStack pushed(uint32_t Site, unsigned K) const {
    if (K == 0)
      return *this;
    assert(Site < (1u << 24) && "call-site id exceeds encoding width");
    unsigned Count = count();
    if (Count == 0)
      return make(1, 0, Site);
    if (Count == 1 && K >= 2)
      return make(2, top(), Site);
    if (K == 1)
      return make(1, 0, Site);
    // Count == 2 (== K): drop the bottom entry.
    return make(2, top(), Site);
  }

  /// Attempts to match a return at \p Site. Returns false if the flow is
  /// unrealizable (a pending call from a different site is on top).
  bool popped(uint32_t Site, ContextStack &Out) const {
    unsigned Count = count();
    if (Count == 0) {
      // No pending call is remembered: the undefined value originated
      // inside the callee (or deeper than the k window); exiting through
      // any site is realizable.
      Out = *this;
      return true;
    }
    if (top() != Site)
      return false;
    if (Count == 1)
      Out = ContextStack(0);
    else
      Out = make(1, 0, below());
    return true;
  }

  /// Follows a value-flow edge of kind \p Kind labelled with call site
  /// \p Site under k = \p K, storing the successor context in \p Out.
  /// Returns false for an unrealizable return. Under k = 0 nothing is
  /// ever pushed, so every context stays empty and every return matches.
  bool follow(vfg::EdgeKind Kind, uint32_t Site, unsigned K,
              ContextStack &Out) const {
    switch (Kind) {
    case vfg::EdgeKind::Direct:
      Out = *this;
      return true;
    case vfg::EdgeKind::Call:
      Out = pushed(Site, K);
      return true;
    case vfg::EdgeKind::Ret:
      return popped(Site, Out);
    }
    return false;
  }

private:
  explicit ContextStack(uint64_t Bits) : Bits(Bits) {}
  static ContextStack make(unsigned Count, uint32_t Below, uint32_t Top) {
    return ContextStack((static_cast<uint64_t>(Count) << 48) |
                        (static_cast<uint64_t>(Below) << 24) | Top);
  }
  unsigned count() const { return static_cast<unsigned>(Bits >> 48); }
  uint32_t top() const { return static_cast<uint32_t>(Bits & 0xFFFFFF); }
  uint32_t below() const {
    return static_cast<uint32_t>((Bits >> 24) & 0xFFFFFF);
  }

  uint64_t Bits;
};

} // namespace core
} // namespace usher

#endif // USHER_CORE_CONTEXTSTACK_H
