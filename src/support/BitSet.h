//===- support/BitSet.h - Dynamic bitset ------------------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense dynamic bitset over a fixed universe, for sets that are dense
/// by design: the naive reference solver's, mod/ref's, memory SSA's, the
/// VFG builder's and definedness's.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_BITSET_H
#define USHER_SUPPORT_BITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace usher {

/// Dense bitset over [0, size).
class BitSet {
public:
  BitSet() = default;
  explicit BitSet(size_t NumBits) { resize(NumBits); }

  /// Grows (or shrinks) the universe; new bits start cleared.
  void resize(size_t NumBits) {
    Bits = NumBits;
    Words.resize((NumBits + 63) / 64, 0);
  }

  size_t size() const { return Bits; }

  bool test(size_t Idx) const {
    assert(Idx < Bits && "bit index out of range");
    return (Words[Idx >> 6] >> (Idx & 63)) & 1;
  }

  /// Sets the bit; returns true if it was previously clear.
  bool set(size_t Idx) {
    assert(Idx < Bits && "bit index out of range");
    uint64_t Mask = 1ULL << (Idx & 63);
    uint64_t &W = Words[Idx >> 6];
    if (W & Mask)
      return false;
    W |= Mask;
    return true;
  }

  void clear(size_t Idx) {
    assert(Idx < Bits && "bit index out of range");
    Words[Idx >> 6] &= ~(1ULL << (Idx & 63));
  }

  void clearAll() { Words.assign(Words.size(), 0); }

  /// Word-level access: bit I lives in word I / 64 at position I % 64.
  /// Memory SSA combines mod/ref and kept-location sets a word at a time.
  size_t numWords() const { return Words.size(); }
  uint64_t word(size_t WordIdx) const { return Words[WordIdx]; }
  void orWord(size_t WordIdx, uint64_t Mask) { Words[WordIdx] |= Mask; }

  /// this |= Other; returns true if any bit changed. Dense word loop: the
  /// naive reference solver keeps this so its cost model stays honest.
  bool unionWith(const BitSet &Other) {
    assert(Bits == Other.Bits && "bitset size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// this |= Other, additionally recording every *newly set* bit into
  /// \p NewBits (NewBits |= Other & ~old-this). Returns true if any bit
  /// changed. This is the difference-propagation primitive: the receiver's
  /// delta set accumulates exactly the bits it has not seen before.
  bool orWithMissingInto(const BitSet &Other, BitSet &NewBits) {
    assert(Bits == Other.Bits && Bits == NewBits.Bits &&
           "bitset size mismatch");
    bool Changed = false;
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Src = Other.Words[I];
      if (!Src)
        continue;
      uint64_t Old = Words[I];
      uint64_t Fresh = Src & ~Old;
      if (Fresh) {
        Words[I] = Old | Fresh;
        NewBits.Words[I] |= Fresh;
        Changed = true;
      }
    }
    return Changed;
  }

  /// Number of set bits.
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  /// Calls \p Fn(index) for every set bit in ascending order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t WI = 0, WE = Words.size(); WI != WE; ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  /// Returns the set bits as a sorted vector.
  std::vector<uint32_t> toVector() const {
    std::vector<uint32_t> Result;
    Result.reserve(count());
    forEach([&](size_t Idx) { Result.push_back(static_cast<uint32_t>(Idx)); });
    return Result;
  }

  /// Forward iterator over set-bit indices in ascending order. Advancing
  /// skips zero words wholesale, so iterating a sparse set costs one load
  /// per 64-bit word plus one ctz per set bit.
  class const_iterator {
  public:
    using value_type = size_t;

    const_iterator(const std::vector<uint64_t> *Words, size_t WordIdx)
        : Words(Words), WordIdx(WordIdx) {
      if (WordIdx < Words->size()) {
        Pending = (*Words)[WordIdx];
        skipZeroWords();
      }
    }

    size_t operator*() const {
      return WordIdx * 64 +
             static_cast<unsigned>(__builtin_ctzll(Pending));
    }

    const_iterator &operator++() {
      Pending &= Pending - 1;
      skipZeroWords();
      return *this;
    }

    bool operator==(const const_iterator &O) const {
      return WordIdx == O.WordIdx && Pending == O.Pending;
    }
    bool operator!=(const const_iterator &O) const { return !(*this == O); }

  private:
    void skipZeroWords() {
      while (!Pending && ++WordIdx < Words->size())
        Pending = (*Words)[WordIdx];
      if (WordIdx >= Words->size()) {
        WordIdx = Words->size();
        Pending = 0;
      }
    }

    const std::vector<uint64_t> *Words;
    size_t WordIdx;
    uint64_t Pending = 0;
  };

  const_iterator begin() const { return const_iterator(&Words, 0); }
  const_iterator end() const { return const_iterator(&Words, Words.size()); }

private:
  size_t Bits = 0;
  std::vector<uint64_t> Words;
};

} // namespace usher

#endif // USHER_SUPPORT_BITSET_H
