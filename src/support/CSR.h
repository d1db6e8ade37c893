//===- support/CSR.h - Compressed sparse row layout -------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds compressed sparse row (CSR) arrays: the items of rows 0..N-1
/// stored back to back in one array, with one offset array of N + 1
/// entries saying where each row starts. The VFG's adjacency, the
/// definedness resolution's condensed graph, the CFG and dominator tables
/// and memory SSA's phis are laid out this way.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_CSR_H
#define USHER_SUPPORT_CSR_H

#include <cstdint>
#include <vector>

namespace usher {

/// Fills \p Begin and \p Items with the rows of \p N rows that \p ForEach
/// emits: \p ForEach(Emit) calls Emit(Row, Item) once per item, the same
/// way each of the two times it runs (count, then fill). Row R's items
/// are Items[Begin[R] .. Begin[R + 1]), in the order they were emitted.
template <typename T, typename ForEachFn>
void fillCSR(uint32_t N, ForEachFn &&ForEach, std::vector<uint32_t> &Begin,
             std::vector<T> &Items) {
  Begin.assign(N + 1, 0);
  ForEach([&](uint32_t Row, const T &) { ++Begin[Row + 1]; });
  for (uint32_t Row = 0; Row != N; ++Row)
    Begin[Row + 1] += Begin[Row];
  std::vector<uint32_t> End(Begin.begin(), Begin.end() - 1);
  Items.resize(Begin[N]);
  ForEach([&](uint32_t Row, const T &Item) { Items[End[Row]++] = Item; });
}

} // namespace usher

#endif // USHER_SUPPORT_CSR_H
