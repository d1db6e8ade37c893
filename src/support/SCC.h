//===- support/SCC.h - Strongly connected components ------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tarjan's strongly connected components over dense node ids 0..N-1,
/// iterative so that deep graphs cannot overflow the native stack. The one
/// SCC routine behind the call graph, the definedness condensation and
/// CFG loop membership.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_SCC_H
#define USHER_SUPPORT_SCC_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace usher {

/// Returned by an edge's target accessor to skip that edge.
inline constexpr uint32_t SCCSkipEdge = ~0u;

/// Walks the SCCs of the graph over ids 0..\p N-1.
///
///  - Roots are tried in id order, and each node's out-edges in the order
///    \p Succs lists them. \p Succs(U) returns U's out-edges as an indexable
///    range; \p Target(E) maps an edge to its head, or to SCCSkipEdge to
///    leave the edge out of the graph.
///  - \p OnComponent(Root, Members) runs once per component, in completion
///    order: every component a component reaches is reported before it
///    (reverse topological order). Root is the member discovered first;
///    Members lists the members in pop order, so Root comes last.
///  - \p OnDiscover(U) runs when U is first reached, before any edge of U
///    is followed. Returning false abandons the walk: no further component
///    is reported and the function returns false.
template <typename SuccsFn, typename TargetFn, typename ComponentFn,
          typename DiscoverFn>
bool forEachSCC(uint32_t N, SuccsFn &&Succs, TargetFn &&Target,
                ComponentFn &&OnComponent, DiscoverFn &&OnDiscover) {
  std::vector<uint32_t> Index(N, 0), Low(N, 0), Stack, Members;
  std::vector<uint8_t> OnStack(N, 0);
  struct Frame {
    uint32_t Node;
    uint32_t NextEdge;
  };
  std::vector<Frame> DFS;
  uint32_t NextIndex = 1;
  auto Discover = [&](uint32_t U) {
    if (!OnDiscover(U))
      return false;
    Index[U] = Low[U] = NextIndex++;
    OnStack[U] = 1;
    Stack.push_back(U);
    DFS.push_back({U, 0});
    return true;
  };

  for (uint32_t Root = 0; Root != N; ++Root) {
    if (Index[Root])
      continue;
    if (!Discover(Root))
      return false;
    while (!DFS.empty()) {
      Frame &F = DFS.back();
      const uint32_t U = F.Node;
      const auto &Out = Succs(U);
      if (F.NextEdge < Out.size()) {
        const uint32_t V = Target(Out[F.NextEdge++]);
        if (V == SCCSkipEdge)
          continue;
        if (!Index[V]) {
          if (!Discover(V))
            return false;
        } else if (OnStack[V]) {
          Low[U] = std::min(Low[U], Index[V]);
        }
        continue;
      }
      DFS.pop_back();
      if (!DFS.empty())
        Low[DFS.back().Node] = std::min(Low[DFS.back().Node], Low[U]);
      if (Low[U] != Index[U])
        continue;
      Members.clear();
      uint32_t M;
      do {
        M = Stack.back();
        Stack.pop_back();
        OnStack[M] = 0;
        Members.push_back(M);
      } while (M != U);
      OnComponent(U, static_cast<const std::vector<uint32_t> &>(Members));
    }
  }
  return true;
}

/// forEachSCC without a discovery hook: the walk always completes.
template <typename SuccsFn, typename TargetFn, typename ComponentFn>
void forEachSCC(uint32_t N, SuccsFn &&Succs, TargetFn &&Target,
                ComponentFn &&OnComponent) {
  forEachSCC(N, Succs, Target, OnComponent, [](uint32_t) { return true; });
}

} // namespace usher

#endif // USHER_SUPPORT_SCC_H
