//===- tests/SCCTest.cpp - Shared Tarjan SCC routine -----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// support/SCC.h against a brute-force reference on seeded random graphs
/// with self-loops and skipped edges: the partition is mutual
/// reachability, components arrive in reverse topological order, each
/// root is its component's first-discovered member, and an aborting
/// discovery hook stops the walk without reporting another component.
///
//===----------------------------------------------------------------------===//

#include "support/RNG.h"
#include "support/SCC.h"

#include <gtest/gtest.h>

#include <vector>

using namespace usher;

namespace {

struct Edge {
  uint32_t To;
  bool Skip;
};

struct Graph {
  uint32_t N = 0;
  std::vector<std::vector<Edge>> Out;
};

Graph randomGraph(uint64_t Seed) {
  RNG Rng(Seed);
  Graph G;
  G.N = static_cast<uint32_t>(Rng.below(41));
  G.Out.resize(G.N);
  // Sparse and dense graphs alike: from forests to near-cliques.
  unsigned Density = static_cast<unsigned>(Rng.range(1, 30));
  for (uint32_t U = 0; U != G.N; ++U)
    for (uint32_t V = 0; V != G.N; ++V)
      if (Rng.chance(U == V ? 15 : Density))
        G.Out[U].push_back({V, Rng.chance(20)});
  return G;
}

/// Reach[U][V]: V is reachable from U over unskipped edges (reflexive).
std::vector<std::vector<bool>> reachability(const Graph &G) {
  std::vector<std::vector<bool>> Reach(G.N, std::vector<bool>(G.N, false));
  for (uint32_t S = 0; S != G.N; ++S) {
    std::vector<uint32_t> Work{S};
    Reach[S][S] = true;
    while (!Work.empty()) {
      uint32_t U = Work.back();
      Work.pop_back();
      for (const Edge &E : G.Out[U])
        if (!E.Skip && !Reach[S][E.To]) {
          Reach[S][E.To] = true;
          Work.push_back(E.To);
        }
    }
  }
  return Reach;
}

struct Walk {
  bool Completed = false;
  std::vector<uint32_t> Discovered;            ///< In discovery order.
  std::vector<uint32_t> Roots;                 ///< Per component.
  std::vector<std::vector<uint32_t>> Members;  ///< Per component.
  size_t ComponentsAtAbort = ~size_t(0);
};

/// Runs forEachSCC on \p G; the discovery hook refuses the \p AbortAt-th
/// discovery (never, if out of range).
Walk walk(const Graph &G, size_t AbortAt = ~size_t(0)) {
  Walk W;
  W.Completed = forEachSCC(
      G.N, [&](uint32_t U) -> const std::vector<Edge> & { return G.Out[U]; },
      [](const Edge &E) { return E.Skip ? SCCSkipEdge : E.To; },
      [&](uint32_t Root, const std::vector<uint32_t> &Members) {
        EXPECT_EQ(W.ComponentsAtAbort, ~size_t(0))
            << "component reported after the walk was abandoned";
        W.Roots.push_back(Root);
        W.Members.push_back(Members);
      },
      [&](uint32_t U) {
        if (W.Discovered.size() == AbortAt) {
          W.ComponentsAtAbort = W.Roots.size();
          return false;
        }
        W.Discovered.push_back(U);
        return true;
      });
  return W;
}

} // namespace

TEST(SCC, MatchesMutualReachabilityOnRandomGraphs) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE(Seed);
    Graph G = randomGraph(Seed);
    auto Reach = reachability(G);
    Walk W = walk(G);
    ASSERT_TRUE(W.Completed);
    ASSERT_EQ(W.Discovered.size(), G.N);
    if (G.N) {
      EXPECT_EQ(W.Discovered.front(), 0u) << "roots are tried in id order";
    }

    std::vector<uint32_t> Order(G.N, ~0u), Comp(G.N, ~0u);
    for (uint32_t I = 0; I != W.Discovered.size(); ++I)
      Order[W.Discovered[I]] = I;
    for (uint32_t C = 0; C != W.Members.size(); ++C) {
      const auto &Ms = W.Members[C];
      ASSERT_FALSE(Ms.empty());
      EXPECT_EQ(Ms.back(), W.Roots[C]) << "pop order ends at the root";
      for (uint32_t M : Ms) {
        ASSERT_EQ(Comp[M], ~0u) << "node " << M << " reported twice";
        Comp[M] = C;
        EXPECT_LE(Order[W.Roots[C]], Order[M])
            << "root is the first-discovered member";
      }
    }

    for (uint32_t U = 0; U != G.N; ++U) {
      ASSERT_NE(Comp[U], ~0u) << "node " << U << " never reported";
      for (uint32_t V = 0; V != G.N; ++V)
        EXPECT_EQ(Comp[U] == Comp[V], Reach[U][V] && Reach[V][U])
            << U << " ~ " << V;
      for (const Edge &E : G.Out[U])
        if (!E.Skip && Comp[U] != Comp[E.To]) {
          EXPECT_LT(Comp[E.To], Comp[U]) << "not reverse topological";
        }
    }
  }
}

TEST(SCC, AbortingDiscoveryStopsTheWalk) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE(Seed);
    Graph G = randomGraph(Seed);
    if (!G.N)
      continue;
    Walk Full = walk(G);
    size_t AbortAt = RNG(Seed * 7919).below(G.N);
    Walk Cut = walk(G, AbortAt);
    EXPECT_FALSE(Cut.Completed);
    EXPECT_EQ(Cut.Discovered.size(), AbortAt);
    EXPECT_EQ(Cut.ComponentsAtAbort, Cut.Roots.size());
    // Everything reported before the abort is a prefix of the full walk.
    ASSERT_LE(Cut.Roots.size(), Full.Roots.size());
    for (size_t C = 0; C != Cut.Roots.size(); ++C)
      EXPECT_EQ(Cut.Members[C], Full.Members[C]);
  }
}
