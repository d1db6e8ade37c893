//===- core/Definedness.cpp - Definedness resolution -----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/Definedness.h"

#include "core/ContextStack.h"
#include "support/Budget.h"
#include "support/SCC.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace usher;
using namespace usher::core;
using vfg::Edge;
using vfg::EdgeKind;
using vfg::VFG;

/// The k-bounded unmatched-call-site stack lives in core/ContextStack.h so
/// the static diagnosis witness search replays exactly these transitions.
using Context = ContextStack;

Definedness::Definedness(
    const VFG &G, DefinednessOptions Opts,
    const std::unordered_map<uint32_t, std::vector<Edge>> *Redirects,
    Budget *B) {
  const unsigned K = Opts.ContextK;
  const uint32_t N = G.numNodes();
  Bottom.resize(N);

  // On budget exhaustion the worklist is abandoned mid-flight, so the
  // reachability result is incomplete. Completing it pessimistically keeps
  // the answer sound: mark bottom every node that is not structurally
  // defined, i.e. whose effective dependencies are not all the T root.
  // (Alloc results and constants depend only on RootT and must stay top —
  // the planner asserts they never demand a definition.)
  auto Pessimize = [&] {
    Pessimized = true;
    for (uint32_t Id = 0; Id != N; ++Id) {
      if (G.isRoot(Id))
        continue;
      const std::vector<Edge> *Deps = &G.deps(Id);
      if (Redirects) {
        auto It = Redirects->find(Id);
        if (It != Redirects->end())
          Deps = &It->second;
      }
      bool AllTop = !Deps->empty();
      for (const Edge &E : *Deps) {
        if (E.Node != VFG::RootT) {
          AllTop = false;
          break;
        }
      }
      if (!AllTop)
        Bottom.set(Id);
    }
    // Taint seeds are bottom by definition, even when structurally
    // defined (an alloc result depends only on RootT yet IS the source).
    if (Opts.Seeds)
      for (uint32_t S : *Opts.Seeds)
        if (!G.isRoot(S))
          Bottom.set(S);
  };

  if (B && !B->step()) {
    Pessimize();
    return;
  }

  // Effective forward-flow adjacency, hoisted out of the worklist loop: a
  // flow runs from each definition to each of its users, and a redirected
  // user's flow is suppressed when its overriding dependency list no
  // longer names the definition. Filtering once here replaces a hash
  // lookup per user at every pop.
  std::vector<std::vector<Edge>> Flows(N);
  for (uint32_t S = 0; S != N; ++S) {
    for (const Edge &E : G.users(S)) {
      if (Redirects) {
        auto It = Redirects->find(E.Node);
        if (It != Redirects->end()) {
          bool StillDepends = false;
          for (const Edge &D : It->second) {
            if (D.Node == S && D.Kind == E.Kind && D.CallSite == E.CallSite) {
              StillDepends = true;
              break;
            }
          }
          if (!StillDepends)
            continue;
        }
      }
      Flows[S].push_back(E);
    }
  }

  // Condense the Direct-flow SCCs. Direct edges never touch the context
  // stack, so every member of a Direct cycle is undefinedness-reachable
  // under exactly the same set of contexts; the reachability below
  // therefore runs over SCC representatives and the visited-(node,
  // context) memo is kept once per component instead of once per member.
  std::vector<uint32_t> Rep(N);
  forEachSCC(
      N, [&](uint32_t U) -> const std::vector<Edge> & { return Flows[U]; },
      [](const Edge &E) {
        return E.Kind == EdgeKind::Direct ? E.Node : SCCSkipEdge;
      },
      [&](uint32_t Root, const std::vector<uint32_t> &Members) {
        for (uint32_t M : Members)
          Rep[M] = Root;
      });

  // Members per representative (a component reached in any context marks
  // every member bottom), and the condensed labeled adjacency:
  // intra-component Direct flows vanish, Call/Ret flows survive even as
  // self-loops — they transform the context.
  std::vector<std::vector<uint32_t>> Members(N);
  for (uint32_t Id = 0; Id != N; ++Id)
    Members[Rep[Id]].push_back(Id);

  struct CondensedEdge {
    uint32_t Target;
    EdgeKind Kind;
    uint32_t CallSite;
    bool operator<(const CondensedEdge &O) const {
      if (Target != O.Target)
        return Target < O.Target;
      if (Kind != O.Kind)
        return Kind < O.Kind;
      return CallSite < O.CallSite;
    }
    bool operator==(const CondensedEdge &O) const {
      return Target == O.Target && Kind == O.Kind && CallSite == O.CallSite;
    }
  };
  std::vector<std::vector<CondensedEdge>> RepFlows(N);
  for (uint32_t S = 0; S != N; ++S) {
    for (const Edge &E : Flows[S]) {
      uint32_t RS = Rep[S], RT = Rep[E.Node];
      if (E.Kind == EdgeKind::Direct && RS == RT)
        continue;
      RepFlows[RS].push_back({RT, E.Kind, E.CallSite});
    }
  }
  for (auto &Out : RepFlows) {
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  }

  // Per-representative set of contexts already explored; capped to bound
  // state explosion — on overflow the component saturates to the
  // universal (empty) context, which over-approximates every other
  // context.
  constexpr size_t MaxContextsPerRep = 64;
  std::vector<std::unordered_set<uint64_t>> Seen(N);
  std::vector<uint8_t> Saturated(N, 0);

  struct State {
    uint32_t Rep;
    Context Ctx;
  };
  std::vector<State> Work;

  auto Reach = [&](uint32_t Node, Context Ctx) {
    uint32_t R = Rep[Node];
    if (Saturated[R])
      return;
    if (Seen[R].empty())
      for (uint32_t M : Members[R])
        Bottom.set(M);
    if (Seen[R].size() >= MaxContextsPerRep) {
      Saturated[R] = 1;
      Ctx = Context::empty();
      if (!Seen[R].insert(Ctx.raw()).second)
        return;
    } else if (!Seen[R].insert(Ctx.raw()).second) {
      return;
    }
    Work.push_back({R, Ctx});
  };

  if (Opts.Seeds) {
    for (uint32_t S : *Opts.Seeds)
      Reach(S, Context::empty());
  } else {
    Reach(VFG::RootF, Context::empty());
  }
  if (!Opts.AddressTakenAware) {
    // The top-level-only variant does not reason about memory: every
    // address-taken definition may hold an undefined value.
    for (uint32_t Id = 2; Id != N; ++Id)
      if (G.node(Id).Key.Sp == ssa::Space::Memory)
        Reach(Id, Context::empty());
  }

  // Undefinedness flows from the depended-on component to its users.
  while (!Work.empty()) {
    if (B && !B->step()) {
      Pessimize();
      return;
    }
    State S = Work.back();
    Work.pop_back();
    for (const CondensedEdge &E : RepFlows[S.Rep]) {
      switch (E.Kind) {
      case EdgeKind::Direct:
        Reach(E.Target, S.Ctx);
        break;
      case EdgeKind::Call:
        Reach(E.Target, K == 0 ? S.Ctx : S.Ctx.pushed(E.CallSite, K));
        break;
      case EdgeKind::Ret: {
        if (K == 0) {
          Reach(E.Target, S.Ctx);
          break;
        }
        Context Out = Context::empty();
        if (S.Ctx.popped(E.CallSite, Out))
          Reach(E.Target, Out);
        break;
      }
      }
    }
  }
}

BitSet core::computeCheckReaching(const VFG &G, const Definedness &Gamma) {
  BitSet Reaching(G.numNodes());
  BitSet Frontier(G.numNodes());
  BitSet Fresh(G.numNodes());
  for (const VFG::CriticalUse &Use : G.criticalUses())
    if (Gamma.mayBeUndefined(Use.Node))
      Frontier.set(Use.Node);
  // Level-synchronous backward sweep over the dependency edges. Each round
  // folds the frontier into the result with the word-sparse merge — Fresh
  // receives exactly the nodes not seen before — and only those expand
  // into the next frontier. The set-bit iterator skips zero words, so the
  // typically-sparse frontiers cost one load per word plus one ctz per
  // member.
  while (true) {
    Fresh.clearAll();
    if (!Reaching.orWithMissingInto(Frontier, Fresh))
      break;
    Frontier.clearAll();
    for (size_t Node : Fresh)
      for (const Edge &E : G.deps(static_cast<uint32_t>(Node)))
        if (!G.isRoot(E.Node) && !Reaching.test(E.Node))
          Frontier.set(E.Node);
  }
  return Reaching;
}
