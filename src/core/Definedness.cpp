//===- core/Definedness.cpp - Definedness resolution -----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/Definedness.h"

#include "core/ContextStack.h"
#include "support/Budget.h"
#include "support/CSR.h"
#include "support/SCC.h"

#include <algorithm>
#include <span>

using namespace usher;
using namespace usher::core;
using vfg::Edge;
using vfg::EdgeKind;
using vfg::VFG;

/// The k-bounded unmatched-call-site stack lives in core/ContextStack.h so
/// the static diagnosis witness search replays exactly these transitions.
using Context = ContextStack;

namespace {

/// The (representative, context) states reached so far: one
/// open-addressed hash set over all representatives.
class StateSet {
public:
  explicit StateSet(uint32_t Nodes) {
    size_t Cap = 64;
    while (Cap < 2 * static_cast<size_t>(Nodes))
      Cap *= 2;
    Slots.resize(Cap);
  }

  /// Adds (\p Rep, \p Ctx); false if it was already present.
  bool insert(uint32_t Rep, uint64_t Ctx) {
    if (2 * (Size + 1) > Slots.size())
      grow();
    Slot &S = find(Rep, Ctx);
    if (S.Rep != Empty)
      return false;
    S = {Ctx, Rep};
    ++Size;
    return true;
  }

private:
  static constexpr uint32_t Empty = ~0u;
  struct Slot {
    uint64_t Ctx = 0;
    uint32_t Rep = Empty;
  };

  /// The slot holding (\p Rep, \p Ctx), or the empty slot it would go in.
  Slot &find(uint32_t Rep, uint64_t Ctx) {
    uint64_t H = (Rep * 0x9E3779B97F4A7C15ull) ^ Ctx;
    H ^= H >> 31;
    H *= 0xBF58476D1CE4E5B9ull;
    H ^= H >> 29;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Rep == Empty || (S.Rep == Rep && S.Ctx == Ctx))
        return S;
    }
  }

  void grow() {
    std::vector<Slot> Old(2 * Slots.size());
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Rep != Empty)
        find(S.Rep, S.Ctx) = S;
  }

  std::vector<Slot> Slots;
  size_t Size = 0;
};

} // namespace

Definedness::Definedness(
    const VFG &G, DefinednessOptions Opts,
    const std::unordered_map<uint32_t, std::vector<Edge>> *Redirects,
    Budget *B)
    : AddressTakenAware(Opts.AddressTakenAware) {
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
      std::span<const Edge> Deps = G.deps(Id);
      if (Redirects) {
        auto It = Redirects->find(Id);
        if (It != Redirects->end())
          Deps = It->second;
      }
      bool AllTop = !Deps.empty();
      for (const Edge &E : Deps) {
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

  // Effective forward-flow adjacency: a flow runs from each definition to
  // each of its users, so without redirects it is the graph's own user
  // edges. A redirected user's flow is suppressed when its overriding
  // dependency list no longer names the definition; filtering once into a
  // copy replaces a hash lookup per user at every pop.
  std::vector<uint32_t> FilteredBegin;
  std::vector<Edge> Filtered;
  if (Redirects) {
    FilteredBegin.resize(N + 1);
    for (uint32_t S = 0; S != N; ++S) {
      FilteredBegin[S] = static_cast<uint32_t>(Filtered.size());
      for (const Edge &E : G.users(S)) {
        auto It = Redirects->find(E.Node);
        if (It != Redirects->end() &&
            std::find(It->second.begin(), It->second.end(),
                      Edge{S, E.Kind, E.CallSite}) == It->second.end())
          continue;
        Filtered.push_back(E);
      }
    }
    FilteredBegin[N] = static_cast<uint32_t>(Filtered.size());
  }
  auto Flows = [&](uint32_t U) -> std::span<const Edge> {
    if (!Redirects)
      return G.users(U);
    return {Filtered.data() + FilteredBegin[U],
            Filtered.data() + FilteredBegin[U + 1]};
  };

  // Condense the Direct-flow SCCs. Direct edges never touch the context
  // stack, so every member of a Direct cycle is undefinedness-reachable
  // under exactly the same set of contexts; the reachability below
  // therefore runs over SCC representatives and the visited-(node,
  // context) memo is kept once per component instead of once per member.
  std::vector<uint32_t> Rep(N);
  forEachSCC(
      N, Flows,
      [](const Edge &E) {
        return E.Kind == EdgeKind::Direct ? E.Node : SCCSkipEdge;
      },
      [&](uint32_t Root, const std::vector<uint32_t> &Members) {
        for (uint32_t M : Members)
          Rep[M] = Root;
      });

  // Members per representative (a component reached in any context marks
  // every member bottom), as CSR rows in id order.
  std::vector<uint32_t> MemberBegin, Members;
  fillCSR(
      N,
      [&](auto &&Emit) {
        for (uint32_t Id = 0; Id != N; ++Id)
          Emit(Rep[Id], Id);
      },
      MemberBegin, Members);

  // The condensed labeled adjacency, one sorted duplicate-free CSR row per
  // representative: intra-component Direct flows vanish, Call/Ret flows
  // survive even as self-loops — they transform the context.
  std::vector<uint32_t> RepFlowBegin;
  std::vector<Edge> RepFlows;
  fillCSR(
      N,
      [&](auto &&Emit) {
        for (uint32_t S = 0; S != N; ++S) {
          for (const Edge &E : Flows(S)) {
            uint32_t RS = Rep[S], RT = Rep[E.Node];
            if (E.Kind != EdgeKind::Direct || RS != RT)
              Emit(RS, Edge{RT, E.Kind, E.CallSite});
          }
        }
      },
      RepFlowBegin, RepFlows);
  uint32_t Out = 0;
  for (uint32_t R = 0; R != N; ++R) {
    auto First = RepFlows.begin() + RepFlowBegin[R];
    auto Last = RepFlows.begin() + RepFlowBegin[R + 1];
    std::sort(First, Last);
    Last = std::unique(First, Last);
    RepFlowBegin[R] = Out;
    Out = static_cast<uint32_t>(
        std::copy(First, Last, RepFlows.begin() + Out) - RepFlows.begin());
  }
  RepFlowBegin[N] = Out;
  RepFlows.resize(Out);

  // The contexts explored per representative, counted per representative
  // and capped to bound state explosion: on overflow the component
  // saturates to the universal (empty) context, which over-approximates
  // every other context.
  constexpr uint8_t MaxContextsPerRep = 64;
  constexpr uint8_t Saturated = 0xFF;
  std::vector<uint8_t> NumContexts(N, 0);
  StateSet Seen(N);

  struct State {
    uint32_t Rep;
    Context Ctx;
  };
  std::vector<State> Work;

  auto Reach = [&](uint32_t Node, Context Ctx) {
    uint32_t R = Rep[Node];
    uint8_t &Count = NumContexts[R];
    if (Count == Saturated)
      return;
    if (Count == 0)
      for (uint32_t I = MemberBegin[R]; I != MemberBegin[R + 1]; ++I)
        Bottom.set(Members[I]);
    if (Count >= MaxContextsPerRep) {
      Count = Saturated;
      Ctx = Context::empty();
    }
    if (!Seen.insert(R, Ctx.raw()))
      return;
    if (Count != Saturated)
      ++Count;
    Work.push_back({R, Ctx});
    ++NumStates;
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
    for (uint32_t I = RepFlowBegin[S.Rep]; I != RepFlowBegin[S.Rep + 1];
         ++I) {
      const Edge &E = RepFlows[I];
      Context Out = Context::empty();
      if (S.Ctx.follow(E.Kind, E.CallSite, K, Out))
        Reach(E.Node, Out);
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
