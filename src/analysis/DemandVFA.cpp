//===- analysis/DemandVFA.cpp - Demand-driven VFG reachability -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/DemandVFA.h"

#include "core/ContextStack.h"
#include "support/Budget.h"
#include "support/RawStream.h"

#include <algorithm>
#include <unordered_set>

using namespace usher;
using namespace usher::analysis;
using core::ContextStack;
using vfg::Edge;
using vfg::EdgeKind;
using vfg::VFG;

namespace {

struct StateKey {
  uint32_t Node;
  uint64_t Ctx;
  bool operator==(const StateKey &O) const {
    return Node == O.Node && Ctx == O.Ctx;
  }
};

struct StateKeyHash {
  size_t operator()(const StateKey &K) const {
    uint64_t H = K.Ctx * 0x9E3779B97F4A7C15ull;
    H ^= (static_cast<uint64_t>(K.Node) + 0x9E3779B9u) + (H << 6) + (H >> 2);
    return static_cast<size_t>(H);
  }
};

} // namespace

std::vector<QueryStep> PathSearch::witness(uint32_t Node) const {
  std::vector<QueryStep> Path;
  for (int32_t Idx = Nodes[Node].First; Idx >= 0; Idx = States[Idx].Parent)
    Path.push_back(
        {States[Idx].Node, States[Idx].Kind, States[Idx].CallSite});
  std::reverse(Path.begin(), Path.end());
  return Path;
}

PathSearch analysis::searchPaths(const VFG &G, uint32_t Root,
                                 unsigned ContextK, const PathSearchLimits &L) {
  PathSearch S;
  S.Nodes.resize(G.numNodes());
  // The visited (node, context) states; NodeInfo::Contexts only counts
  // them per node, for the per-node cap.
  std::unordered_set<StateKey, StateKeyHash> Seen;

  // Records a state unless a cap or an earlier visit rules it out.
  auto Record = [&](uint32_t Node, ContextStack Ctx, int32_t Parent,
                    EdgeKind Kind, uint32_t CallSite) {
    PathSearch::NodeInfo &NI = S.Nodes[Node];
    if (S.States.size() >= L.MaxStates ||
        NI.Contexts >= L.MaxContextsPerNode ||
        !Seen.insert({Node, Ctx.raw()}).second)
      return false;
    if (NI.Contexts++ == 0)
      NI.First = static_cast<int32_t>(S.States.size());
    S.States.push_back({Node, Parent, Ctx.raw(), Kind, CallSite});
    return true;
  };

  Record(Root, ContextStack::empty(), -1, EdgeKind::Direct, ~0u);
  if (Root == L.Stop)
    return S;
  for (size_t Head = 0; Head != S.States.size(); ++Head) {
    if (L.B && !L.B->step()) {
      S.Exhausted = true;
      return S;
    }
    ++S.Expanded;
    // Copy: States may reallocate while expanding.
    const PathSearch::State Cur = S.States[Head];
    ContextStack Ctx = ContextStack::fromRaw(Cur.Ctx);
    for (const Edge &E : G.users(Cur.Node)) {
      ContextStack Next = ContextStack::empty();
      if (!Ctx.follow(E.Kind, E.CallSite, ContextK, Next))
        continue; // unrealizable: a different call is pending
      if (Record(E.Node, Next, static_cast<int32_t>(Head), E.Kind,
                 E.CallSite) &&
          E.Node == L.Stop)
        return S;
    }
  }
  return S;
}

QueryResult analysis::cflReachable(const VFG &G, uint32_t Src, uint32_t Sink,
                                   unsigned ContextK, Budget *B) {
  QueryResult R;
  if (Src >= G.numNodes() || Sink >= G.numNodes())
    return R; // out of range: unreachable
  PathSearchLimits L;
  L.Stop = Sink;
  L.B = B;
  PathSearch S = searchPaths(G, Src, ContextK, L);
  R.Reachable = S.reached(Sink);
  R.Exhausted = S.Exhausted;
  R.StatesVisited = S.Expanded;
  R.Witness = S.witness(Sink);
  return R;
}

void analysis::printQueryWitness(raw_ostream &OS,
                                 const std::vector<QueryStep> &W) {
  if (W.empty())
    return;
  OS << "witness: " << W.front().Node;
  for (size_t I = 1; I != W.size(); ++I) {
    const QueryStep &S = W[I];
    switch (S.Kind) {
    case EdgeKind::Direct:
      OS << " -> ";
      break;
    case EdgeKind::Call:
      OS << " -call@" << S.CallSite << "-> ";
      break;
    case EdgeKind::Ret:
      OS << " -ret@" << S.CallSite << "-> ";
      break;
    }
    OS << S.Node;
  }
  OS << '\n';
}

bool analysis::validateQueryWitness(const VFG &G, uint32_t Src, uint32_t Sink,
                                    const std::vector<QueryStep> &W,
                                    unsigned ContextK, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (W.empty())
    return Fail("empty witness");
  if (W.front().Node != Src)
    return Fail("witness does not start at the source");
  if (W.back().Node != Sink)
    return Fail("witness does not end at the sink");
  ContextStack Ctx = ContextStack::empty();
  for (size_t I = 1; I != W.size(); ++I) {
    const QueryStep &S = W[I];
    uint32_t From = W[I - 1].Node;
    bool Found = false;
    for (const Edge &E : G.users(From))
      if (E.Node == S.Node && E.Kind == S.Kind && E.CallSite == S.CallSite) {
        Found = true;
        break;
      }
    if (!Found) {
      std::string Msg;
      raw_string_ostream OS(Msg);
      OS << "step " << I << ": no user edge " << From << " -> " << S.Node;
      return Fail(Msg);
    }
    ContextStack Next = ContextStack::empty();
    if (!Ctx.follow(S.Kind, S.CallSite, ContextK, Next)) {
      std::string Msg;
      raw_string_ostream OS(Msg);
      OS << "step " << I << ": unrealizable return through site "
         << S.CallSite;
      return Fail(Msg);
    }
    Ctx = Next;
  }
  return true;
}
