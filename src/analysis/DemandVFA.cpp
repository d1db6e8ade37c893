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
#include <deque>

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

/// How a state was first reached (for witness reconstruction). The root
/// marks itself with Node == ~0u.
struct ParentLink {
  uint32_t Node = ~0u;
  uint64_t Ctx = 0;
  EdgeKind Kind = EdgeKind::Direct;
  uint32_t CallSite = ~0u;
};

} // namespace

QueryResult analysis::cflReachable(const VFG &G, uint32_t Src, uint32_t Sink,
                                   unsigned ContextK, Budget *B) {
  QueryResult R;
  if (Src >= G.numNodes() || Sink >= G.numNodes())
    return R; // out of range: unreachable

  std::unordered_map<StateKey, ParentLink, StateKeyHash> Seen;
  std::deque<StateKey> Queue;

  auto Reconstruct = [&](StateKey Final) {
    std::vector<QueryStep> Path;
    StateKey Cur = Final;
    while (true) {
      const ParentLink &P = Seen[Cur];
      if (P.Node == ~0u) {
        Path.push_back({Cur.Node, EdgeKind::Direct, ~0u});
        break;
      }
      Path.push_back({Cur.Node, P.Kind, P.CallSite});
      Cur = {P.Node, P.Ctx};
    }
    std::reverse(Path.begin(), Path.end());
    return Path;
  };

  StateKey Root{Src, ContextStack::empty().raw()};
  Seen.emplace(Root, ParentLink());
  if (Src == Sink) {
    R.Reachable = true;
    R.Witness = Reconstruct(Root);
    return R;
  }
  Queue.push_back(Root);

  while (!Queue.empty()) {
    if (B && !B->step()) {
      R.Exhausted = true;
      return R;
    }
    ++R.StatesVisited;
    StateKey S = Queue.front();
    Queue.pop_front();
    ContextStack Ctx = ContextStack::fromRaw(S.Ctx);

    for (const Edge &E : G.users(S.Node)) {
      ContextStack Next = ContextStack::empty();
      if (!Ctx.follow(E.Kind, E.CallSite, ContextK, Next))
        continue; // unrealizable: a different call is pending
      StateKey NS{E.Node, Next.raw()};
      auto [It, Inserted] =
          Seen.emplace(NS, ParentLink{S.Node, S.Ctx, E.Kind, E.CallSite});
      (void)It;
      if (!Inserted)
        continue;
      if (E.Node == Sink) {
        R.Reachable = true;
        R.Witness = Reconstruct(NS);
        return R;
      }
      Queue.push_back(NS);
    }
  }
  return R; // state space exhausted: definitively unreachable
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
