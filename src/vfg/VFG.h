//===- vfg/VFG.h - Value-flow graph ------------------------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value-flow graph of Section 3.2: one node per SSA definition (both
/// top-level and address-taken) plus the two roots T (defined) and F
/// (undefined). An edge v -> w is a *dependency* edge: the value of v
/// depends on the value of w; undefinedness flows from F against the edge
/// direction. Interprocedural edges carry a call-site label so definedness
/// resolution can match calls and returns (Section 3.3).
///
/// Only the memory SSA versions that some load reads, directly or through
/// other such versions, become nodes; the rest are pruned (VFGBuilder).
///
/// The graph is the one analysis result that planning, Opt II and the
/// sanitizer clients read: each node records the statement that defines
/// it and each reachable statement the nodes of the top-level variables
/// it reads, so none of them consults memory SSA.
///
/// Stores are translated with three update flavors (the paper's key
/// mechanism):
///  - strong:      the pointer uniquely targets one concrete cell; the old
///                 version is killed.
///  - semi-strong: the pointer uniquely targets one abstract heap object
///                 whose unique allocation site dominates the store; the
///                 edge to the old version is redirected to the version
///                 before the allocation, bypassing the allocation's F.
///  - weak:        everything else; old and new values merge.
/// A live store chi's flavor is its node's origin (StoreChiStrong,
/// StoreChiSemi, StoreChiWeak); dead chis are only counted.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_VFG_VFG_H
#define USHER_VFG_VFG_H

#include "ssa/VarKey.h"
#include "support/BitSet.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace usher {

class raw_ostream;

namespace ir {
class CallInst;
class Function;
class Instruction;
class Module;
class Operand;
class RetInst;
class StoreInst;
class Variable;
} // namespace ir

namespace analysis {
class CallGraph;
class PointerAnalysis;
} // namespace analysis

namespace ssa {
class FunctionSSA;
class MemorySSA;
struct InstSSA;
} // namespace ssa

namespace vfg {

/// Edge labels for context-sensitive reachability.
enum class EdgeKind : uint8_t {
  Direct, ///< Intraprocedural value flow.
  Call,   ///< Into a callee (actual -> formal); labeled with the call site.
  Ret     ///< Out of a callee (return -> result); labeled with the call site.
};

/// One dependency edge. Edges compare by node, then kind, then call site.
struct Edge {
  uint32_t Node;             ///< The node depended on / the dependent user.
  EdgeKind Kind;
  uint32_t CallSite = ~0u;   ///< Instruction id of the CallInst, if labeled.

  friend auto operator<=>(const Edge &, const Edge &) = default;
};

/// Why a node exists: which defining construct its dependency edges model.
/// Recorded by VFGBuilder at the point the node's defining edges are added;
/// the instrumentation planner and the must-undef analysis key their
/// per-node rules on this, and the annotated dot dump prints it. Unknown
/// marks version-0 nodes that nothing roots (e.g. the parameters of a
/// function no reachable call reaches).
enum class NodeOrigin : uint8_t {
  Unknown,
  Root,          ///< The T/F roots.
  CopyDef,       ///< TL def of a copy (undef iff the source is).
  BinOpDef,      ///< TL def of a binop (undef if ANY operand is).
  FieldAddrDef,  ///< TL def of a gep (undef if ANY operand is).
  AllocPtr,      ///< TL def of an alloc (always defined).
  AllocChi,      ///< Memory chi at an allocation site (init root + old).
  CloneAllocChi, ///< Same, for a heap clone materialized at a call.
  StoreChiStrong,///< Store chi, strong update (value only).
  StoreChiSemi,  ///< Store chi, semi-strong update (value + bypass).
  StoreChiWeak,  ///< Store chi, weak update (value + old merge).
  LoadDef,       ///< TL def of a load (merge over the mus).
  CallResult,    ///< TL def of a call (merge over callee returns).
  CallModChi,    ///< Memory chi at a call (merge over callee returns).
  FormalParam,   ///< TL version 0 of a parameter (merge over call sites).
  FormalIn,      ///< Memory version 0 in a callee (merge over call sites).
  Phi,           ///< SSA phi, TL or memory (merge over incoming arms).
  EntryDef       ///< Version-0 node rooted at T/F at program start.
};

/// Short mnemonic for \p O (dot dumps and diagnostics).
const char *nodeOriginName(NodeOrigin O);

/// The value-flow graph of a whole program.
class VFG {
public:
  /// Ids of the two root nodes.
  static constexpr uint32_t RootT = 0;
  static constexpr uint32_t RootF = 1;

  /// Payload of a non-root node: a versioned SSA variable of one function.
  struct NodeData {
    const ir::Function *Fn = nullptr;
    ssa::VarKey Key{ssa::Space::TopLevel, 0};
    uint32_t Version = 0;
    /// The statement that defines this version: the instruction of a
    /// top-level def, or the store, allocation or call of a chi. Null for
    /// version 0 (live on entry) and for phis. The origin() names which
    /// construct it is, and for a store chi its update flavor.
    const ir::Instruction *Def = nullptr;
  };

  /// A use of a top-level variable at a critical operation.
  struct CriticalUse {
    const ir::Instruction *I;
    const ir::Variable *Var;
    uint32_t Node;
  };

  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }
  bool isRoot(uint32_t Id) const { return Id == RootT || Id == RootF; }
  const NodeData &node(uint32_t Id) const { return Nodes[Id]; }

  /// Dependency edges of \p Id (what its value is computed from), in the
  /// order the builder added them.
  std::span<const Edge> deps(uint32_t Id) const {
    return {DepEdges.data() + DepBegin[Id],
            DepEdges.data() + DepBegin[Id + 1]};
  }

  /// Provenance of \p Id (see NodeOrigin).
  NodeOrigin origin(uint32_t Id) const { return Origins[Id]; }

  /// Reverse edges of \p Id (who consumes its value), in the order the
  /// builder added the edges across the whole graph.
  std::span<const Edge> users(uint32_t Id) const {
    return {UserEdges.data() + UserBegin[Id],
            UserEdges.data() + UserBegin[Id + 1]};
  }

  /// True if \p I is in a block reachable from its function's entry.
  bool reachable(const ir::Instruction *I) const;

  /// Node of the version of top-level variable \p V that \p I reads, or
  /// ~0u if \p I is unreachable, does not read \p V, or the version got
  /// no node.
  uint32_t useNode(const ir::Instruction *I, const ir::Variable *V) const;

  /// All uses of top-level variables at critical operations.
  const std::vector<CriticalUse> &criticalUses() const {
    return CriticalUses;
  }

  /// Number of semi-strong cuts performed, per allocation anchor object id
  /// (the S column of Table 1 aggregates this).
  const std::unordered_map<uint32_t, uint32_t> &semiStrongCuts() const {
    return SemiStrongCuts;
  }

  /// Counts of stores by update flavor (for Table 1's %SU / %WU).
  uint64_t numStrongStoreChis() const { return NumStrong; }
  uint64_t numSemiStrongStoreChis() const { return NumSemi; }
  uint64_t numWeakStoreChis() const { return NumWeak; }
  uint64_t numEdges() const { return NumEdges; }

  /// Memory SSA versions a graph without pruning would hold as nodes, and
  /// how many of them no load reads and so got none. numNodes() plus
  /// numPrunedMemVersions() is the size of that unpruned graph.
  uint64_t numMemSSAVersions() const { return NumMemVersions; }
  uint64_t numPrunedMemVersions() const { return NumPrunedMemVersions; }

  /// Coverage hook for the fuzzer's analysis-feature scheduler: a bitmask
  /// with bit static_cast<unsigned>(O) set for every NodeOrigin kind this
  /// graph contains. Which node kinds a program manufactures is a cheap,
  /// stable fingerprint of the VFG construction paths it exercised.
  uint32_t originMask() const;

  /// Per-node verdict for the annotated dot dump. Passed in by the caller
  /// (vfg cannot depend on core's Definedness/StaticDiagnosis types).
  enum class DotVerdict : uint8_t { None, Clean, May, Definite };

  /// Writes the graph in Graphviz dot syntax. When \p Verdicts is
  /// non-null (one entry per node) nodes are colored by verdict; node
  /// labels carry the provenance mnemonic and edges their kind and
  /// call-site labels, so witness paths can be eyeballed when debugging.
  void dumpDot(raw_ostream &OS,
               const std::vector<DotVerdict> *Verdicts = nullptr) const;

private:
  friend class VFGBuilder;

  /// A top-level variable (by id) an instruction reads, and its node.
  struct UseEntry {
    uint32_t Var;
    uint32_t Node;
  };
  /// The range of an instruction's entries in Uses; Begin is ~0u for an
  /// unreachable instruction.
  struct UseRange {
    uint32_t Begin = ~0u, End = ~0u;
  };

  std::vector<NodeData> Nodes;
  std::vector<NodeOrigin> Origins;
  /// CSR adjacency: node Id's dependency edges are
  /// DepEdges[DepBegin[Id] .. DepBegin[Id + 1]), its user edges likewise.
  /// Both offset arrays hold numNodes() + 1 entries.
  std::vector<uint32_t> DepBegin, UserBegin;
  std::vector<Edge> DepEdges, UserEdges;
  std::vector<CriticalUse> CriticalUses;
  std::vector<UseRange> InstUses; // Indexed by instruction id.
  std::vector<UseEntry> Uses;
  std::unordered_map<uint32_t, uint32_t> SemiStrongCuts;
  uint64_t NumStrong = 0, NumSemi = 0, NumWeak = 0, NumEdges = 0;
  uint64_t NumMemVersions = 0, NumPrunedMemVersions = 0;
};

/// Options controlling VFG construction.
struct VFGOptions {
  /// Apply the semi-strong update rule of Section 3.2.
  bool SemiStrongUpdates = true;
  /// Apply traditional strong updates at stores.
  bool StrongUpdates = true;
};

/// Builds the VFG for a module from its memory SSA form.
class VFGBuilder {
public:
  VFGBuilder(const ir::Module &M, const ssa::MemorySSA &SSA,
             const analysis::PointerAnalysis &PA,
             const analysis::CallGraph &CG, VFGOptions Opts = VFGOptions())
      : M(M), SSA(SSA), PA(PA), CG(&CG), Opts(Opts) {}

  /// Constructs the whole-program VFG. It first classifies every store
  /// chi and computes which memory versions are live: read by a load in
  /// reachable code, or depended on by a live version. The construction
  /// walk then visits every SSA def and use in a fixed order but builds
  /// nodes and edges only for live memory versions, so node ids are those
  /// of the unpruned graph, renumbered in order. The index from SSA
  /// version to node is the builder's own; the graph does not keep it.
  /// Edges are queued as the walk adds them and laid out as the graph's
  /// CSR arrays once, at the end (buildEdges()).
  VFG build();

private:
  /// A function's memory SSA and its reachable returns, in block order:
  /// Rets[RetBegin .. RetEnd).
  struct FnInfo {
    const ssa::FunctionSSA *SSA = nullptr;
    uint32_t RetBegin = 0, RetEnd = 0;
  };

  /// The caller-side version of one callee formal-in at a call site: the
  /// version the call's mu reads, else the one its chi overwrites, with its
  /// position in the caller's formalIns() and its bit. Bit is ~0u if the
  /// call neither reads nor writes the location.
  struct CallIn {
    uint32_t Pos, Version, Bit;
  };

  /// For one chi of a call site: the index of its location in the callee's
  /// formalOuts() (which every return's mus follow) and its position in
  /// the callee's formalIns(); Out is ~0u for a location the callee does
  /// not output.
  struct CallOut {
    uint32_t Out, Pos;
  };

  /// A reachable call site. Its rows are CallIns[In .. In + the callee's
  /// formalIns().size()), one per callee formal-in, and
  /// CallOuts[Out .. Out + the number of the call's chis), one per chi;
  /// both come from one linear merge of sorted lists, done once.
  struct CallSite {
    const ir::Function *Caller;
    const ir::CallInst *Call;
    uint32_t In, Out;
  };

  /// A store chi's update flavor (the origin of its node) and the version
  /// its new version depends on besides the stored value: the old version
  /// for a weak update, the allocation anchor's old version for a
  /// semi-strong one, none (~0u) for a strong one.
  struct StoreChiClass {
    NodeOrigin Origin;
    uint32_t Dep;
  };

  void classifyStoreChis(const ir::Function &F, const ir::StoreInst &St,
                         const ssa::InstSSA &Info);
  /// Records \p Call's site and its CallIns and CallOuts rows.
  void addCallSite(const ir::Function &F, const ir::CallInst &Call,
                   const ssa::InstSSA &Info);
  void computeLiveness();
  /// Makes the versions of \p F's locations addressable by localBit().
  void enterFunction(const ir::Function &F);
  void leaveFunction(const ir::Function &F);
  uint32_t localBit(uint32_t Loc, uint32_t Version) const {
    assert(LocalKey[Loc].Base && "location has no memory SSA here");
    return LocalKey[Loc].Base - 1 + Version;
  }
  /// Marks memory version \p Bit live: version \p Version of formalIns()
  /// position \p Pos of function \p Fn (by id).
  void markLive(uint32_t Bit, uint32_t Fn, uint32_t Pos, uint32_t Version);

  /// The node in \p Slot, made first if \p Slot is ~0u.
  uint32_t getNode(uint32_t &Slot, const ir::Function *Fn, ssa::VarKey Key,
                   uint32_t Version);
  /// getNode for a top-level version.
  uint32_t tlNode(const ir::Function *Fn, uint32_t Var, uint32_t Version);
  /// getNode for memory version \p Bit if it is live, else ~0u; either way
  /// records that the walk referenced it.
  uint32_t memNode(uint32_t Bit, const ir::Function *Fn, uint32_t Loc,
                   uint32_t Version);
  /// memNode and, unless \p From is ~0u (a dead version), the edge
  /// From -> that node.
  void memDep(uint32_t From, uint32_t Bit, const ir::Function *Fn,
              uint32_t Loc, uint32_t Version, EdgeKind Kind,
              uint32_t CallSite = ~0u);
  /// memNode and memDep for a version of the function being walked.
  uint32_t localNode(const ir::Function &F, uint32_t Loc, uint32_t Version) {
    return memNode(localBit(Loc, Version), &F, Loc, Version);
  }
  void localDep(uint32_t From, const ir::Function &F, uint32_t Loc,
                uint32_t Version) {
    memDep(From, localBit(Loc, Version), &F, Loc, Version, EdgeKind::Direct);
  }
  /// Queues the edge From -> To; buildEdges() drops repeats.
  void addDep(uint32_t From, uint32_t To, EdgeKind Kind,
              uint32_t CallSite = ~0u) {
    PendingEdges.push_back({From, {To, Kind, CallSite}});
  }
  /// Lays the queued edges out as the graph's CSR arrays.
  void buildEdges();
  /// Records that \p Node is built by \p O, at statement \p Def if any.
  void setOrigin(uint32_t Node, NodeOrigin O,
                 const ir::Instruction *Def = nullptr);
  uint32_t operandNode(const ir::Function *Fn, const ssa::InstSSA &Info,
                       const ir::Operand &Op);
  /// The reachable returns of \p FI.
  std::span<const std::pair<const ir::RetInst *, const ssa::InstSSA *>>
  rets(const FnInfo &FI) const {
    return {Rets.data() + FI.RetBegin, Rets.data() + FI.RetEnd};
  }

  void buildFunction(const ir::Function &F);
  void buildInstruction(const ir::Function &F, const ir::Instruction &I,
                        const ssa::InstSSA &Info);
  void buildStoreChis(const ir::Function &F, const ir::StoreInst &St,
                      const ssa::InstSSA &Info);
  void buildCall(const ir::Function &F, const ir::CallInst &Call,
                 const ssa::InstSSA &Info, std::span<const CallIn> Ins,
                 std::span<const CallOut> Outs);

  /// True if bypassing the chi chain from \p FromVersion back to the
  /// allocation anchor's chi is sound (every bypassed def writes the
  /// current instance); see the semi-strong discussion in DESIGN.md.
  bool safeBypass(const ssa::FunctionSSA &FS, uint32_t Loc,
                  uint32_t FromVersion, uint32_t AnchorNewVersion,
                  const ir::Instruction *Anchor);

  const ir::Module &M;
  const ssa::MemorySSA &SSA;
  const analysis::PointerAnalysis &PA;
  const analysis::CallGraph *CG;
  VFGOptions Opts;
  VFG G;

  std::vector<FnInfo> Fns; // Indexed by function id.
  std::vector<std::pair<const ir::RetInst *, const ssa::InstSSA *>> Rets;
  /// The reachable call sites in walk order, and their rows. Function F's
  /// callers are Sites[CallerSites[CallerBegin[F] .. CallerBegin[F + 1])].
  std::vector<CallSite> Sites;
  std::vector<CallIn> CallIns;
  std::vector<CallOut> CallOuts;
  std::vector<uint32_t> CallerBegin, CallerSites;
  /// Node of each top-level version (by ssa::FunctionSSA::tlNumber) and
  /// each memory version (by bit, ssa::FunctionSSA::memNumber), or ~0u
  /// while it has none.
  std::vector<uint32_t> TLNodes, MemNodes;
  /// Indexed by instruction id, for reachable instructions: the SSA
  /// annotations and, for a store, the index in StoreChis of its first
  /// chi; for a call, its index in Sites.
  std::vector<const ssa::InstSSA *> InstInfos;
  std::vector<uint32_t> SiteStart;
  std::vector<StoreChiClass> StoreChis;
  /// One bit per memory version: live ones, and ones the walk referenced
  /// (the nodes an unpruned graph would have).
  BitSet Live, Seen;
  /// Indexed by location, in the function between enterFunction and
  /// leaveFunction: its position in formalIns() and 1 + the bit of its
  /// version 0; Base is 0 for a location the function does not version.
  struct LocalSlot {
    uint32_t Pos = 0, Base = 0;
  };
  std::vector<LocalSlot> LocalKey;
  struct LiveVersion {
    uint32_t Fn, Pos, Version, Bit;
  };
  std::vector<LiveVersion> LiveWork;
  /// Every addDep, in call order: the source node and the edge.
  std::vector<std::pair<uint32_t, Edge>> PendingEdges;
};

} // namespace vfg
} // namespace usher

#endif // USHER_VFG_VFG_H
