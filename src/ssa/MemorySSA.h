//===- ssa/MemorySSA.h - Memory SSA construction ----------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory SSA over TinyC (Section 3.1 / Figure 4 of the paper): every
/// function is put in SSA form for both top-level variables and
/// address-taken variables (PtLocs). The IR itself is not rewritten;
/// the SSA form is an overlay:
///
///  - loads carry mu(rho) uses for every location the pointer may read;
///  - stores carry rho_m := chi(rho_n) defs for every location the pointer
///    may write;
///  - allocation sites carry chi defs for the fields of the fresh object;
///  - call sites carry mus for everything the callee may read and chis
///    for everything it may modify (with wrapper clones substituted,
///    acting as callsite allocation chis);
///  - returns carry mus reading the virtual output parameters;
///  - phis merge versions of both spaces at join points.
///
/// Version 0 of every variable is its live-on-entry value: the formal
/// parameter for top-level params, "undefined at entry" for other
/// top-level variables, and the virtual input parameter (or the initial
/// global/dead state in main) for memory locations.
///
/// Each function carries all of this only for the memory locations in its
/// kept set (see MemorySSA): a location no load can read through the
/// function gets no mu, chi, phi or virtual parameter in it.
///
/// The form is laid out flat (DESIGN.md decision 12): each function keeps
/// its annotations, phis, phi operands and definition sites in a handful of
/// exact-sized arrays, and InstSSA and PhiNode are views into them.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SSA_MEMORYSSA_H
#define USHER_SSA_MEMORYSSA_H

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "ssa/VarKey.h"

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace usher {
class ThreadPool;

namespace ir {
class Function;
class Instruction;
class Module;
class Variable;
} // namespace ir

namespace analysis {
class CallGraph;
class ModRefAnalysis;
class PointerAnalysis;
} // namespace analysis

namespace ssa {

/// A mu: a potential indirect use of a memory location.
struct MemUse {
  uint32_t Loc;
  uint32_t Version;
};

/// How a chi came to exist; the VFG builder gives each kind different
/// edges and strong-update opportunities.
enum class ChiKind : uint8_t {
  Store,     ///< Indirect def at a store.
  Alloc,     ///< Definition of a fresh object's field at its alloc site.
  CallMod,   ///< Callee may modify this location.
  CloneAlloc ///< Wrapper call site acting as the clone's allocation.
};

/// A chi: a potential indirect def (and use of the previous version).
struct MemDef {
  uint32_t Loc;
  uint32_t NewVersion;
  uint32_t OldVersion;
  ChiKind Kind;
};

/// The version of one top-level variable used by an instruction.
struct TLUse {
  const ir::Variable *Var;
  uint32_t Version;
};

/// SSA annotations of one instruction, as views into its function's
/// arrays.
struct InstSSA {
  /// Version assigned to the instruction's top-level def (if any).
  uint32_t TLDefVersion = 0;
  /// One entry per distinct top-level variable the instruction reads, by
  /// variable id.
  std::span<const TLUse> TLUses;
  /// Both lists are sorted by location, with no location twice.
  std::span<const MemUse> Mus;
  std::span<const MemDef> Chis;
};

/// A phi at a block start, for either space.
struct PhiNode {
  VarKey Var;
  uint32_t ResultVersion;
  /// One (pred, version) pair per CFG edge into the block from a reachable
  /// block, in the order renaming visits the predecessors.
  std::span<const std::pair<const ir::BasicBlock *, uint32_t>> Incoming;
};

/// Where a particular SSA version is defined.
struct DefDesc {
  enum class Kind : uint8_t { Entry, Inst, Phi };
  Kind K = Kind::Entry;
  const ir::Instruction *I = nullptr;      ///< For Kind::Inst.
  const ir::BasicBlock *PhiBlock = nullptr; ///< For Kind::Phi.
  /// For Kind::Phi, the index into phisIn(PhiBlock); for a memory version
  /// defined by an instruction, the index of its chi in instInfo(I)->Chis.
  uint32_t Idx = 0;
};

/// SSA form of a single function.
class FunctionSSA {
public:
  const analysis::CFGInfo &getCFG() const { return CFG; }
  const analysis::DominatorTree &getDomTree() const { return DT; }

  /// SSA annotations of \p I, an instruction of this function; null for
  /// instructions in unreachable blocks.
  const InstSSA *instInfo(const ir::Instruction *I) const;

  /// Phis at the start of \p BB (possibly empty), in key order: top-level
  /// variables by id, then locations.
  std::span<const PhiNode> phisIn(const ir::BasicBlock *BB) const {
    return {Phis.data() + PhiBegin[BB->getId()],
            Phis.data() + PhiBegin[BB->getId() + 1]};
  }

  /// Definition site of version \p Version of \p Key.
  const DefDesc &defOf(VarKey Key, uint32_t Version) const;

  /// Number of versions of \p Key (0 for a location this function does
  /// not version).
  uint32_t numVersions(VarKey Key) const;

  /// One dense numbering per SSA space over the whole module: version V of
  /// top-level variable \p Var is number tlNumber(Var) + V, and version V
  /// of formalIns()[\p P] is memNumber(P) + V. A function's numbers are
  /// consecutive and follow those of the function built before it;
  /// MemorySSA::numTLVersions() and numPlacedVersions() bound them.
  uint32_t tlNumber(uint32_t Var) const { return TLBase + DefBegin[Var]; }
  uint32_t memNumber(size_t P) const {
    return MemBase + DefBegin[NumVars + P];
  }

  /// Definition site of the memory version numbered \p N (see memNumber).
  const DefDesc &memDefOf(uint32_t N) const { return Defs[N - MemBase]; }

  /// Memory locations live on entry (virtual input parameters): the
  /// locations this function versions, sorted.
  const std::vector<uint32_t> &formalIns() const { return FormalIn; }

  /// Memory locations whose final versions are the virtual output
  /// parameters: the versioned locations the function may modify. Their
  /// versions at a particular return are the Mus of that RetInst.
  const std::vector<uint32_t> &formalOuts() const { return FormalOut; }

  /// True if some reachable call site hands this function a version of
  /// formalIns()[\p P], whether or not the caller versions it.
  bool passedByCaller(size_t P) const { return PassedIn[P]; }

  /// InstSSA and PhiNode view this object's own arrays.
  FunctionSSA(const FunctionSSA &) = delete;
  FunctionSSA &operator=(const FunctionSSA &) = delete;

private:
  friend class MemorySSA;
  class Builder;

  explicit FunctionSSA(const ir::Function &F);
  uint32_t keyIndex(VarKey Key) const;

  const ir::Function &F;
  analysis::CFGInfo CFG;
  analysis::DominatorTree DT;

  /// Insts is indexed by instruction id minus FirstInst; its views point
  /// into Uses, Mus and Chis, which hold the reachable instructions' lists
  /// back to back in block order. Block B's phis are
  /// Phis[PhiBegin[B] .. PhiBegin[B + 1]), their operands slices of
  /// Incoming. The versions of key K (top-level variables by id, then
  /// formalIns() by position) are Defs[DefBegin[K] .. DefBegin[K + 1]).
  uint32_t FirstInst = 0, NumVars = 0;
  /// tlNumber(0) and memNumber(0) less the key's offset in Defs, so that
  /// adding DefBegin[K] gives a key's first number. MemBase may wrap.
  uint32_t TLBase = 0, MemBase = 0;
  std::vector<InstSSA> Insts;
  std::vector<TLUse> Uses;
  std::vector<MemUse> Mus;
  std::vector<MemDef> Chis;
  std::vector<uint32_t> PhiBegin;
  std::vector<PhiNode> Phis;
  std::vector<std::pair<const ir::BasicBlock *, uint32_t>> Incoming;
  std::vector<uint32_t> DefBegin;
  std::vector<DefDesc> Defs;
  std::vector<uint32_t> FormalIn, FormalOut;
  std::vector<bool> PassedIn;
};

/// Memory SSA for every function in a module.
///
/// A function versions a memory location only if it is in the function's
/// kept set: the locations it may read, those a reachable store in it may
/// write, and those a caller or callee needs to see through it (computed
/// once per module over the reachable call sites). Versions of any other
/// location are never read, directly or through other versions, so they
/// are neither placed nor counted. The unpruned form, in which every
/// function keeps every location it may read or modify, is built only
/// where its size is reported (core::measureUnpruned).
class MemorySSA {
public:
  /// Builds per-function SSA overlays over the kept sets.
  // The unused ThreadPool * keeps the mangled name perfbench link-wraps.
  MemorySSA(const ir::Module &M, const analysis::PointerAnalysis &PA,
            const analysis::ModRefAnalysis &MR, ThreadPool * = nullptr);

  /// Builds the unpruned form: every function keeps what it reads or writes.
  static MemorySSA unpruned(const ir::Module &M,
                            const analysis::PointerAnalysis &PA,
                            const analysis::ModRefAnalysis &MR);

  const FunctionSSA &get(const ir::Function *F) const;

  /// Memory versions placed: the sum of numVersions() over every
  /// function's formalIns(), and the size of the memNumber() numbering.
  uint64_t numPlacedVersions() const { return NumPlaced; }

  /// Top-level versions: the size of the tlNumber() numbering.
  uint32_t numTLVersions() const { return NumTL; }

private:
  MemorySSA(const ir::Module &M, const analysis::PointerAnalysis &PA,
            const analysis::ModRefAnalysis &MR, bool Prune);

  std::vector<std::unique_ptr<FunctionSSA>> Funcs; // By function id.
  uint64_t NumPlaced = 0;
  uint32_t NumTL = 0;
};

} // namespace ssa
} // namespace usher

#endif // USHER_SSA_MEMORYSSA_H
