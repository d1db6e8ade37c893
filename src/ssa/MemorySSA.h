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
///  - call sites carry mus for everything the callee may read or modify
///    and chis for everything it may modify (with wrapper clones
///    substituted, acting as callsite allocation chis);
///  - returns carry mus reading the virtual output parameters;
///  - phis merge versions of both spaces at join points.
///
/// Version 0 of every variable is its live-on-entry value: the formal
/// parameter for top-level params, "undefined at entry" for other
/// top-level variables, and the virtual input parameter (or the initial
/// global/dead state in main) for memory locations.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SSA_MEMORYSSA_H
#define USHER_SSA_MEMORYSSA_H

#include "analysis/CFG.h"
#include "analysis/Dominators.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
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

/// Which SSA space a variable lives in.
enum class Space : uint8_t {
  TopLevel, ///< Var_TL: id is ir::Variable::getId() within its function.
  Memory    ///< Var_AT: id is a module-wide PtLoc id.
};

/// A versioned variable reference local to one function.
struct VarKey {
  Space Sp;
  uint32_t Id;

  bool operator==(const VarKey &O) const { return Sp == O.Sp && Id == O.Id; }
};

struct VarKeyHash {
  size_t operator()(const VarKey &K) const {
    return (static_cast<size_t>(K.Sp) << 31) ^ K.Id;
  }
};

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

/// SSA annotations of one instruction.
struct InstSSA {
  /// Version assigned to the instruction's top-level def (if any).
  uint32_t TLDefVersion = 0;
  /// One entry per distinct top-level variable the instruction reads.
  std::vector<TLUse> TLUses;
  std::vector<MemUse> Mus;
  std::vector<MemDef> Chis;
};

/// A phi at a block start, for either space.
struct PhiNode {
  VarKey Var;
  uint32_t ResultVersion;
  /// One (pred, version) pair per CFG predecessor.
  std::vector<std::pair<const ir::BasicBlock *, uint32_t>> Incoming;
};

/// Where a particular SSA version is defined.
struct DefDesc {
  enum class Kind : uint8_t { Entry, Inst, Phi };
  Kind K = Kind::Entry;
  const ir::Instruction *I = nullptr;      ///< For Kind::Inst.
  const ir::BasicBlock *PhiBlock = nullptr; ///< For Kind::Phi.
  uint32_t PhiIdx = 0;                      ///< Index into phisIn(PhiBlock).
};

/// SSA form of a single function.
class FunctionSSA {
public:
  FunctionSSA(const ir::Function &F, const analysis::PointerAnalysis &PA,
              const analysis::ModRefAnalysis &MR);

  const ir::Function &getFunction() const { return F; }
  const analysis::CFGInfo &getCFG() const { return CFG; }
  const analysis::DominatorTree &getDomTree() const { return DT; }

  /// SSA annotations of \p I; null for instructions in unreachable blocks.
  const InstSSA *instInfo(const ir::Instruction *I) const {
    auto It = Insts.find(I);
    return It == Insts.end() ? nullptr : &It->second;
  }

  /// Phis at the start of \p BB (possibly empty).
  const std::vector<PhiNode> &phisIn(const ir::BasicBlock *BB) const;

  /// Definition site of version \p Version of \p Key.
  const DefDesc &defOf(VarKey Key, uint32_t Version) const;

  /// Number of versions of \p Key (0 if the variable never materialized).
  uint32_t numVersions(VarKey Key) const {
    auto It = Defs.find(Key);
    return It == Defs.end() ? 0 : static_cast<uint32_t>(It->second.size());
  }

  /// Memory locations live on entry (virtual input parameters): every
  /// location the function may read or modify.
  const std::vector<uint32_t> &formalIns() const { return FormalIn; }

  /// Memory locations whose final versions are the virtual output
  /// parameters: everything the function may modify. Their versions at a
  /// particular return are the Mus of that RetInst.
  const std::vector<uint32_t> &formalOuts() const { return FormalOut; }

  /// All variable keys that materialized in this function.
  std::vector<VarKey> allKeys() const;

private:
  class Builder;

  const ir::Function &F;
  analysis::CFGInfo CFG;
  analysis::DominatorTree DT;
  analysis::DominanceFrontier DF;

  std::unordered_map<const ir::Instruction *, InstSSA> Insts;
  std::unordered_map<const ir::BasicBlock *, std::vector<PhiNode>> Phis;
  std::unordered_map<VarKey, std::vector<DefDesc>, VarKeyHash> Defs;
  std::vector<uint32_t> FormalIn, FormalOut;

  static const std::vector<PhiNode> EmptyPhis;
};

/// Memory SSA for every function in a module.
class MemorySSA {
public:
  /// Builds per-function SSA overlays.
  // The unused ThreadPool * keeps the mangled name perfbench link-wraps.
  MemorySSA(const ir::Module &M, const analysis::PointerAnalysis &PA,
            const analysis::ModRefAnalysis &MR, ThreadPool * = nullptr);

  const FunctionSSA &get(const ir::Function *F) const {
    return *Funcs.at(F);
  }

private:
  std::unordered_map<const ir::Function *, std::unique_ptr<FunctionSSA>>
      Funcs;
};

} // namespace ssa
} // namespace usher

#endif // USHER_SSA_MEMORYSSA_H
