//===- transforms/Mem2Reg.cpp - Promote memory to registers ----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "transforms/Transforms.h"

#include "ir/IR.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace usher;
using namespace usher::ir;

namespace {

/// All facts needed to promote one allocation.
struct Candidate {
  AllocInst *Alloc = nullptr;
  /// The def variables of the field-address instructions deriving from
  /// the allocation pointer, with their field indices.
  std::vector<std::pair<const Variable *, unsigned>> GepFields;
  /// The variables the fields are promoted to, once the candidate is.
  std::vector<Variable *> FieldVars;
  bool Viable = true;
};

/// What a pointer variable addresses: a field of a promoted candidate.
struct Cell {
  Candidate *C = nullptr;
  unsigned Field = 0;
};

} // namespace

/// Collects promotion candidates in \p F: single-def pointers from
/// non-array stack allocations whose only uses are direct loads, stores
/// (as the pointer), and constant-field geps with the same property.
/// Tables are indexed by the function's dense variable ids.
static std::vector<Candidate> findCandidates(Function &F) {
  std::vector<unsigned> DefCounts(F.variables().size());
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (const Variable *Def = I->getDef())
        ++DefCounts[Def->getId()];

  std::vector<Candidate> Candidates;
  if (F.blocks().empty())
    return Candidates;
  for (const auto &I : F.getEntry()->instructions()) {
    // Like LLVM's PromoteMemToReg, only promote entry-block allocations:
    // an allocation inside a loop yields a *fresh* (undefined) instance
    // per trip, which promoted variables would not model.
    auto *A = dyn_cast<AllocInst>(I.get());
    if (!A)
      continue;
    const MemObject *Obj = A->getObject();
    if (!Obj->isStack() || Obj->isArray() ||
        DefCounts[A->getDef()->getId()] != 1)
      continue;
    Candidates.push_back({});
    Candidates.back().Alloc = A;
  }
  // The candidate each pointer variable derives from, if any.
  std::vector<Candidate *> PtrOwner(F.variables().size());
  for (Candidate &C : Candidates)
    PtrOwner[C.Alloc->getDef()->getId()] = &C;

  // Geps deriving from a candidate pointer join the candidate; their
  // result variables become candidate pointers too (single level of gep
  // is all TinyC produces, but nested geps are rejected below).
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      auto *G = dyn_cast<FieldAddrInst>(I.get());
      if (!G || !G->getBase().isVar())
        continue;
      Candidate *C = PtrOwner[G->getBase().getVar()->getId()];
      if (!C)
        continue;
      if (G->getBase().getVar() != C->Alloc->getDef() ||
          DefCounts[G->getDef()->getId()] != 1 || !G->hasConstIndex() ||
          G->getFieldIdx() >= C->Alloc->getObject()->getNumFields()) {
        C->Viable = false; // Nested, multi-def, dynamic or OOB gep.
        continue;
      }
      C->GepFields.emplace_back(G->getDef(), G->getFieldIdx());
      PtrOwner[G->getDef()->getId()] = C;
    }
  }

  // Every other use of a candidate pointer must be a direct load or a
  // store *through* it (not of it).
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      I->forEachUsedVar([&](const Variable *V) {
        Candidate *C = PtrOwner[V->getId()];
        if (!C)
          return;
        switch (I->getKind()) {
        case Instruction::IKind::Load:
          if (!cast<LoadInst>(I.get())->getPtr().isVar() ||
              cast<LoadInst>(I.get())->getPtr().getVar() != V)
            C->Viable = false;
          break;
        case Instruction::IKind::Store: {
          const auto *St = cast<StoreInst>(I.get());
          // The pointer may be stored *through*, never stored *away*.
          if (!(St->getPtr().isVar() && St->getPtr().getVar() == V) ||
              (St->getValue().isVar() && St->getValue().getVar() == V))
            C->Viable = false;
          break;
        }
        case Instruction::IKind::FieldAddr:
          // Validated above; nested geps were already rejected there,
          // but a gep of a gep reaches here with the gep var as base.
          if (V != C->Alloc->getDef())
            C->Viable = false;
          break;
        default:
          C->Viable = false; // Escapes via call/ret/copy/compare/...
        }
      });
    }
  }
  return Candidates;
}

/// Promotes within one function; only this function's blocks, variables
/// and instructions are touched. Marks the objects promoted here in
/// \p Promoted, indexed by object id.
static void promoteInFunction(Function *F, std::vector<bool> &Promoted) {
  std::vector<Candidate> Candidates = findCandidates(*F);
  bool Any = false;
  for (Candidate &C : Candidates) {
    if (!C.Viable)
      continue;
    const MemObject *Obj = C.Alloc->getObject();
    for (unsigned Idx = 0; Idx != Obj->getNumFields(); ++Idx)
      C.FieldVars.push_back(
          F->createVariable(Obj->getName() + ".f" + std::to_string(Idx)));
    Promoted[Obj->getId()] = Any = true;
  }
  if (!Any)
    return;

  std::vector<Cell> CellOf(F->variables().size());
  for (Candidate &C : Candidates) {
    if (!C.Viable)
      continue;
    CellOf[C.Alloc->getDef()->getId()] = {&C, 0};
    for (const auto &[GepVar, Field] : C.GepFields)
      CellOf[GepVar->getId()] = {&C, Field};
  }
  // The promoted variable \p Ptr addresses, or null.
  auto CellVar = [&](Operand Ptr) -> Variable * {
    if (!Ptr.isVar())
      return nullptr;
    const Cell &X = CellOf[Ptr.getVar()->getId()];
    return X.C ? X.C->FieldVars[X.Field] : nullptr;
  };
  // Promoted allocations and their field-address computations go.
  auto IsDead = [&](const Instruction *I) {
    if (const auto *A = dyn_cast<AllocInst>(I)) {
      const Cell &X = CellOf[A->getDef()->getId()];
      return X.C && X.C->Alloc == A;
    }
    return isa<FieldAddrInst>(I) && CellOf[I->getDef()->getId()].C;
  };

  // Phase 1: rewrite every promoted load/store in the whole function.
  for (auto &BB : F->blocks()) {
    for (auto &Slot : BB->instructions()) {
      Instruction *I = Slot.get();
      std::unique_ptr<Instruction> Repl;
      if (auto *L = dyn_cast<LoadInst>(I)) {
        if (Variable *Cell = CellVar(L->getPtr())) {
          Repl = std::make_unique<CopyInst>(Operand::var(Cell));
          Repl->setDef(L->getDef());
        }
      } else if (auto *St = dyn_cast<StoreInst>(I)) {
        if (Variable *Cell = CellVar(St->getPtr())) {
          Repl = std::make_unique<CopyInst>(St->getValue());
          Repl->setDef(Cell);
        }
      }
      if (!Repl)
        continue;
      Repl->setLoc(I->getLoc());
      Repl->setParent(BB.get());
      Slot = std::move(Repl);
    }
  }

  // Phase 2: an initialized allocation's cells start defined (zero).
  for (auto &BB : F->blocks()) {
    auto &Insts = BB->instructions();
    for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
      auto *A = dyn_cast<AllocInst>(Insts[Idx].get());
      if (!A || !IsDead(A) || !A->getObject()->isInitialized())
        continue;
      const auto &Vars = CellOf[A->getDef()->getId()].C->FieldVars;
      for (size_t V = 0; V != Vars.size(); ++V) {
        auto Init = std::make_unique<CopyInst>(Operand::constant(0));
        Init->setDef(Vars[V]);
        BB->insertAt(Idx + 1 + V, std::move(Init));
      }
      Idx += Vars.size();
    }
  }

  // Phase 3: drop the allocations and field-address computations.
  for (auto &BB : F->blocks()) {
    auto &Insts = BB->instructions();
    Insts.erase(std::remove_if(Insts.begin(), Insts.end(),
                               [&](const std::unique_ptr<Instruction> &I) {
                                 return IsDead(I.get());
                               }),
                Insts.end());
  }
}

bool transforms::detail::promoteMemoryToRegisters(Module &M) {
  std::vector<bool> Promoted(M.objects().size());
  for (const auto &F : M.functions())
    promoteInFunction(F.get(), Promoted);
  if (std::find(Promoted.begin(), Promoted.end(), true) == Promoted.end())
    return false;
  M.purgeObjects([&](const MemObject *Obj) { return Promoted[Obj->getId()]; });
  return true;
}

