//===- transforms/Mem2Reg.cpp - Promote memory to registers ----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "transforms/Transforms.h"

#include "ir/IR.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace usher;
using namespace usher::ir;

namespace {

/// All facts needed to promote one allocation.
struct Candidate {
  AllocInst *Alloc = nullptr;
  /// Field-address instructions deriving from the allocation pointer,
  /// keyed by their def variable; value is the field index.
  std::unordered_map<const Variable *, unsigned> GepFields;
  bool Viable = true;
};

} // namespace

/// Collects promotion candidates in \p F: single-def pointers from
/// non-array stack allocations whose only uses are direct loads, stores
/// (as the pointer), and constant-field geps with the same property.
static std::vector<Candidate> findCandidates(Function &F) {
  std::unordered_map<const Variable *, unsigned> DefCounts;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (const Variable *Def = I->getDef())
        ++DefCounts[Def];

  std::unordered_map<const Variable *, Candidate *> PtrOwner;
  std::vector<Candidate> Candidates;
  Candidates.reserve(16);

  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      auto *A = dyn_cast<AllocInst>(I.get());
      if (!A)
        continue;
      const MemObject *Obj = A->getObject();
      if (!Obj->isStack() || Obj->isArray() || DefCounts[A->getDef()] != 1)
        continue;
      // Like LLVM's PromoteMemToReg, only promote entry-block allocations:
      // an allocation inside a loop yields a *fresh* (undefined) instance
      // per trip, which promoted variables would not model.
      if (BB.get() != F.getEntry())
        continue;
      Candidates.push_back({});
      Candidates.back().Alloc = A;
    }
  }
  for (Candidate &C : Candidates)
    PtrOwner[C.Alloc->getDef()] = &C;

  // Geps deriving from a candidate pointer join the candidate; their
  // result variables become candidate pointers too (single level of gep
  // is all TinyC produces, but nested geps are rejected below).
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      auto *G = dyn_cast<FieldAddrInst>(I.get());
      if (!G || !G->getBase().isVar())
        continue;
      auto It = PtrOwner.find(G->getBase().getVar());
      if (It == PtrOwner.end())
        continue;
      Candidate *C = It->second;
      if (G->getBase().getVar() != C->Alloc->getDef() ||
          DefCounts[G->getDef()] != 1 || !G->hasConstIndex() ||
          G->getFieldIdx() >= C->Alloc->getObject()->getNumFields()) {
        C->Viable = false; // Nested, multi-def, dynamic or OOB gep.
        continue;
      }
      C->GepFields[G->getDef()] = G->getFieldIdx();
      PtrOwner[G->getDef()] = C;
    }
  }

  // Every other use of a candidate pointer must be a direct load or a
  // store *through* it (not of it).
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      std::vector<Variable *> Used;
      I->collectUsedVars(Used);
      for (const Variable *V : Used) {
        auto It = PtrOwner.find(V);
        if (It == PtrOwner.end())
          continue;
        Candidate *C = It->second;
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
          if (C->GepFields.count(V))
            C->Viable = false;
          break;
        default:
          C->Viable = false; // Escapes via call/ret/copy/compare/...
        }
      }
    }
  }
  return Candidates;
}

/// Promotes within one function; only this function's blocks, variables
/// and instructions are touched. Returns the objects promoted here (the
/// caller folds them into the module-level purge).
static std::vector<const MemObject *> promoteInFunction(Function *F) {
  std::vector<const MemObject *> PromotedHere;
  {
    std::vector<Candidate> Candidates = findCandidates(*F);
    std::unordered_map<const Variable *, std::pair<Candidate *, unsigned>>
        CellOf; // pointer var -> (candidate, field)
    std::unordered_map<const MemObject *, std::vector<Variable *>> FieldVars;
    std::unordered_set<const Instruction *> Dead;

    for (Candidate &C : Candidates) {
      if (!C.Viable)
        continue;
      const MemObject *Obj = C.Alloc->getObject();
      auto &Vars = FieldVars[Obj];
      for (unsigned Idx = 0; Idx != Obj->getNumFields(); ++Idx)
        Vars.push_back(F->createVariable(Obj->getName() + ".f" +
                                         std::to_string(Idx)));
      CellOf[C.Alloc->getDef()] = {&C, 0};
      for (const auto &[GepVar, Field] : C.GepFields)
        CellOf[GepVar] = {&C, Field};
      Dead.insert(C.Alloc);
      PromotedHere.push_back(Obj);
    }
    if (CellOf.empty())
      return PromotedHere;

    // Phase 1: rewrite every promoted load/store in the whole function.
    for (auto &BB : F->blocks()) {
      auto &Insts = BB->instructions();
      for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
        Instruction *I = Insts[Idx].get();
        if (auto *G = dyn_cast<FieldAddrInst>(I)) {
          if (CellOf.count(G->getDef()))
            Dead.insert(I);
          continue;
        }
        if (auto *L = dyn_cast<LoadInst>(I)) {
          if (!L->getPtr().isVar())
            continue;
          auto It = CellOf.find(L->getPtr().getVar());
          if (It == CellOf.end())
            continue;
          auto [C, Field] = It->second;
          Variable *Cell = FieldVars[C->Alloc->getObject()][Field];
          auto Repl = std::make_unique<CopyInst>(Operand::var(Cell));
          Repl->setDef(L->getDef());
          Repl->setLoc(L->getLoc());
          Repl->setParent(BB.get());
          Insts[Idx] = std::move(Repl);
          continue;
        }
        if (auto *St = dyn_cast<StoreInst>(I)) {
          if (!St->getPtr().isVar())
            continue;
          auto It = CellOf.find(St->getPtr().getVar());
          if (It == CellOf.end())
            continue;
          auto [C, Field] = It->second;
          Variable *Cell = FieldVars[C->Alloc->getObject()][Field];
          auto Repl = std::make_unique<CopyInst>(St->getValue());
          Repl->setDef(Cell);
          Repl->setLoc(St->getLoc());
          Repl->setParent(BB.get());
          Insts[Idx] = std::move(Repl);
          continue;
        }
      }
    }

    // Phase 2: an initialized allocation's cells start defined (zero).
    for (auto &BB : F->blocks()) {
      auto &Insts = BB->instructions();
      for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
        auto *A = dyn_cast<AllocInst>(Insts[Idx].get());
        if (!A || !Dead.count(A))
          continue;
        if (A->getObject()->isInitialized()) {
          const auto &Vars = FieldVars[A->getObject()];
          for (size_t V = 0; V != Vars.size(); ++V) {
            auto Init = std::make_unique<CopyInst>(Operand::constant(0));
            Init->setDef(Vars[V]);
            BB->insertAt(Idx + 1 + V, std::move(Init));
          }
          Idx += Vars.size();
        }
      }
    }

    // Phase 3: drop the allocations and field-address computations.
    for (auto &BB : F->blocks()) {
      auto &Insts = BB->instructions();
      Insts.erase(std::remove_if(Insts.begin(), Insts.end(),
                                 [&](const std::unique_ptr<Instruction> &I) {
                                   return Dead.count(I.get()) != 0;
                                 }),
                  Insts.end());
    }
  }
  return PromotedHere;
}

bool transforms::promoteMemoryToRegisters(Module &M) {
  std::unordered_set<const MemObject *> Promoted;
  for (const auto &F : M.functions()) {
    std::vector<const MemObject *> Objs = promoteInFunction(F.get());
    Promoted.insert(Objs.begin(), Objs.end());
  }
  if (Promoted.empty())
    return false;
  M.purgeObjects([&](const MemObject *Obj) { return Promoted.count(Obj); });
  M.renumber();
  return true;
}
