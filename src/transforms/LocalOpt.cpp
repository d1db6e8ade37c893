//===- transforms/LocalOpt.cpp - Constant/copy propagation & folding -------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "transforms/Transforms.h"

#include "ir/IR.h"

#include <cstdint>
#include <vector>

using namespace usher;
using namespace usher::ir;

/// Folds an all-constant binary operation; mirrors the interpreter's
/// integer semantics (division by zero yields zero, shifts mask to 63).
static int64_t foldBinOp(BinOpcode Op, int64_t X, int64_t Y) {
  switch (Op) {
  case BinOpcode::Add:
    return static_cast<int64_t>(static_cast<uint64_t>(X) +
                                static_cast<uint64_t>(Y));
  case BinOpcode::Sub:
    return static_cast<int64_t>(static_cast<uint64_t>(X) -
                                static_cast<uint64_t>(Y));
  case BinOpcode::Mul:
    return static_cast<int64_t>(static_cast<uint64_t>(X) *
                                static_cast<uint64_t>(Y));
  case BinOpcode::Div:
    return Y == 0 ? 0 : X / Y;
  case BinOpcode::Rem:
    return Y == 0 ? 0 : X % Y;
  case BinOpcode::And:
    return X & Y;
  case BinOpcode::Or:
    return X | Y;
  case BinOpcode::Xor:
    return X ^ Y;
  case BinOpcode::Shl:
    return static_cast<int64_t>(static_cast<uint64_t>(X) << (Y & 63));
  case BinOpcode::Shr:
    return static_cast<int64_t>(static_cast<uint64_t>(X) >> (Y & 63));
  case BinOpcode::CmpEQ:
    return X == Y;
  case BinOpcode::CmpNE:
    return X != Y;
  case BinOpcode::CmpLT:
    return X < Y;
  case BinOpcode::CmpLE:
    return X <= Y;
  case BinOpcode::CmpGT:
    return X > Y;
  case BinOpcode::CmpGE:
    return X >= Y;
  }
  return 0;
}

bool transforms::detail::propagateAndFold(Module &M) {
  bool Changed = false;

  // The block-local lattice, over dense variable ids: what each variable
  // is currently known to be. An entry is live only in the block whose
  // number it carries, so nothing is cleared between blocks. A def of D
  // invalidates what is known about D and about every variable known to
  // equal D: each def bumps Version[D], and an entry equal to a variable
  // holds that variable's version from when it was made, so it dies with
  // the next def instead of by a scan over the lattice.
  struct Fact {
    Operand Value;
    uint32_t Block = 0;   ///< The block this fact holds in; 0 = none.
    uint32_t Version = 0; ///< Version[Value's variable] when made.
  };
  std::vector<Fact> Known;
  std::vector<uint32_t> Version;
  uint32_t BlockNo = 0;

  for (const auto &F : M.functions()) {
    Known.assign(F->variables().size(), Fact());
    Version.assign(F->variables().size(), 0);
    for (const auto &BB : F->blocks()) {
      ++BlockNo;
      auto Lookup = [&](Operand Op) -> Operand {
        if (!Op.isVar())
          return Op;
        const Fact &K = Known[Op.getVar()->getId()];
        if (K.Block != BlockNo || (K.Value.isVar() &&
                                   Version[K.Value.getVar()->getId()] !=
                                       K.Version))
          return Op;
        return K.Value;
      };

      auto &Insts = BB->instructions();
      for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
        Instruction *I = Insts[Idx].get();

        // Rewrite operands through the lattice first.
        I->rewriteOperands([&](Operand Op) {
          Operand New = Lookup(Op);
          if (New.getKind() != Op.getKind() ||
              (Op.isVar() && New.isVar() && Op.getVar() != New.getVar()) ||
              (Op.isConst() && New.isConst() &&
               Op.getConst() != New.getConst()))
            Changed = true;
          return New;
        });

        // Fold all-constant binops into copies.
        if (auto *B = dyn_cast<BinOpInst>(I)) {
          if (B->getLHS().isConst() && B->getRHS().isConst()) {
            int64_t V = foldBinOp(B->getOpcode(), B->getLHS().getConst(),
                                  B->getRHS().getConst());
            auto Repl = std::make_unique<CopyInst>(Operand::constant(V));
            Repl->setDef(B->getDef());
            Repl->setParent(BB.get());
            Insts[Idx] = std::move(Repl);
            I = Insts[Idx].get();
            Changed = true;
          }
        }

        // Fold branches on constants.
        if (auto *Br = dyn_cast<CondBrInst>(I)) {
          if (Br->getCond().isConst()) {
            BasicBlock *Target = Br->getCond().getConst() != 0
                                     ? Br->getTrueBB()
                                     : Br->getFalseBB();
            auto Repl = std::make_unique<GotoInst>(Target);
            Repl->setParent(BB.get());
            Insts[Idx] = std::move(Repl);
            I = Insts[Idx].get();
            Changed = true;
          } else if (Br->getCond().isGlobal()) {
            // A global's address is never null.
            auto Repl = std::make_unique<GotoInst>(Br->getTrueBB());
            Repl->setParent(BB.get());
            Insts[Idx] = std::move(Repl);
            I = Insts[Idx].get();
            Changed = true;
          }
        }

        // Update the lattice.
        if (const Variable *Def = I->getDef()) {
          ++Version[Def->getId()];
          Fact &K = Known[Def->getId()];
          K.Block = 0;
          if (const auto *C = dyn_cast<CopyInst>(I)) {
            // x = self would create a cycle in the lattice; skip it.
            const Operand Src = C->getSrc();
            if (!(Src.isVar() && Src.getVar() == Def))
              K = {Src, BlockNo,
                   Src.isVar() ? Version[Src.getVar()->getId()] : 0};
          }
        }
      }
    }
  }

  return Changed;
}

bool transforms::propagateAndFold(Module &M) {
  if (!detail::propagateAndFold(M))
    return false;
  M.renumber();
  return true;
}
