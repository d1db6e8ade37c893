//===- ir/IRBuilder.h - Convenience construction API ------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fluent construction helpers for TinyC IR, used by the parser, the random
/// program generator, and library clients building programs in memory.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_IR_IRBUILDER_H
#define USHER_IR_IRBUILDER_H

#include "ir/IR.h"

namespace usher {
namespace ir {

/// Appends instructions to a current insertion block.
class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M) {}

  Module &getModule() { return M; }

  /// Sets the block new instructions are appended to.
  void setInsertPoint(BasicBlock *BB) { Insert = BB; }
  BasicBlock *getInsertBlock() const { return Insert; }

  /// Sets the source position stamped on subsequently created
  /// instructions (until changed). The default invalid location marks
  /// synthesized instructions.
  void setCurrentLoc(SourceLoc L) { Loc = L; }
  SourceLoc getCurrentLoc() const { return Loc; }

  /// x = src.
  Instruction *createCopy(Variable *Def, Operand Src) {
    auto I = std::make_unique<CopyInst>(Src);
    I->setDef(Def);
    return append(std::move(I));
  }

  /// x = lhs (op) rhs.
  Instruction *createBinOp(Variable *Def, BinOpcode Op, Operand LHS,
                           Operand RHS) {
    auto I = std::make_unique<BinOpInst>(Op, LHS, RHS);
    I->setDef(Def);
    return append(std::move(I));
  }

  /// x = alloc <region> <fields> <init> [array]; creates the abstract
  /// object as a side effect.
  Instruction *createAlloc(Variable *Def, Region R, unsigned NumFields,
                           bool Initialized, bool IsArray,
                           std::string ObjName) {
    MemObject *Obj = M.createObject(std::move(ObjName), R, NumFields,
                                    Initialized, IsArray);
    auto I = std::make_unique<AllocInst>(Obj);
    I->setDef(Def);
    Instruction *Result = append(std::move(I));
    Obj->setAllocSite(Result);
    return Result;
  }

  /// x = gep base, index (constant or variable index).
  Instruction *createFieldAddr(Variable *Def, Operand Base, Operand Index) {
    auto I = std::make_unique<FieldAddrInst>(Base, Index);
    I->setDef(Def);
    return append(std::move(I));
  }

  /// x = gep base, k with a constant field index.
  Instruction *createFieldAddr(Variable *Def, Operand Base, unsigned Field) {
    return createFieldAddr(Def, Base,
                           Operand::constant(static_cast<int64_t>(Field)));
  }

  /// x = *p.
  Instruction *createLoad(Variable *Def, Operand Ptr) {
    auto I = std::make_unique<LoadInst>(Ptr);
    I->setDef(Def);
    return append(std::move(I));
  }

  /// *p = v.
  Instruction *createStore(Operand Ptr, Operand Value) {
    return append(std::make_unique<StoreInst>(Ptr, Value));
  }

  /// x = f(args) / f(args).
  Instruction *createCall(Variable *Def, Function *Callee,
                          std::vector<Operand> Args) {
    auto I = std::make_unique<CallInst>(Callee, std::move(Args));
    I->setDef(Def);
    return append(std::move(I));
  }

  /// if c goto T else goto F.
  Instruction *createCondBr(Operand Cond, BasicBlock *TrueBB,
                            BasicBlock *FalseBB) {
    return append(std::make_unique<CondBrInst>(Cond, TrueBB, FalseBB));
  }

  /// goto L.
  Instruction *createGoto(BasicBlock *Target) {
    return append(std::make_unique<GotoInst>(Target));
  }

  /// ret v / ret.
  Instruction *createRet(Operand Value = Operand()) {
    return append(std::make_unique<RetInst>(Value));
  }

private:
  Instruction *append(std::unique_ptr<Instruction> I) {
    assert(Insert && "IRBuilder has no insertion point");
    I->setLoc(Loc);
    return Insert->append(std::move(I));
  }

  Module &M;
  BasicBlock *Insert = nullptr;
  SourceLoc Loc;

};

} // namespace ir
} // namespace usher

#endif // USHER_IR_IRBUILDER_H
