//===- ir/IR.cpp - TinyC intermediate representation ----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "support/RawStream.h"

#include <algorithm>
#include <unordered_set>

using namespace usher;
using namespace usher::ir;

const char *ir::binOpcodeSpelling(BinOpcode Op) {
  switch (Op) {
  case BinOpcode::Add:
    return "+";
  case BinOpcode::Sub:
    return "-";
  case BinOpcode::Mul:
    return "*";
  case BinOpcode::Div:
    return "/";
  case BinOpcode::Rem:
    return "%";
  case BinOpcode::And:
    return "&";
  case BinOpcode::Or:
    return "|";
  case BinOpcode::Xor:
    return "^";
  case BinOpcode::Shl:
    return "<<";
  case BinOpcode::Shr:
    return ">>";
  case BinOpcode::CmpEQ:
    return "==";
  case BinOpcode::CmpNE:
    return "!=";
  case BinOpcode::CmpLT:
    return "<";
  case BinOpcode::CmpLE:
    return "<=";
  case BinOpcode::CmpGT:
    return ">";
  case BinOpcode::CmpGE:
    return ">=";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

Instruction *BasicBlock::append(std::unique_ptr<Instruction> I) {
  assert(I && "appending a null instruction");
  I->setParent(this);
  Insts.push_back(std::move(I));
  return Insts.back().get();
}

Instruction *BasicBlock::insertAt(size_t Idx, std::unique_ptr<Instruction> I) {
  assert(Idx <= Insts.size() && "insertion index out of range");
  I->setParent(this);
  auto It = Insts.insert(Insts.begin() + Idx, std::move(I));
  return It->get();
}

Instruction *BasicBlock::getTerminator() const {
  if (Insts.empty())
    return nullptr;
  Instruction *Last = Insts.back().get();
  return Last->isTerminator() ? Last : nullptr;
}

void BasicBlock::getSuccessors(std::vector<BasicBlock *> &Succs) const {
  Instruction *Term = getTerminator();
  assert(Term && "querying successors of an unterminated block");
  if (auto *CB = dyn_cast<CondBrInst>(Term)) {
    Succs.push_back(CB->getTrueBB());
    if (CB->getFalseBB() != CB->getTrueBB())
      Succs.push_back(CB->getFalseBB());
  } else if (auto *G = dyn_cast<GotoInst>(Term)) {
    Succs.push_back(G->getTarget());
  }
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

Variable *Function::createVariable(std::string VarName, bool IsParam) {
  auto V = std::make_unique<Variable>(std::move(VarName),
                                      static_cast<unsigned>(Vars.size()), this,
                                      IsParam);
  Vars.push_back(std::move(V));
  Variable *Result = Vars.back().get();
  if (IsParam)
    Params.push_back(Result);
  return Result;
}

BasicBlock *Function::createBlock(std::string BlockName) {
  auto BB = std::make_unique<BasicBlock>(
      std::move(BlockName), static_cast<unsigned>(Blocks.size()), this);
  Blocks.push_back(std::move(BB));
  return Blocks.back().get();
}

size_t Function::instructionCount() const {
  size_t N = 0;
  for (const auto &BB : Blocks)
    N += BB->size();
  return N;
}

void Function::renumberBlocks() {
  unsigned Id = 0;
  for (auto &BB : Blocks)
    BB->setId(Id++);
}

Variable *Function::findVariable(const std::string &VarName) const {
  for (const auto &V : Vars)
    if (V->getName() == VarName)
      return V.get();
  return nullptr;
}

bool Function::removeUnreachableBlocks() {
  std::unordered_set<BasicBlock *> Reachable;
  std::vector<BasicBlock *> Work{getEntry()};
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    if (!Reachable.insert(BB).second)
      continue;
    std::vector<BasicBlock *> Succs;
    BB->getSuccessors(Succs);
    for (BasicBlock *S : Succs)
      Work.push_back(S);
  }
  if (Reachable.size() == Blocks.size())
    return false;
  Blocks.erase(std::remove_if(Blocks.begin(), Blocks.end(),
                              [&](const std::unique_ptr<BasicBlock> &BB) {
                                return !Reachable.count(BB.get());
                              }),
               Blocks.end());
  renumberBlocks();
  return true;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

Function *Module::createFunction(std::string FnName) {
  auto F = std::make_unique<Function>(std::move(FnName),
                                      static_cast<unsigned>(Funcs.size()),
                                      this);
  Funcs.push_back(std::move(F));
  return Funcs.back().get();
}

MemObject *Module::createObject(std::string ObjName, Region R,
                                unsigned NumFields, bool Initialized,
                                bool IsArray) {
  auto Obj = std::make_unique<MemObject>(
      std::move(ObjName), static_cast<unsigned>(Objects.size()), R, NumFields,
      Initialized, IsArray);
  Objects.push_back(std::move(Obj));
  return Objects.back().get();
}

Function *Module::findFunction(const std::string &FnName) const {
  for (const auto &F : Funcs)
    if (F->getName() == FnName)
      return F.get();
  return nullptr;
}

MemObject *Module::findGlobal(const std::string &ObjName) const {
  for (const auto &Obj : Objects)
    if (Obj->isGlobal() && Obj->getName() == ObjName)
      return Obj.get();
  return nullptr;
}

void Module::purgeObjects(
    const std::function<bool(const MemObject *)> &ShouldDrop) {
  Objects.erase(std::remove_if(Objects.begin(), Objects.end(),
                               [&](const std::unique_ptr<MemObject> &Obj) {
                                 return ShouldDrop(Obj.get());
                               }),
                Objects.end());
  // Object ids are dense indices; restore the invariant.
  for (size_t Idx = 0; Idx != Objects.size(); ++Idx)
    Objects[Idx]->setId(static_cast<unsigned>(Idx));
}

void Module::renumber() {
  unsigned Id = 0;
  for (auto &F : Funcs) {
    F->renumberBlocks();
    for (auto &BB : F->blocks())
      for (auto &I : BB->instructions())
        I->setId(Id++);
  }
  NumInsts = Id;
}
