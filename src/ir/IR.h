//===- ir/IR.h - TinyC intermediate representation ---------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TinyC intermediate representation from Section 2 of the paper,
/// extended with the features its evaluation relies on: field addressing
/// (the LLVM GEP analog required by offset-based field-sensitive pointer
/// analysis), multi-argument calls, arrays, and stack/heap/global allocation
/// regions (the Table 1 statistics distinguish all three).
///
/// Design notes:
///  - Top-level variables (Var_TL) are named slots local to a function and
///    may be assigned more than once; SSA versions are built as an overlay
///    by MemorySSA rather than by rewriting this IR.
///  - Address-taken variables (Var_AT) are MemObjects: one abstract object
///    per allocation site (or per global). They are only accessed through
///    loads and stores via top-level pointers, exactly as in the paper.
///  - Operands are a small value-semantics variant (constant / variable /
///    global address); instructions form a classof-based class hierarchy so
///    the usual isa<>/cast<>/dyn_cast<> idioms apply.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_IR_IR_H
#define USHER_IR_IR_H

#include "support/Casting.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace usher {

class raw_ostream;

namespace ir {

class BasicBlock;
class Function;
class Instruction;
class Module;

//===----------------------------------------------------------------------===//
// Variables and memory objects
//===----------------------------------------------------------------------===//

/// A top-level variable: directly accessed, function-local, register-like.
class Variable {
public:
  Variable(std::string Name, unsigned Id, Function *Parent, bool IsParam)
      : Name(std::move(Name)), Id(Id), Parent(Parent), IsParam(IsParam) {}

  const std::string &getName() const { return Name; }
  /// Dense id, unique within the owning function.
  unsigned getId() const { return Id; }
  Function *getParent() const { return Parent; }
  /// True if this variable is a formal parameter of its function.
  bool isParam() const { return IsParam; }

private:
  std::string Name;
  unsigned Id;
  Function *Parent;
  bool IsParam;
};

/// Storage class of an abstract memory object.
enum class Region { Stack, Heap, Global };

/// An address-taken variable (an abstract memory object): one per
/// allocation site or per global. Accessed only via loads and stores.
class MemObject {
public:
  MemObject(std::string Name, unsigned Id, Region R, unsigned NumFields,
            bool Initialized, bool IsArray)
      : Name(std::move(Name)), Id(Id), Reg(R), NumFields(NumFields),
        Initialized(Initialized), IsArray(IsArray) {}

  const std::string &getName() const { return Name; }
  /// Renames this object (the program linker prefixes unit symbols).
  void setName(std::string NewName) { Name = std::move(NewName); }
  /// Dense id, unique within the owning module.
  unsigned getId() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }
  Region getRegion() const { return Reg; }
  /// Number of distinct fields; arrays are collapsed to a single field by
  /// the pointer analysis regardless of this count.
  unsigned getNumFields() const { return NumFields; }
  /// True for alloc_T sites (memory defined on allocation) and for globals
  /// declared `init`; false for alloc_F sites.
  bool isInitialized() const { return Initialized; }
  bool isArray() const { return IsArray; }
  bool isGlobal() const { return Reg == Region::Global; }
  bool isHeap() const { return Reg == Region::Heap; }
  bool isStack() const { return Reg == Region::Stack; }

  /// The allocation instruction that creates instances of this object;
  /// null for globals.
  Instruction *getAllocSite() const { return AllocSite; }
  void setAllocSite(Instruction *I) { AllocSite = I; }

  /// Heap cloning support: the object this one was cloned from, or null.
  MemObject *getCloneOrigin() const { return CloneOrigin; }
  void setCloneOrigin(MemObject *O) { CloneOrigin = O; }

private:
  std::string Name;
  unsigned Id;
  Region Reg;
  unsigned NumFields;
  bool Initialized;
  bool IsArray;
  Instruction *AllocSite = nullptr;
  MemObject *CloneOrigin = nullptr;
};

//===----------------------------------------------------------------------===//
// Operands
//===----------------------------------------------------------------------===//

/// A use of a value: an integer constant, a top-level variable, or the
/// address of a global object. Value-semantics; no ownership.
class Operand {
public:
  enum class Kind { None, Const, Var, Global };

  Operand() : K(Kind::None) {}

  static Operand constant(int64_t Value) {
    Operand Op;
    Op.K = Kind::Const;
    Op.Imm = Value;
    return Op;
  }
  static Operand var(Variable *V) {
    assert(V && "null variable operand");
    Operand Op;
    Op.K = Kind::Var;
    Op.Var = V;
    return Op;
  }
  static Operand global(MemObject *G) {
    assert(G && G->isGlobal() && "global operand must name a global object");
    Operand Op;
    Op.K = Kind::Global;
    Op.Glob = G;
    return Op;
  }

  Kind getKind() const { return K; }
  bool isNone() const { return K == Kind::None; }
  bool isConst() const { return K == Kind::Const; }
  bool isVar() const { return K == Kind::Var; }
  bool isGlobal() const { return K == Kind::Global; }

  int64_t getConst() const {
    assert(isConst() && "not a constant operand");
    return Imm;
  }
  Variable *getVar() const {
    assert(isVar() && "not a variable operand");
    return Var;
  }
  MemObject *getGlobal() const {
    assert(isGlobal() && "not a global-address operand");
    return Glob;
  }

private:
  Kind K;
  union {
    int64_t Imm;
    Variable *Var;
    MemObject *Glob;
  };
};

//===----------------------------------------------------------------------===//
// Instructions
//===----------------------------------------------------------------------===//

/// Binary operators available in TinyC.
enum class BinOpcode {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE
};

/// Returns the spelled operator, e.g. "+" for Add.
const char *binOpcodeSpelling(BinOpcode Op);

/// A source position. Line/column are 1-based; 0 means "unknown" (e.g.
/// synthesized instructions with no surface syntax).
struct SourceLoc {
  unsigned Line = 0;
  unsigned Col = 0;
  bool isValid() const { return Line != 0; }
};

/// Base class of all TinyC instructions.
class Instruction {
public:
  enum class IKind {
    Copy,
    BinOp,
    Alloc,
    FieldAddr,
    Load,
    Store,
    Call,
    CondBr,
    Goto,
    Ret
  };

  virtual ~Instruction() = default;

  IKind getKind() const { return K; }
  BasicBlock *getParent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// Module-unique dense id, assigned by Module::renumber().
  unsigned getId() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }

  /// The top-level variable this instruction defines, or null.
  Variable *getDef() const { return Def; }
  void setDef(Variable *V) { Def = V; }

  /// Source position of the statement this instruction was parsed from;
  /// invalid (0:0) for synthesized instructions.
  SourceLoc getLoc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  /// Calls \p Visit(Operand) on every operand (of any kind) this
  /// instruction reads, in operand order. A void return has none.
  template <typename Fn> void forEachOperand(Fn &&Visit) const;

  /// Calls \p Visit(Variable *) on every variable operand this
  /// instruction reads, in operand order and once per occurrence.
  /// Constants and global addresses are skipped (they are always defined
  /// values).
  template <typename Fn> void forEachUsedVar(Fn &&Visit) const {
    forEachOperand([&](Operand Op) {
      if (Op.isVar())
        Visit(Op.getVar());
    });
  }

  /// Replaces every operand forEachOperand visits with \p Rewrite(Operand).
  template <typename Fn> void rewriteOperands(Fn &&Rewrite);

  /// True for block terminators (CondBr, Goto, Ret).
  bool isTerminator() const {
    return K == IKind::CondBr || K == IKind::Goto || K == IKind::Ret;
  }

  /// True for the paper's critical operations (Definition 1): loads,
  /// stores and branches.
  bool isCritical() const {
    return K == IKind::Load || K == IKind::Store || K == IKind::CondBr;
  }

  /// Prints this instruction in parseable TinyC syntax.
  void print(raw_ostream &OS) const;

protected:
  explicit Instruction(IKind K) : K(K) {}

private:
  IKind K;
  BasicBlock *Parent = nullptr;
  Variable *Def = nullptr;
  unsigned Id = ~0u;
  SourceLoc Loc;
};

/// x := n | x := y | x := g   (constant, variable copy, or global address).
class CopyInst : public Instruction {
public:
  explicit CopyInst(Operand Src) : Instruction(IKind::Copy), Src(Src) {}

  Operand getSrc() const { return Src; }
  void setSrc(Operand Op) { Src = Op; }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::Copy;
  }

private:
  Operand Src;
};

/// x := a (+) b.
class BinOpInst : public Instruction {
public:
  BinOpInst(BinOpcode Op, Operand LHS, Operand RHS)
      : Instruction(IKind::BinOp), Op(Op), LHS(LHS), RHS(RHS) {}

  BinOpcode getOpcode() const { return Op; }
  Operand getLHS() const { return LHS; }
  Operand getRHS() const { return RHS; }
  void setLHS(Operand O) { LHS = O; }
  void setRHS(Operand O) { RHS = O; }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::BinOp;
  }

private:
  BinOpcode Op;
  Operand LHS, RHS;
};

/// x := alloc_T rho / alloc_F rho. Creates a fresh instance of the
/// abstract object at run time and defines x to point at it.
class AllocInst : public Instruction {
public:
  explicit AllocInst(MemObject *Obj) : Instruction(IKind::Alloc), Obj(Obj) {}

  MemObject *getObject() const { return Obj; }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::Alloc;
  }

private:
  MemObject *Obj;
};

/// x := gep p, k — address of field k of the object p points to. The
/// index may be a constant or a variable (the analog of an LLVM GEP with
/// a dynamic index; the pointer analysis then conservatively reaches every
/// field of the pointee).
class FieldAddrInst : public Instruction {
public:
  FieldAddrInst(Operand Base, Operand Index)
      : Instruction(IKind::FieldAddr), Base(Base), Index(Index) {}

  Operand getBase() const { return Base; }
  void setBase(Operand O) { Base = O; }
  Operand getIndex() const { return Index; }
  void setIndex(Operand O) { Index = O; }

  /// True if the field index is a compile-time constant.
  bool hasConstIndex() const { return Index.isConst(); }
  /// The constant field index; asserts hasConstIndex().
  unsigned getFieldIdx() const {
    return static_cast<unsigned>(Index.getConst());
  }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::FieldAddr;
  }

private:
  Operand Base;
  Operand Index;
};

/// x := *p. A critical operation on p.
class LoadInst : public Instruction {
public:
  explicit LoadInst(Operand Ptr) : Instruction(IKind::Load), Ptr(Ptr) {}

  Operand getPtr() const { return Ptr; }
  void setPtr(Operand O) { Ptr = O; }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::Load;
  }

private:
  Operand Ptr;
};

/// *p := v. A critical operation on p.
class StoreInst : public Instruction {
public:
  StoreInst(Operand Ptr, Operand Value)
      : Instruction(IKind::Store), Ptr(Ptr), Val(Value) {}

  Operand getPtr() const { return Ptr; }
  Operand getValue() const { return Val; }
  void setPtr(Operand O) { Ptr = O; }
  void setValue(Operand O) { Val = O; }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::Store;
  }

private:
  Operand Ptr, Val;
};

/// x := f(a1, ..., an). Direct calls only (TinyC has no function pointers;
/// the paper inlines functions with function-pointer arguments up front).
class CallInst : public Instruction {
public:
  CallInst(Function *Callee, std::vector<Operand> Args)
      : Instruction(IKind::Call), Callee(Callee), Args(std::move(Args)) {}

  Function *getCallee() const { return Callee; }
  const std::vector<Operand> &getArgs() const { return Args; }
  void setArg(unsigned Idx, Operand O) {
    assert(Idx < Args.size() && "call argument index out of range");
    Args[Idx] = O;
  }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::Call;
  }

private:
  Function *Callee;
  std::vector<Operand> Args;
};

/// if c goto T else goto F. A critical operation on c.
class CondBrInst : public Instruction {
public:
  CondBrInst(Operand Cond, BasicBlock *TrueBB, BasicBlock *FalseBB)
      : Instruction(IKind::CondBr), Cond(Cond), TrueBB(TrueBB),
        FalseBB(FalseBB) {}

  Operand getCond() const { return Cond; }
  void setCond(Operand O) { Cond = O; }
  BasicBlock *getTrueBB() const { return TrueBB; }
  BasicBlock *getFalseBB() const { return FalseBB; }
  void setTrueBB(BasicBlock *BB) { TrueBB = BB; }
  void setFalseBB(BasicBlock *BB) { FalseBB = BB; }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::CondBr;
  }

private:
  Operand Cond;
  BasicBlock *TrueBB, *FalseBB;
};

/// goto L.
class GotoInst : public Instruction {
public:
  explicit GotoInst(BasicBlock *Target)
      : Instruction(IKind::Goto), Target(Target) {}

  BasicBlock *getTarget() const { return Target; }
  void setTarget(BasicBlock *BB) { Target = BB; }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::Goto;
  }

private:
  BasicBlock *Target;
};

/// ret v / ret.
class RetInst : public Instruction {
public:
  explicit RetInst(Operand Value) : Instruction(IKind::Ret), Val(Value) {}

  /// The returned operand; Operand::isNone() for a void return.
  Operand getValue() const { return Val; }
  void setValue(Operand O) { Val = O; }

  static bool classof(const Instruction *I) {
    return I->getKind() == IKind::Ret;
  }

private:
  Operand Val;
};

template <typename Fn> void Instruction::forEachOperand(Fn &&Visit) const {
  switch (K) {
  case IKind::Copy:
    Visit(cast<CopyInst>(this)->getSrc());
    break;
  case IKind::BinOp: {
    const auto *B = cast<BinOpInst>(this);
    Visit(B->getLHS());
    Visit(B->getRHS());
    break;
  }
  case IKind::Alloc:
  case IKind::Goto:
    break;
  case IKind::FieldAddr: {
    const auto *FA = cast<FieldAddrInst>(this);
    Visit(FA->getBase());
    Visit(FA->getIndex());
    break;
  }
  case IKind::Load:
    Visit(cast<LoadInst>(this)->getPtr());
    break;
  case IKind::Store: {
    const auto *S = cast<StoreInst>(this);
    Visit(S->getPtr());
    Visit(S->getValue());
    break;
  }
  case IKind::Call:
    for (const Operand &Arg : cast<CallInst>(this)->getArgs())
      Visit(Arg);
    break;
  case IKind::CondBr:
    Visit(cast<CondBrInst>(this)->getCond());
    break;
  case IKind::Ret:
    if (Operand V = cast<RetInst>(this)->getValue(); !V.isNone())
      Visit(V);
    break;
  }
}

template <typename Fn> void Instruction::rewriteOperands(Fn &&Rewrite) {
  switch (K) {
  case IKind::Copy: {
    auto *C = cast<CopyInst>(this);
    C->setSrc(Rewrite(C->getSrc()));
    break;
  }
  case IKind::BinOp: {
    auto *B = cast<BinOpInst>(this);
    B->setLHS(Rewrite(B->getLHS()));
    B->setRHS(Rewrite(B->getRHS()));
    break;
  }
  case IKind::Alloc:
  case IKind::Goto:
    break;
  case IKind::FieldAddr: {
    auto *FA = cast<FieldAddrInst>(this);
    FA->setBase(Rewrite(FA->getBase()));
    FA->setIndex(Rewrite(FA->getIndex()));
    break;
  }
  case IKind::Load: {
    auto *L = cast<LoadInst>(this);
    L->setPtr(Rewrite(L->getPtr()));
    break;
  }
  case IKind::Store: {
    auto *S = cast<StoreInst>(this);
    S->setPtr(Rewrite(S->getPtr()));
    S->setValue(Rewrite(S->getValue()));
    break;
  }
  case IKind::Call: {
    auto *C = cast<CallInst>(this);
    for (unsigned Idx = 0, E = C->getArgs().size(); Idx != E; ++Idx)
      C->setArg(Idx, Rewrite(C->getArgs()[Idx]));
    break;
  }
  case IKind::CondBr: {
    auto *B = cast<CondBrInst>(this);
    B->setCond(Rewrite(B->getCond()));
    break;
  }
  case IKind::Ret: {
    auto *R = cast<RetInst>(this);
    if (!R->getValue().isNone())
      R->setValue(Rewrite(R->getValue()));
    break;
  }
  }
}

//===----------------------------------------------------------------------===//
// Basic blocks, functions, module
//===----------------------------------------------------------------------===//

/// A straight-line sequence of instructions ending in a terminator.
class BasicBlock {
public:
  BasicBlock(std::string Name, unsigned Id, Function *Parent)
      : Name(std::move(Name)), Id(Id), Parent(Parent) {}

  const std::string &getName() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }
  /// Dense id, unique within the owning function (renumbered on demand).
  unsigned getId() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }
  Function *getParent() const { return Parent; }

  using InstList = std::vector<std::unique_ptr<Instruction>>;
  InstList &instructions() { return Insts; }
  const InstList &instructions() const { return Insts; }

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  /// Appends \p I to this block and takes ownership.
  Instruction *append(std::unique_ptr<Instruction> I);

  /// Inserts \p I before position \p Idx and takes ownership.
  Instruction *insertAt(size_t Idx, std::unique_ptr<Instruction> I);

  /// Returns the terminator, or null if the block is unterminated.
  Instruction *getTerminator() const;

  /// Appends this block's CFG successors to \p Succs (empty for returns).
  void getSuccessors(std::vector<BasicBlock *> &Succs) const;

private:
  std::string Name;
  unsigned Id;
  Function *Parent;
  InstList Insts;
};

/// A TinyC function: formal parameters, local variables, basic blocks.
class Function {
public:
  Function(std::string Name, unsigned Id, Module *Parent)
      : Name(std::move(Name)), Id(Id), Parent(Parent) {}

  const std::string &getName() const { return Name; }
  /// Renames this function (the program linker prefixes unit symbols).
  void setName(std::string NewName) { Name = std::move(NewName); }
  unsigned getId() const { return Id; }
  Module *getParent() const { return Parent; }

  /// Creates a new top-level variable owned by this function.
  Variable *createVariable(std::string Name, bool IsParam = false);

  /// Creates a new basic block owned by this function.
  BasicBlock *createBlock(std::string Name);

  const std::vector<std::unique_ptr<Variable>> &variables() const {
    return Vars;
  }
  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  std::vector<std::unique_ptr<BasicBlock>> &blocks() { return Blocks; }

  const std::vector<Variable *> &params() const { return Params; }

  BasicBlock *getEntry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  /// Number of instructions across all blocks.
  size_t instructionCount() const;

  /// Reassigns dense block ids in layout order.
  void renumberBlocks();

  /// Looks up a variable by name; returns null if absent.
  Variable *findVariable(const std::string &Name) const;

  /// Removes blocks unreachable from the entry. Returns true on change.
  bool removeUnreachableBlocks();

private:
  std::string Name;
  unsigned Id;
  Module *Parent;
  std::vector<std::unique_ptr<Variable>> Vars;
  std::vector<Variable *> Params;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

/// A whole TinyC program: functions plus global memory objects.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  /// Creates a new function owned by this module.
  Function *createFunction(std::string Name);

  /// Creates a new abstract memory object owned by this module.
  MemObject *createObject(std::string Name, Region R,
                          unsigned NumFields, bool Initialized, bool IsArray);

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Funcs;
  }
  const std::vector<std::unique_ptr<MemObject>> &objects() const {
    return Objects;
  }

  /// Looks up a function by name; returns null if absent.
  Function *findFunction(const std::string &Name) const;

  /// Looks up a global object by name; returns null if absent.
  MemObject *findGlobal(const std::string &Name) const;

  /// Assigns module-unique dense ids to every instruction, in layout
  /// order. Analyses key their side tables on these ids.
  void renumber();

  /// Removes the given objects (e.g. after mem2reg promotion) and
  /// renumbers the remaining objects' ids. The caller guarantees no
  /// instruction references a removed object.
  void purgeObjects(const std::function<bool(const MemObject *)> &ShouldDrop);

  /// Total number of instructions in the module (valid after renumber()).
  unsigned instructionCount() const { return NumInsts; }

  /// Prints the whole module in parseable TinyC syntax.
  void print(raw_ostream &OS) const;

private:
  std::vector<std::unique_ptr<Function>> Funcs;
  std::vector<std::unique_ptr<MemObject>> Objects;
  unsigned NumInsts = 0;
};

} // namespace ir
} // namespace usher

#endif // USHER_IR_IR_H
