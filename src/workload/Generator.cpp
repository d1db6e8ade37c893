//===- workload/Generator.cpp - Random TinyC program generator -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "workload/Generator.h"

#include "ir/IR.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/RNG.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <string>
#include <vector>

using namespace usher;
using namespace usher::workload;
using namespace usher::ir;

namespace {

/// Longest trip count of a generated counted loop.
constexpr unsigned MaxLoopTrip = 6;
/// Percentage of allocations left uninitialized.
constexpr unsigned UninitAllocPercent = 45;
/// Percentage of statements that read a possibly-undefined variable.
constexpr unsigned UndefUsePercent = 12;

/// Object layouts the generator allocates. Field 0 is always an integer;
/// when a layout has a pointer slot it is the last field, pointing to the
/// layout one level down (bounded chains, so generation terminates).
struct Shape {
  unsigned NumFields;
  int PtrSlot;       ///< Field index holding a pointer, or -1.
  unsigned Pointee;  ///< Shape index the pointer slot points to.
};

/// What a pointer-typed variable points at.
enum class PtrKind : uint8_t {
  None,      ///< Integer-typed variable.
  ObjBase,   ///< Base of an object with a known shape.
  IntCell,   ///< A single integer field.
  PtrCell    ///< A single pointer field (pointee shape known).
};

struct VarInfo {
  Variable *V;
  PtrKind Kind = PtrKind::None;
  unsigned Shape = 0;   ///< For ObjBase: own shape; for PtrCell: pointee.
  bool NeedsGuard = false; ///< Pointer loaded from memory: may be null.
  bool MaybeUndef = false; ///< Integer that may be undefined.
};

struct FnPlan {
  Function *F = nullptr;
  std::vector<int> ParamShape; ///< -1 = integer parameter.
  int RetShape = -1;           ///< -1 = integer return (or -2 = void).
  bool WrapperStyle = false;
};

class Generator {
public:
  Generator(uint64_t Seed, const GeneratorOptions &Opts)
      : Rng(Seed), Opts(Opts), M(std::make_unique<Module>()), B(*M) {}

  std::unique_ptr<Module> run();

private:
  // -- Variable pool helpers ----------------------------------------------
  Variable *freshVar(const std::string &Hint) {
    return CurFn->F->createVariable(Hint + std::to_string(VarCounter++));
  }
  VarInfo &defineInt(Variable *V, bool MaybeUndef) {
    Pool.push_back({V, PtrKind::None, 0, false, MaybeUndef});
    return Pool.back();
  }
  VarInfo &definePtr(Variable *V, PtrKind K, unsigned Shape,
                     bool NeedsGuard) {
    Pool.push_back({V, K, Shape, NeedsGuard, false});
    return Pool.back();
  }

  /// A random integer operand; sometimes a possibly-undefined variable.
  Operand intOperand();
  /// A random integer variable matching \p WantUndef, or null.
  Variable *pickIntVar(bool AllowUndef);
  /// A random pointer variable satisfying \p Pred, or null.
  template <typename PredT> const VarInfo *pickPtr(PredT Pred);

  /// Ensures a dereferenceable ObjBase pointer of \p Shape exists,
  /// allocating one if necessary.
  const VarInfo *ensureObjPtr(unsigned Shape);

  // -- Emission ------------------------------------------------------------
  void emitStraightStmt();
  void emitAlloc(bool ForceHeap = false);
  void emitGuardedDeref(const VarInfo &P);
  void emitNestedFieldChain();
  void emitPointerWalkLoop();
  void emitSegment(unsigned Depth);
  void emitBody(const FnPlan &Plan);
  void emitWrapperBody(const FnPlan &Plan);
  void emitRet(const FnPlan &Plan);
  void emitCall(bool WantResult);

  BasicBlock *newBlock(const std::string &Hint) {
    return CurFn->F->createBlock(Hint + std::to_string(BlockCounter++));
  }

  RNG Rng;
  GeneratorOptions Opts;
  std::unique_ptr<Module> M;
  IRBuilder B;

  std::vector<Shape> Shapes;
  std::vector<FnPlan> Plans;
  FnPlan *CurFn = nullptr;
  size_t CurFnIndex = 0; ///< Callees must have a smaller index.
  std::vector<VarInfo> Pool;
  unsigned VarCounter = 0, BlockCounter = 0, ObjCounter = 0;
};

} // namespace

Operand Generator::intOperand() {
  if (Rng.chance(30))
    return Operand::constant(Rng.range(-8, 64));
  if (Variable *V = pickIntVar(Rng.chance(UndefUsePercent)))
    return Operand::var(V);
  return Operand::constant(Rng.range(0, 9));
}

Variable *Generator::pickIntVar(bool AllowUndef) {
  std::vector<const VarInfo *> Candidates;
  for (const VarInfo &VI : Pool)
    if (VI.Kind == PtrKind::None && (AllowUndef || !VI.MaybeUndef))
      Candidates.push_back(&VI);
  if (Candidates.empty())
    return nullptr;
  return Candidates[Rng.below(Candidates.size())]->V;
}

template <typename PredT> const VarInfo *Generator::pickPtr(PredT Pred) {
  std::vector<const VarInfo *> Candidates;
  for (const VarInfo &VI : Pool)
    if (VI.Kind != PtrKind::None && Pred(VI))
      Candidates.push_back(&VI);
  if (Candidates.empty())
    return nullptr;
  return Candidates[Rng.below(Candidates.size())];
}

const VarInfo *Generator::ensureObjPtr(unsigned Shape) {
  const VarInfo *Existing = pickPtr([&](const VarInfo &VI) {
    return VI.Kind == PtrKind::ObjBase && VI.Shape == Shape &&
           !VI.NeedsGuard;
  });
  if (Existing)
    return Existing;
  const struct Shape &S = Shapes[Shape];
  Variable *P = freshVar("p");
  bool Uninit = Rng.chance(UninitAllocPercent);
  B.createAlloc(P, Rng.chance(50) ? Region::Heap : Region::Stack,
                S.NumFields, !Uninit, /*IsArray=*/false,
                "obj" + std::to_string(ObjCounter++));
  definePtr(P, PtrKind::ObjBase, Shape, false);
  return &Pool.back();
}

void Generator::emitAlloc(bool ForceHeap) {
  unsigned Shape = static_cast<unsigned>(Rng.below(Shapes.size()));
  const struct Shape &S = Shapes[Shape];
  Variable *P = freshVar("p");
  bool Uninit = Rng.chance(UninitAllocPercent);
  bool IsArray = !ForceHeap && S.PtrSlot < 0 && Rng.chance(15);
  B.createAlloc(P,
                ForceHeap || Rng.chance(40) ? Region::Heap : Region::Stack,
                S.NumFields, !Uninit, IsArray,
                "obj" + std::to_string(ObjCounter++));
  definePtr(P, PtrKind::ObjBase, Shape, false);
}

void Generator::emitGuardedDeref(const VarInfo &P) {
  // if p goto use; goto join; use: x = *p; goto join; join:
  assert(P.NeedsGuard && "guard emitted for a safe pointer");
  BasicBlock *UseBB = newBlock("use");
  BasicBlock *JoinBB = newBlock("join");
  B.createCondBr(Operand::var(P.V), UseBB, JoinBB);
  B.setInsertPoint(UseBB);
  Variable *X = freshVar("g");
  B.createLoad(X, Operand::var(P.V));
  // The loaded value's type depends on what the pointer targets; treat
  // object bases and int cells as integers (field 0 is always an int).
  B.createGoto(JoinBB);
  B.setInsertPoint(JoinBB);
  if (P.Kind == PtrKind::PtrCell) {
    // *p is itself a pointer (or null/undefined): needs its own guard.
    definePtr(X, PtrKind::ObjBase, P.Shape, /*NeedsGuard=*/true);
  } else {
    defineInt(X, /*MaybeUndef=*/true);
  }
}

void Generator::emitNestedFieldChain() {
  // Descend a pointer-slot chain: gep the slot, store a fresh pointee so
  // the reload is non-null, reload, and gep the *loaded* base again. The
  // final field access sits on a base the VFG can only reach through
  // LoadDef nodes — a value-flow pattern the other emitters never build.
  unsigned ShapeIdx = 2; // Two pointer levels: guarantees >= 1 descent.
  Variable *Base = ensureObjPtr(ShapeIdx)->V;
  while (Shapes[ShapeIdx].PtrSlot >= 0) {
    const struct Shape &S = Shapes[ShapeIdx];
    unsigned Pointee = S.Pointee;
    Variable *Slot = freshVar("nf");
    B.createFieldAddr(Slot, Operand::var(Base),
                      static_cast<unsigned>(S.PtrSlot));
    definePtr(Slot, PtrKind::PtrCell, Pointee, false);
    Variable *Inner = ensureObjPtr(Pointee)->V;
    B.createStore(Operand::var(Slot), Operand::var(Inner));
    Variable *Loaded = freshVar("nl");
    B.createLoad(Loaded, Operand::var(Slot));
    // The store above dominates the load with nothing in between: the
    // loaded pointer is the just-stored base and needs no null guard.
    definePtr(Loaded, PtrKind::ObjBase, Pointee, false);
    Base = Loaded;
    ShapeIdx = Pointee;
    if (!Rng.chance(70))
      break;
  }
  Variable *FieldP = freshVar("ni");
  B.createFieldAddr(FieldP, Operand::var(Base), 0u); // Field 0: always int.
  definePtr(FieldP, PtrKind::IntCell, 0, false);
  Variable *X = freshVar("nx");
  B.createLoad(X, Operand::var(FieldP));
  defineInt(X, /*MaybeUndef=*/true);
}

void Generator::emitPointerWalkLoop() {
  // A counter-bounded loop whose body advances a pointer through an
  // array: `x = *p; p = gep p, 1;`. The induction pointer is reassigned
  // every iteration, so it stays out of the pool — other emitters must
  // not capture a mid-walk value.
  int64_t Trip = Rng.range(2, MaxLoopTrip);
  Variable *P = freshVar("wp");
  bool Uninit = Rng.chance(UninitAllocPercent);
  B.createAlloc(P, Rng.chance(50) ? Region::Heap : Region::Stack,
                static_cast<unsigned>(Trip + 1), !Uninit, /*IsArray=*/true,
                "walk" + std::to_string(ObjCounter++));
  Variable *I = freshVar("wi");
  B.createCopy(I, Operand::constant(0));
  defineInt(I, false);
  BasicBlock *HeaderBB = newBlock("whead");
  BasicBlock *BodyBB = newBlock("wbody");
  BasicBlock *ExitBB = newBlock("wexit");
  B.createGoto(HeaderBB);
  B.setInsertPoint(HeaderBB);
  Variable *C = freshVar("wc");
  B.createBinOp(C, BinOpcode::CmpLT, Operand::var(I),
                Operand::constant(Trip));
  defineInt(C, false);
  B.createCondBr(Operand::var(C), BodyBB, ExitBB);
  B.setInsertPoint(BodyBB);
  Variable *X = freshVar("wx");
  B.createLoad(X, Operand::var(P));
  if (Rng.chance(50))
    B.createStore(Operand::var(P), intOperand());
  B.createFieldAddr(P, Operand::var(P), 1u);
  B.createBinOp(I, BinOpcode::Add, Operand::var(I), Operand::constant(1));
  B.createGoto(HeaderBB);
  B.setInsertPoint(ExitBB);
  // Trip >= 2, so the body always ran and X holds the last cell read —
  // undefined whenever the array was allocated uninitialized.
  defineInt(X, /*MaybeUndef=*/true);
}

void Generator::emitStraightStmt() {
  switch (Rng.below(11)) {
  case 0: { // Constant copy.
    Variable *X = freshVar("c");
    B.createCopy(X, Operand::constant(Rng.range(-4, 99)));
    defineInt(X, false);
    break;
  }
  case 1: { // Variable copy (int or pointer).
    if (Rng.chance(35)) {
      if (const VarInfo *P = pickPtr([](const VarInfo &) { return true; })) {
        Variable *X = freshVar("q");
        B.createCopy(X, Operand::var(P->V));
        definePtr(X, P->Kind, P->Shape, P->NeedsGuard);
        break;
      }
    }
    if (Variable *Y = pickIntVar(Rng.chance(UndefUsePercent))) {
      Variable *X = freshVar("v");
      B.createCopy(X, Operand::var(Y));
      defineInt(X, false); // May dynamically hold an undefined value.
    }
    break;
  }
  case 2: { // Binary operation.
    static const BinOpcode Ops[] = {
        BinOpcode::Add, BinOpcode::Sub,   BinOpcode::Mul,   BinOpcode::And,
        BinOpcode::Or,  BinOpcode::Xor,   BinOpcode::Shr,   BinOpcode::CmpEQ,
        BinOpcode::CmpLT, BinOpcode::Rem, BinOpcode::CmpGE, BinOpcode::Div};
    Variable *X = freshVar("t");
    B.createBinOp(X, Ops[Rng.below(std::size(Ops))], intOperand(),
                  intOperand());
    defineInt(X, false);
    break;
  }
  case 3:
    emitAlloc();
    break;
  case 4: { // Field address (constant or masked dynamic index).
    const VarInfo *P = pickPtr([](const VarInfo &VI) {
      return VI.Kind == PtrKind::ObjBase && !VI.NeedsGuard;
    });
    if (!P)
      break;
    // Copy what we need: define*() below may reallocate the pool.
    Variable *BaseVar = P->V;
    const struct Shape &S = Shapes[P->Shape];
    Variable *Q = freshVar("f");
    if (S.PtrSlot < 0 && S.NumFields >= 2 && Rng.chance(30)) {
      // Dynamic index, masked below the largest power of two that fits,
      // so it stays in bounds even when the index value is undefined.
      unsigned Mask = 1;
      while (Mask * 2 <= S.NumFields)
        Mask *= 2;
      Variable *Idx = freshVar("ix");
      B.createBinOp(Idx, BinOpcode::And, intOperand(),
                    Operand::constant(static_cast<int64_t>(Mask - 1)));
      defineInt(Idx, false);
      B.createFieldAddr(Q, Operand::var(BaseVar), Operand::var(Idx));
      definePtr(Q, PtrKind::IntCell, 0, false);
      break;
    }
    unsigned Field = static_cast<unsigned>(Rng.below(S.NumFields));
    B.createFieldAddr(Q, Operand::var(BaseVar), Field);
    if (S.PtrSlot >= 0 && Field == static_cast<unsigned>(S.PtrSlot))
      definePtr(Q, PtrKind::PtrCell, S.Pointee, false);
    else
      definePtr(Q, PtrKind::IntCell, 0, false);
    break;
  }
  case 5: { // Load.
    const VarInfo *P =
        pickPtr([](const VarInfo &VI) { return !VI.NeedsGuard; });
    if (!P)
      break;
    if (P->Kind == PtrKind::PtrCell) {
      Variable *X = freshVar("l");
      B.createLoad(X, Operand::var(P->V));
      definePtr(X, PtrKind::ObjBase, P->Shape, /*NeedsGuard=*/true);
    } else {
      Variable *X = freshVar("l");
      B.createLoad(X, Operand::var(P->V));
      defineInt(X, false); // Oracle decides actual definedness.
    }
    break;
  }
  case 6:
  case 7: { // Store.
    const VarInfo *P =
        pickPtr([](const VarInfo &VI) { return !VI.NeedsGuard; });
    if (!P)
      break;
    if (P->Kind == PtrKind::PtrCell) {
      // Store a pointer of the matching shape (loads re-check with a
      // guard, so a guarded pointer value is fine to store).
      const VarInfo *V = pickPtr([&](const VarInfo &VI) {
        return VI.Kind == PtrKind::ObjBase && VI.Shape == P->Shape;
      });
      if (V)
        B.createStore(Operand::var(P->V), Operand::var(V->V));
      else
        B.createStore(Operand::var(P->V), Operand::constant(0));
    } else {
      B.createStore(Operand::var(P->V), intOperand());
    }
    break;
  }
  case 8: { // Guarded dereference of a loaded pointer.
    const VarInfo *P =
        pickPtr([](const VarInfo &VI) { return VI.NeedsGuard; });
    if (P) {
      VarInfo Copy = *P; // emitGuardedDeref may grow the pool.
      emitGuardedDeref(Copy);
    }
    break;
  }
  case 9: { // A fresh, never-assigned integer (undefined until written).
    Variable *X = freshVar("u");
    defineInt(X, /*MaybeUndef=*/true);
    break;
  }
  case 10: { // Take the address of a global object (always shape 0).
    const auto &Objects = M->objects();
    std::vector<MemObject *> Globals;
    for (const auto &Obj : Objects)
      if (Obj->isGlobal())
        Globals.push_back(Obj.get());
    if (Globals.empty())
      break;
    MemObject *G = Globals[Rng.below(Globals.size())];
    Variable *P = freshVar("gp");
    B.createCopy(P, Operand::global(G));
    definePtr(P, PtrKind::ObjBase, 0, false);
    break;
  }
  }
}

void Generator::emitCall(bool WantResult) {
  if (CurFnIndex == 0)
    return;
  const FnPlan &Callee = Plans[Rng.below(CurFnIndex)];
  std::vector<Operand> Args;
  for (int PS : Callee.ParamShape) {
    if (PS < 0) {
      Args.push_back(intOperand());
    } else {
      const VarInfo *P = ensureObjPtr(static_cast<unsigned>(PS));
      Args.push_back(Operand::var(P->V));
    }
  }
  Variable *Def = nullptr;
  if (WantResult && Callee.RetShape != -2)
    Def = freshVar("r");
  B.createCall(Def, Callee.F, std::move(Args));
  if (!Def)
    return;
  if (Callee.RetShape >= 0) {
    definePtr(Def, PtrKind::ObjBase, static_cast<unsigned>(Callee.RetShape),
              false);
    if (Rng.chance(50)) {
      // Field access straight off the call result: the gep's base is a
      // CallResult node, so the address flows out of the callee's VFG.
      Variable *FieldP = freshVar("cf");
      B.createFieldAddr(FieldP, Operand::var(Def), 0u);
      definePtr(FieldP, PtrKind::IntCell, 0, false);
      Variable *X = freshVar("cx");
      B.createLoad(X, Operand::var(FieldP));
      defineInt(X, /*MaybeUndef=*/true);
    }
  } else {
    defineInt(Def, false);
  }
}

void Generator::emitSegment(unsigned Depth) {
  unsigned NumKinds = Depth < 2 ? 5u : 2u;
  unsigned Kind = static_cast<unsigned>(Rng.below(NumKinds));
  switch (Kind) {
  case 0:
  case 1: { // Straight-line statements, with occasional calls.
    unsigned N = 1 + static_cast<unsigned>(
                         Rng.below(Opts.MaxStmtsPerSegment));
    for (unsigned I = 0; I != N; ++I) {
      if (Rng.chance(12))
        emitCall(Rng.chance(70));
      else if (Rng.chance(8))
        emitNestedFieldChain();
      else
        emitStraightStmt();
    }
    break;
  }
  case 2: { // If-diamond on a (possibly undefined) condition.
    Variable *C = pickIntVar(Rng.chance(UndefUsePercent));
    Operand Cond = C ? Operand::var(C) : intOperand();
    BasicBlock *ThenBB = newBlock("then");
    BasicBlock *ElseBB = newBlock("else");
    BasicBlock *JoinBB = newBlock("join");
    B.createCondBr(Cond, ThenBB, ElseBB);
    size_t PoolMark = Pool.size();
    B.setInsertPoint(ThenBB);
    emitSegment(Depth + 1);
    B.createGoto(JoinBB);
    // Variables defined inside one arm may be undefined along the other;
    // mark them so later uses know.
    for (size_t I = PoolMark; I != Pool.size(); ++I)
      if (Pool[I].Kind == PtrKind::None)
        Pool[I].MaybeUndef = true;
      else
        Pool[I].NeedsGuard = true;
    size_t ThenEnd = Pool.size();
    B.setInsertPoint(ElseBB);
    emitSegment(Depth + 1);
    B.createGoto(JoinBB);
    for (size_t I = ThenEnd; I != Pool.size(); ++I)
      if (Pool[I].Kind == PtrKind::None)
        Pool[I].MaybeUndef = true;
      else
        Pool[I].NeedsGuard = true;
    B.setInsertPoint(JoinBB);
    break;
  }
  case 3: { // Bounded counter loop.
    Variable *I = freshVar("i");
    B.createCopy(I, Operand::constant(0));
    defineInt(I, false);
    int64_t Trip = Rng.range(1, MaxLoopTrip);
    BasicBlock *HeaderBB = newBlock("head");
    BasicBlock *BodyBB = newBlock("body");
    BasicBlock *ExitBB = newBlock("exit");
    B.createGoto(HeaderBB);
    B.setInsertPoint(HeaderBB);
    Variable *C = freshVar("c");
    B.createBinOp(C, BinOpcode::CmpLT, Operand::var(I),
                  Operand::constant(Trip));
    defineInt(C, false);
    B.createCondBr(Operand::var(C), BodyBB, ExitBB);
    size_t PoolMark = Pool.size();
    B.setInsertPoint(BodyBB);
    emitSegment(Depth + 1);
    B.createBinOp(I, BinOpcode::Add, Operand::var(I), Operand::constant(1));
    B.createGoto(HeaderBB);
    // Loop-local definitions may not have happened yet on later reads
    // outside (or in the first iteration via back paths).
    for (size_t Idx = PoolMark; Idx != Pool.size(); ++Idx)
      if (Pool[Idx].Kind == PtrKind::None)
        Pool[Idx].MaybeUndef = true;
      else
        Pool[Idx].NeedsGuard = true;
    B.setInsertPoint(ExitBB);
    break;
  }
  case 4:
    emitPointerWalkLoop();
    break;
  }
}

void Generator::emitRet(const FnPlan &Plan) {
  if (Plan.RetShape == -2) {
    B.createRet(Operand());
    return;
  }
  if (Plan.RetShape >= 0) {
    const VarInfo *P = ensureObjPtr(static_cast<unsigned>(Plan.RetShape));
    B.createRet(Operand::var(P->V));
    return;
  }
  if (Variable *V = pickIntVar(/*AllowUndef=*/Rng.chance(20)))
    B.createRet(Operand::var(V));
  else
    B.createRet(Operand::constant(Rng.range(0, 9)));
}

void Generator::emitWrapperBody(const FnPlan &Plan) {
  // The classic xmalloc pattern: allocate, optionally fail, return.
  assert(Plan.RetShape >= 0 && "wrapper must return a pointer");
  const struct Shape &S = Shapes[Plan.RetShape];
  Variable *P = freshVar("p");
  bool Uninit = Rng.chance(70);
  B.createAlloc(P, Region::Heap, S.NumFields, !Uninit, false,
                "wrapobj" + std::to_string(ObjCounter++));
  definePtr(P, PtrKind::ObjBase, static_cast<unsigned>(Plan.RetShape),
            false);
  B.createRet(Operand::var(P));
}

void Generator::emitBody(const FnPlan &Plan) {
  Pool.clear();
  VarCounter = 0;
  BlockCounter = 0;
  B.setInsertPoint(Plan.F->createBlock("entry"));

  for (size_t Idx = 0; Idx != Plan.F->params().size(); ++Idx) {
    int PS = Plan.ParamShape[Idx];
    if (PS < 0)
      defineInt(Plan.F->params()[Idx], false);
    else
      definePtr(Plan.F->params()[Idx], PtrKind::ObjBase,
                static_cast<unsigned>(PS), false);
  }

  if (Plan.WrapperStyle) {
    emitWrapperBody(Plan);
    return;
  }

  unsigned Segments =
      1 + static_cast<unsigned>(Rng.below(Opts.MaxSegmentsPerFn));
  for (unsigned I = 0; I != Segments; ++I)
    emitSegment(0);
  emitRet(Plan);
}

std::unique_ptr<Module> Generator::run() {
  // Shape table: ints only, one pointer level, two pointer levels.
  Shapes.push_back({1 + static_cast<unsigned>(Rng.below(4)), -1, 0});
  Shapes.push_back(
      {2 + static_cast<unsigned>(Rng.below(3)),
       static_cast<int>(1 + Rng.below(2)), 0});
  Shapes[1].PtrSlot = static_cast<int>(Shapes[1].NumFields - 1);
  Shapes.push_back({3, 2, 1});

  // A couple of global objects, laid out like shape 0 (integers only) so
  // pointers to them can be field-addressed safely.
  unsigned NumGlobals = 1 + static_cast<unsigned>(Rng.below(3));
  for (unsigned I = 0; I != NumGlobals; ++I)
    M->createObject("g" + std::to_string(I), Region::Global,
                    Shapes[0].NumFields,
                    /*Initialized=*/Rng.chance(60), /*IsArray=*/false);

  // Plan the functions: callees first, main last.
  for (unsigned I = 0; I != Opts.NumFunctions; ++I) {
    FnPlan Plan;
    Plan.F = M->createFunction("f" + std::to_string(I));
    Plan.WrapperStyle = I == 0 && Rng.chance(60);
    unsigned NumParams =
        Plan.WrapperStyle ? 0 : static_cast<unsigned>(Rng.below(4));
    for (unsigned P = 0; P != NumParams; ++P) {
      bool IsPtr = Rng.chance(35);
      Plan.ParamShape.push_back(
          IsPtr ? static_cast<int>(Rng.below(Shapes.size())) : -1);
      Plan.F->createVariable("a" + std::to_string(P), /*IsParam=*/true);
    }
    if (Plan.WrapperStyle)
      Plan.RetShape = static_cast<int>(Rng.below(Shapes.size()));
    else if (Rng.chance(25))
      Plan.RetShape = static_cast<int>(Rng.below(Shapes.size()));
    else
      Plan.RetShape = Rng.chance(15) ? -2 : -1;
    Plans.push_back(Plan);
  }
  {
    FnPlan MainPlan;
    MainPlan.F = M->createFunction("main");
    MainPlan.RetShape = -1;
    Plans.push_back(MainPlan);
  }

  for (size_t I = 0; I != Plans.size(); ++I) {
    CurFn = &Plans[I];
    CurFnIndex = I;
    emitBody(Plans[I]);
  }

  M->renumber();
  verifyModuleOrAbort(*M);
  return std::move(M);
}

std::unique_ptr<Module> workload::generateProgram(uint64_t Seed,
                                                  GeneratorOptions Opts) {
  return Generator(Seed, Opts).run();
}

//===----------------------------------------------------------------------===//
// Text-level mutation API
//===----------------------------------------------------------------------===//

std::vector<std::string> workload::splitLines(const std::string &Source) {
  std::vector<std::string> Lines;
  std::string Cur;
  for (char C : Source) {
    if (C == '\n') {
      Lines.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Lines.push_back(Cur);
  return Lines;
}

std::string workload::joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

std::string workload::trimmedLine(const std::string &Line) {
  std::string S = Line.substr(0, Line.find("//"));
  size_t Begin = S.find_first_not_of(" \t");
  if (Begin == std::string::npos)
    return "";
  size_t End = S.find_last_not_of(" \t");
  return S.substr(Begin, End - Begin + 1);
}

namespace {

/// mutateProgram applies 1..MaxMutations point mutations per call.
constexpr unsigned MaxMutations = 3;

std::string stripComment(const std::string &Line) {
  size_t Pos = Line.find("//");
  return Pos == std::string::npos ? Line : Line.substr(0, Pos);
}

/// A statement line: ends in ';' and is not a declaration. Terminators
/// (goto / if / ret) count; mutations that break a block's structure
/// produce invalid mutants the caller's validity filter discards.
bool isStmtLine(const std::string &Line) {
  std::string T = trimmedLine(Line);
  return !T.empty() && T.back() == ';' && T.rfind("var ", 0) != 0 &&
         T.rfind("global ", 0) != 0;
}

std::vector<size_t> stmtIndexes(const std::vector<std::string> &Lines) {
  std::vector<size_t> Stmts;
  for (size_t I = 0; I != Lines.size(); ++I)
    if (isStmtLine(Lines[I]))
      Stmts.push_back(I);
  return Stmts;
}

/// Body line ranges [Begin, End) between each `func ... {` header and its
/// closing `}` (both at the printer's fixed layout).
struct FnRange {
  size_t Begin, End;
};

std::vector<FnRange> functionRanges(const std::vector<std::string> &Lines) {
  std::vector<FnRange> Ranges;
  size_t Start = 0;
  bool In = false;
  for (size_t I = 0; I != Lines.size(); ++I) {
    std::string T = trimmedLine(Lines[I]);
    if (!In && T.rfind("func ", 0) == 0 && !T.empty() && T.back() == '{') {
      In = true;
      Start = I + 1;
    } else if (In && T == "}") {
      Ranges.push_back({Start, I});
      In = false;
    }
  }
  return Ranges;
}

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

bool isTinyCKeyword(const std::string &T) {
  static const char *Keywords[] = {"alloc",  "stack", "heap", "init",
                                   "uninit", "array", "gep",  "goto",
                                   "if",     "ret",   "var",  "func",
                                   "global"};
  for (const char *K : Keywords)
    if (T == K)
      return true;
  return false;
}

/// Identifier tokens of \p Line that can be variable references: skips
/// keywords and call callees (tokens directly followed by '(').
std::vector<std::string> identTokens(const std::string &Line) {
  std::string S = stripComment(Line);
  std::vector<std::string> Out;
  for (size_t I = 0; I != S.size();) {
    if (std::isalpha(static_cast<unsigned char>(S[I])) || S[I] == '_') {
      size_t J = I;
      while (J != S.size() && isIdentChar(S[J]))
        ++J;
      std::string Tok = S.substr(I, J - I);
      size_t K = J;
      while (K != S.size() && S[K] == ' ')
        ++K;
      bool IsCallee = K != S.size() && S[K] == '(';
      if (!isTinyCKeyword(Tok) && !IsCallee)
        Out.push_back(Tok);
      I = J;
    } else {
      ++I;
    }
  }
  return Out;
}

} // namespace

std::string workload::mutateProgram(const std::string &Source,
                                    uint64_t Seed) {
  RNG Rng(Seed);
  std::vector<std::string> Lines = splitLines(Source);
  unsigned Count = 1 + static_cast<unsigned>(Rng.below(MaxMutations));
  for (unsigned K = 0; K != Count; ++K) {
    std::vector<size_t> Stmts = stmtIndexes(Lines);
    if (Stmts.empty())
      break;
    switch (Rng.below(6)) {
    case 0: { // Delete a statement (returns stay: every path needs one).
      size_t Idx = Stmts[Rng.below(Stmts.size())];
      if (trimmedLine(Lines[Idx]).rfind("ret", 0) != 0)
        Lines.erase(Lines.begin() + static_cast<std::ptrdiff_t>(Idx));
      break;
    }
    case 1: { // Duplicate a statement onto another statement position.
      size_t From = Stmts[Rng.below(Stmts.size())];
      size_t To = Stmts[Rng.below(Stmts.size())];
      std::string Copy = Lines[From];
      Lines.insert(Lines.begin() + static_cast<std::ptrdiff_t>(To),
                   std::move(Copy));
      break;
    }
    case 2: { // Swap two textually adjacent statements.
      if (Stmts.size() < 2)
        break;
      size_t I = Rng.below(Stmts.size() - 1);
      std::swap(Lines[Stmts[I]], Lines[Stmts[I + 1]]);
      break;
    }
    case 3: { // Flip an allocation or global initializer.
      std::vector<size_t> Cands;
      for (size_t I = 0; I != Lines.size(); ++I) {
        std::string T = stripComment(Lines[I]);
        if (T.find(" uninit") != std::string::npos ||
            T.find(" init") != std::string::npos)
          Cands.push_back(I);
      }
      if (Cands.empty())
        break;
      std::string &L = Lines[Cands[Rng.below(Cands.size())]];
      size_t Pos = L.find(" uninit");
      if (Pos != std::string::npos) {
        L.replace(Pos, 7, " init");
      } else if ((Pos = L.find(" init")) != std::string::npos) {
        L.replace(Pos, 5, " uninit");
      }
      break;
    }
    case 4: { // Perturb an integer literal.
      size_t Idx = Stmts[Rng.below(Stmts.size())];
      std::string S = stripComment(Lines[Idx]);
      std::vector<std::pair<size_t, size_t>> Runs; // (pos, len)
      for (size_t I = 0; I != S.size();) {
        if (std::isdigit(static_cast<unsigned char>(S[I]))) {
          size_t J = I;
          while (J != S.size() &&
                 std::isdigit(static_cast<unsigned char>(S[J])))
            ++J;
          // Skip digits glued to an identifier (the 3 of "then3").
          if (I == 0 || !isIdentChar(S[I - 1]))
            Runs.push_back({I, J - I});
          I = J;
        } else {
          ++I;
        }
      }
      if (Runs.empty())
        break;
      auto [Pos, Len] = Runs[Rng.below(Runs.size())];
      static const int64_t Pool[] = {0, 1, 2, 3, 7, 63};
      S.replace(Pos, Len, std::to_string(Pool[Rng.below(std::size(Pool))]));
      Lines[Idx] = S;
      break;
    }
    case 5: { // Re-assign an existing variable with a constant: overwrites
              // shift definedness without changing the program's shape.
      std::vector<size_t> Defs;
      for (size_t I : Stmts) {
        std::string T = trimmedLine(Lines[I]);
        size_t Eq = T.find(" = ");
        if (Eq == std::string::npos || T[0] == '*')
          continue;
        std::string Name = T.substr(0, Eq);
        if (!Name.empty() &&
            std::all_of(Name.begin(), Name.end(), isIdentChar) &&
            !isTinyCKeyword(Name))
          Defs.push_back(I);
      }
      if (Defs.empty())
        break;
      size_t Idx = Defs[Rng.below(Defs.size())];
      std::string T = trimmedLine(Lines[Idx]);
      std::string Name = T.substr(0, T.find(" = "));
      Lines.insert(Lines.begin() + static_cast<std::ptrdiff_t>(Idx) + 1,
                   "  " + Name + " = " + std::to_string(Rng.range(-4, 99)) +
                       ";");
      break;
    }
    }
  }
  return joinLines(Lines);
}

std::string workload::spliceProgram(const std::string &Receiver,
                                    const std::string &Donor, uint64_t Seed) {
  RNG Rng(Seed);
  std::vector<std::string> RLines = splitLines(Receiver);
  std::vector<std::string> DLines = splitLines(Donor);

  // Donor candidates: plain statements only. Control flow would dangle
  // (labels don't travel) and calls rarely match the receiver's function
  // signatures, so both are excluded up front instead of being generated
  // and thrown away by the caller's validity filter.
  auto IsSpliceable = [&](size_t I) {
    if (!isStmtLine(DLines[I]))
      return false;
    std::string T = trimmedLine(DLines[I]);
    return T.find("goto") == std::string::npos && T.rfind("ret", 0) != 0 &&
           T.find('(') == std::string::npos;
  };
  std::vector<size_t> Cands;
  for (size_t I = 0; I != DLines.size(); ++I)
    if (IsSpliceable(I))
      Cands.push_back(I);
  if (Cands.empty())
    return Receiver;

  // A contiguous run of 1..4 spliceable lines, re-indented, locs dropped.
  size_t Start = Cands[Rng.below(Cands.size())];
  size_t MaxLen = 1 + Rng.below(4);
  std::vector<std::string> Run;
  std::vector<std::string> Used;
  for (size_t I = Start; I != DLines.size() && Run.size() < MaxLen; ++I) {
    if (!IsSpliceable(I))
      break;
    Run.push_back("  " + trimmedLine(DLines[I]));
    for (std::string &Tok : identTokens(DLines[I]))
      Used.push_back(std::move(Tok));
  }

  // Insert after a random statement of a random receiver function (after
  // a statement == inside a block, so no label bookkeeping is needed).
  std::vector<FnRange> Ranges = functionRanges(RLines);
  if (Ranges.empty())
    return Receiver;
  FnRange R = Ranges[Rng.below(Ranges.size())];
  std::vector<size_t> RStmts;
  for (size_t I = R.Begin; I != R.End; ++I)
    if (isStmtLine(RLines[I]))
      RStmts.push_back(I);
  if (RStmts.empty())
    return Receiver;
  size_t At = RStmts[Rng.below(RStmts.size())];

  // Names already visible at the insertion point: the function's params
  // (header line), its `var` line, and the globals.
  std::vector<std::string> Declared;
  if (R.Begin > 0)
    for (std::string &Tok : identTokens(RLines[R.Begin - 1]))
      Declared.push_back(std::move(Tok));
  size_t VarLine = ~size_t(0);
  for (size_t I = R.Begin; I != R.End; ++I)
    if (trimmedLine(RLines[I]).rfind("var ", 0) == 0) {
      VarLine = I;
      for (std::string &Tok : identTokens(RLines[I]))
        Declared.push_back(std::move(Tok));
      break;
    }
  for (const std::string &L : RLines) {
    if (trimmedLine(L).rfind("global ", 0) != 0)
      continue;
    for (std::string &Tok : identTokens(L))
      Declared.push_back(std::move(Tok));
  }
  std::vector<std::string> Missing;
  for (const std::string &Name : Used)
    if (std::find(Declared.begin(), Declared.end(), Name) == Declared.end() &&
        std::find(Missing.begin(), Missing.end(), Name) == Missing.end())
      Missing.push_back(Name);

  RLines.insert(RLines.begin() + static_cast<std::ptrdiff_t>(At) + 1,
                Run.begin(), Run.end());
  if (!Missing.empty()) {
    std::string Decl;
    for (const std::string &Name : Missing)
      Decl += ", " + Name;
    if (VarLine != ~size_t(0)) {
      size_t Semi = RLines[VarLine].rfind(';');
      if (Semi != std::string::npos)
        RLines[VarLine].insert(Semi, Decl);
    } else {
      // "  var a, b;" from ", a, b".
      RLines.insert(RLines.begin() + static_cast<std::ptrdiff_t>(R.Begin),
                    "  var " + Decl.substr(2) + ";");
    }
  }
  return joinLines(RLines);
}

std::string workload::wrapMainInCall(const std::string &Source) {
  std::vector<std::string> Lines = splitLines(Source);
  size_t HeaderIdx = ~size_t(0);
  for (size_t I = 0; I != Lines.size(); ++I)
    if (trimmedLine(Lines[I]).rfind("func main(", 0) == 0) {
      HeaderIdx = I;
      break;
    }
  if (HeaderIdx == ~size_t(0))
    return "";
  std::string Name = "um_wrap";
  for (unsigned N = 0; Source.find(Name) != std::string::npos; ++N)
    Name = "um_wrap" + std::to_string(N);
  size_t Pos = Lines[HeaderIdx].find("main");
  Lines[HeaderIdx].replace(Pos, 4, Name);
  Lines.push_back("");
  Lines.push_back("func main() {");
  Lines.push_back("  var wret;");
  Lines.push_back("entry:");
  Lines.push_back("  wret = " + Name + "();");
  Lines.push_back("  ret wret;");
  Lines.push_back("}");
  return joinLines(Lines);
}
