//===- runtime/Interpreter.cpp - Shadow-memory interpreter ------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "ir/IR.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

using namespace usher;
using namespace usher::runtime;
using namespace usher::ir;
using core::InstrumentationPlan;
using core::ShadowOp;
using core::ShadowVal;

/// Concrete allocations one execution may make before it traps.
static constexpr size_t MaxInstances = 4'000'000;

bool ExecutionReport::toolWarnedAt(const Instruction *I) const {
  for (const Warning &W : ToolWarnings)
    if (W.At == I)
      return true;
  return false;
}

namespace {

/// A runtime value: a 64-bit integer or a typed pointer (instance, field).
struct Value {
  int64_t Int = 0;
  bool IsPtr = false;
  uint32_t Inst = 0;
  uint32_t Field = 0;

  static Value integer(int64_t N) {
    Value V;
    V.Int = N;
    return V;
  }
  static Value pointer(uint32_t Inst, uint32_t Field) {
    Value V;
    V.IsPtr = true;
    V.Inst = Inst;
    V.Field = Field;
    return V;
  }
};

/// One concrete allocation of an abstract object.
struct Instance {
  const MemObject *Obj;
  std::vector<Value> Cells;
  /// Tool shadows, one plane per executing plan (plan-maintained).
  std::vector<std::vector<uint8_t>> Shadow;
  std::vector<uint8_t> Oracle; ///< Ground-truth definedness.
};

/// One activation record.
struct Frame {
  const Function *Fn = nullptr;
  uint32_t Block = 0;
  uint32_t Index = 0;
  bool ResumeAfterCall = false;
  std::vector<Value> Vars;
  /// Variable shadows, one plane per executing plan.
  std::vector<std::vector<uint8_t>> Shadow;
  std::vector<uint8_t> Oracle;
};

} // namespace

class Interpreter::Impl {
public:
  Impl(const Module &M, std::vector<PlanExec> Plans, CostModel Model,
       ExecLimits Limits)
      : M(M), Plans(std::move(Plans)), Model(Model), Limits(Limits) {}

  ExecutionReport run();

private:
  // -- Shadow helpers -----------------------------------------------------
  bool evalShadow(const Frame &F, size_t P, const ShadowVal &SV) const {
    return SV.IsLiteral ? SV.Literal : F.Shadow[P][SV.Var->getId()] != 0;
  }
  bool runOps(size_t P, const std::vector<ShadowOp> &Ops, Frame &F,
              const Instruction *At);
  bool runBefore(const Instruction *I, Frame &F) {
    for (size_t P = 0; P != Plans.size(); ++P)
      if (!runOps(P, Plans[P].Plan->before(I), F, I))
        return false;
    return true;
  }
  bool runAfter(const Instruction *I, Frame &F) {
    for (size_t P = 0; P != Plans.size(); ++P)
      if (!runOps(P, Plans[P].Plan->after(I), F, I))
        return false;
    return true;
  }
  bool runEntry(const Function *Fn, Frame &F, const Instruction *At) {
    for (size_t P = 0; P != Plans.size(); ++P)
      if (!runOps(P, Plans[P].Plan->entry(Fn), F, At))
        return false;
    return true;
  }

  // -- Base semantics -----------------------------------------------------
  Value evalOperand(const Frame &F, const Operand &Op) const;
  bool oracleOf(const Frame &F, const Operand &Op) const {
    return Op.isVar() ? F.Oracle[Op.getVar()->getId()] != 0 : true;
  }
  Value applyBinOp(BinOpcode Op, const Value &A, const Value &B) const;

  bool trap(const std::string &Msg) {
    Report.Reason = ExitReason::Trap;
    Report.TrapMessage = Msg;
    return false;
  }

  /// Resolves a pointer operand to a valid (instance, field); traps
  /// otherwise.
  bool resolve(const Frame &F, const Operand &Op, uint32_t &Inst,
               uint32_t &Field);

  void warnTool(size_t P, const Instruction *I) { ++ToolWarnCounts[P][I]; }
  void warnOracle(const Instruction *I) { ++OracleWarnCounts[I]; }

  bool pushFrame(const Function *Fn);
  bool step();

  const Module &M;
  std::vector<PlanExec> Plans;
  CostModel Model;
  ExecLimits Limits;

  std::vector<Instance> Instances;
  std::unordered_map<const MemObject *, uint32_t> GlobalInstances;
  std::vector<Frame> Frames;

  // Shadow transfer registers (sigma_g), one bank per plan.
  std::vector<std::vector<uint8_t>> ArgShadow;
  std::vector<uint8_t> RetShadow;
  // Base-value transfer for returns.
  Value RetVal;
  bool RetOracle = true;

  ExecutionReport Report;
  std::vector<std::map<const Instruction *, uint64_t>> ToolWarnCounts;
  std::map<const Instruction *, uint64_t> OracleWarnCounts;
  bool Done = false;
};

Value Interpreter::Impl::evalOperand(const Frame &F, const Operand &Op) const {
  switch (Op.getKind()) {
  case Operand::Kind::Const:
    return Value::integer(Op.getConst());
  case Operand::Kind::Var:
    return F.Vars[Op.getVar()->getId()];
  case Operand::Kind::Global:
    return Value::pointer(GlobalInstances.at(Op.getGlobal()), 0);
  case Operand::Kind::None:
    break;
  }
  return Value::integer(0);
}

Value Interpreter::Impl::applyBinOp(BinOpcode Op, const Value &A,
                                    const Value &B) const {
  // Pointers order by (instance, field) and never equal plain integers;
  // arithmetic degrades them to a deterministic integer encoding.
  auto Key = [](const Value &V) -> int64_t {
    if (!V.IsPtr)
      return V.Int;
    return (1LL << 62) + (static_cast<int64_t>(V.Inst) << 24) + V.Field;
  };
  int64_t X = Key(A), Y = Key(B);
  switch (Op) {
  case BinOpcode::Add:
    return Value::integer(static_cast<int64_t>(
        static_cast<uint64_t>(X) + static_cast<uint64_t>(Y)));
  case BinOpcode::Sub:
    return Value::integer(static_cast<int64_t>(
        static_cast<uint64_t>(X) - static_cast<uint64_t>(Y)));
  case BinOpcode::Mul:
    return Value::integer(static_cast<int64_t>(
        static_cast<uint64_t>(X) * static_cast<uint64_t>(Y)));
  case BinOpcode::Div:
    return Value::integer(Y == 0 ? 0 : X / Y);
  case BinOpcode::Rem:
    return Value::integer(Y == 0 ? 0 : X % Y);
  case BinOpcode::And:
    return Value::integer(X & Y);
  case BinOpcode::Or:
    return Value::integer(X | Y);
  case BinOpcode::Xor:
    return Value::integer(X ^ Y);
  case BinOpcode::Shl:
    return Value::integer(static_cast<int64_t>(static_cast<uint64_t>(X)
                                               << (Y & 63)));
  case BinOpcode::Shr:
    return Value::integer(
        static_cast<int64_t>(static_cast<uint64_t>(X) >> (Y & 63)));
  case BinOpcode::CmpEQ:
    return Value::integer(X == Y);
  case BinOpcode::CmpNE:
    return Value::integer(X != Y);
  case BinOpcode::CmpLT:
    return Value::integer(X < Y);
  case BinOpcode::CmpLE:
    return Value::integer(X <= Y);
  case BinOpcode::CmpGT:
    return Value::integer(X > Y);
  case BinOpcode::CmpGE:
    return Value::integer(X >= Y);
  }
  return Value::integer(0);
}

bool Interpreter::Impl::resolve(const Frame &F, const Operand &Op,
                                uint32_t &Inst, uint32_t &Field) {
  Value P = evalOperand(F, Op);
  if (!P.IsPtr)
    return trap("dereference of a non-pointer value");
  if (P.Inst >= Instances.size())
    return trap("dereference of a dangling pointer");
  if (P.Field >= Instances[P.Inst].Cells.size())
    return trap("field access out of range");
  Inst = P.Inst;
  Field = P.Field;
  return true;
}

bool Interpreter::Impl::runOps(size_t P, const std::vector<ShadowOp> &Ops,
                               Frame &F, const Instruction *At) {
  PlanReport &PR = Report.PlanResults[P];
  for (const ShadowOp &Op : Ops) {
    size_t Cells = 1;
    switch (Op.K) {
    case ShadowOp::Kind::SetVar:
      F.Shadow[P][Op.Dst->getId()] = evalShadow(F, P, Op.Srcs[0]);
      break;
    case ShadowOp::Kind::AndVar: {
      bool V = true;
      for (const ShadowVal &SV : Op.Srcs)
        V = V && evalShadow(F, P, SV);
      F.Shadow[P][Op.Dst->getId()] = V;
      break;
    }
    case ShadowOp::Kind::SetMemCell: {
      uint32_t Inst, Field;
      if (!resolve(F, Op.Ptr, Inst, Field))
        return false;
      Instances[Inst].Shadow[P][Field] = evalShadow(F, P, Op.Srcs[0]);
      break;
    }
    case ShadowOp::Kind::SetMemObject: {
      uint32_t Inst, Field;
      if (!resolve(F, Op.Ptr, Inst, Field))
        return false;
      Instance &In = Instances[Inst];
      Cells = In.Shadow[P].size();
      bool V = evalShadow(F, P, Op.Srcs[0]);
      for (uint8_t &S : In.Shadow[P])
        S = V;
      break;
    }
    case ShadowOp::Kind::LoadMem: {
      uint32_t Inst, Field;
      if (!resolve(F, Op.Ptr, Inst, Field))
        return false;
      F.Shadow[P][Op.Dst->getId()] = Instances[Inst].Shadow[P][Field];
      break;
    }
    case ShadowOp::Kind::ArgOut:
      if (Op.Index >= ArgShadow[P].size())
        ArgShadow[P].resize(Op.Index + 1, 1);
      ArgShadow[P][Op.Index] = evalShadow(F, P, Op.Srcs[0]);
      break;
    case ShadowOp::Kind::ParamIn:
      F.Shadow[P][Op.Dst->getId()] =
          Op.Index < ArgShadow[P].size() ? ArgShadow[P][Op.Index] : 1;
      break;
    case ShadowOp::Kind::RetOut:
      RetShadow[P] = evalShadow(F, P, Op.Srcs[0]);
      break;
    case ShadowOp::Kind::RetIn:
      F.Shadow[P][Op.Dst->getId()] = RetShadow[P];
      break;
    case ShadowOp::Kind::Check:
      ++PR.DynChecks;
      PR.ShadowCost += Model.shadowCost(Op, Cells);
      if (!evalShadow(F, P, Op.Srcs[0]))
        warnTool(P, At);
      continue;
    case ShadowOp::Kind::CheckBounds: {
      // Spatial-safety check: reads the concrete pointer value, never a
      // shadow, and never traps — an out-of-range pointer is the finding,
      // not an execution error.
      ++PR.DynChecks;
      PR.ShadowCost += Model.shadowCost(Op, Cells);
      Value Ptr = evalOperand(F, Op.Ptr);
      if (Ptr.IsPtr && (Ptr.Inst >= Instances.size() ||
                        Ptr.Field >= Instances[Ptr.Inst].Cells.size()))
        warnTool(P, At);
      continue;
    }
    }
    ++PR.DynShadowOps;
    PR.ShadowCost += Model.shadowCost(Op, Cells);
  }
  return true;
}

bool Interpreter::Impl::pushFrame(const Function *Fn) {
  if (Frames.size() >= Limits.MaxCallDepth)
    return trap("call depth limit exceeded");
  if (Limits.CollectCoverage &&
      Frames.size() + 1 > Report.MaxFrameDepth)
    Report.MaxFrameDepth = static_cast<uint32_t>(Frames.size() + 1);
  Frames.emplace_back();
  Frame &F = Frames.back();
  F.Fn = Fn;
  F.Block = Fn->getEntry()->getId();
  F.Index = 0;
  F.Vars.resize(Fn->variables().size());
  F.Shadow.resize(Plans.size());
  for (size_t P = 0; P != Plans.size(); ++P)
    F.Shadow[P].assign(Fn->variables().size(),
                       Plans[P].Sem.FrameInit ? 1 : 0);
  F.Oracle.assign(Fn->variables().size(), 0);
  return true;
}

bool Interpreter::Impl::step() {
  Frame &F = Frames.back();
  const BasicBlock *BB = F.Fn->blocks()[F.Block].get();
  assert(F.Index < BB->size() && "fell off the end of a block");
  const Instruction *I = BB->instructions()[F.Index].get();

  // Resuming after a call: the return value is already bound; run the
  // call's after-instrumentation and advance.
  if (F.ResumeAfterCall) {
    F.ResumeAfterCall = false;
    if (!runAfter(I, F))
      return false;
    ++F.Index;
    return true;
  }

  if (++Report.Steps > Limits.MaxSteps) {
    Report.Reason = ExitReason::StepLimit;
    return false;
  }
  // Cooperative interrupt poll, rate-limited so the common case stays one
  // untaken branch per step.
  if (Limits.Interrupt && (Report.Steps & 0xFFF) == 0 &&
      Limits.Interrupt->load(std::memory_order_relaxed)) {
    Report.Reason = ExitReason::Interrupted;
    return false;
  }
  Report.BaseCost += Model.baseCost(*I);

  if (!runBefore(I, F))
    return false;

  bool Advance = true;
  switch (I->getKind()) {
  case Instruction::IKind::Copy: {
    const auto *C = cast<CopyInst>(I);
    F.Vars[I->getDef()->getId()] = evalOperand(F, C->getSrc());
    F.Oracle[I->getDef()->getId()] = oracleOf(F, C->getSrc());
    break;
  }
  case Instruction::IKind::BinOp: {
    const auto *B = cast<BinOpInst>(I);
    F.Vars[I->getDef()->getId()] =
        applyBinOp(B->getOpcode(), evalOperand(F, B->getLHS()),
                   evalOperand(F, B->getRHS()));
    F.Oracle[I->getDef()->getId()] =
        oracleOf(F, B->getLHS()) && oracleOf(F, B->getRHS());
    break;
  }
  case Instruction::IKind::Alloc: {
    const auto *A = cast<AllocInst>(I);
    if (Instances.size() >= MaxInstances)
      return trap("allocation limit exceeded");
    const MemObject *Obj = A->getObject();
    Instances.emplace_back();
    Instance &In = Instances.back();
    In.Obj = Obj;
    In.Cells.assign(Obj->getNumFields(), Value::integer(0));
    // Tool shadows default to "good"; any allocation whose state can
    // matter to a client is instrumented with an explicit SetMemObject.
    In.Shadow.resize(Plans.size());
    for (size_t P = 0; P != Plans.size(); ++P)
      In.Shadow[P].assign(Obj->getNumFields(), 1);
    In.Oracle.assign(Obj->getNumFields(), Obj->isInitialized() ? 1 : 0);
    F.Vars[I->getDef()->getId()] =
        Value::pointer(static_cast<uint32_t>(Instances.size() - 1), 0);
    F.Oracle[I->getDef()->getId()] = 1;
    break;
  }
  case Instruction::IKind::FieldAddr: {
    const auto *FA = cast<FieldAddrInst>(I);
    Value Base = evalOperand(F, FA->getBase());
    if (!Base.IsPtr)
      return trap("gep on a non-pointer value");
    Value Index = evalOperand(F, FA->getIndex());
    if (Index.IsPtr)
      return trap("gep with a pointer-valued index");
    if (Index.Int < 0)
      return trap("gep with a negative index");
    F.Vars[I->getDef()->getId()] = Value::pointer(
        Base.Inst, Base.Field + static_cast<uint32_t>(Index.Int));
    F.Oracle[I->getDef()->getId()] =
        oracleOf(F, FA->getBase()) && oracleOf(F, FA->getIndex());
    break;
  }
  case Instruction::IKind::Load: {
    const auto *L = cast<LoadInst>(I);
    if (!oracleOf(F, L->getPtr()))
      warnOracle(I);
    uint32_t Inst, Field;
    if (!resolve(F, L->getPtr(), Inst, Field))
      return false;
    F.Vars[I->getDef()->getId()] = Instances[Inst].Cells[Field];
    F.Oracle[I->getDef()->getId()] = Instances[Inst].Oracle[Field];
    break;
  }
  case Instruction::IKind::Store: {
    const auto *St = cast<StoreInst>(I);
    if (!oracleOf(F, St->getPtr()))
      warnOracle(I);
    uint32_t Inst, Field;
    if (!resolve(F, St->getPtr(), Inst, Field))
      return false;
    Instances[Inst].Cells[Field] = evalOperand(F, St->getValue());
    Instances[Inst].Oracle[Field] = oracleOf(F, St->getValue());
    break;
  }
  case Instruction::IKind::Call: {
    const auto *C = cast<CallInst>(I);
    const Function *Callee = C->getCallee();
    std::vector<Value> Args;
    std::vector<uint8_t> ArgOracles;
    for (const Operand &Arg : C->getArgs()) {
      Args.push_back(evalOperand(F, Arg));
      ArgOracles.push_back(oracleOf(F, Arg));
    }
    F.ResumeAfterCall = true;
    if (!pushFrame(Callee))
      return false;
    Frame &NewF = Frames.back();
    for (size_t Idx = 0; Idx != Args.size(); ++Idx) {
      const Variable *P = Callee->params()[Idx];
      NewF.Vars[P->getId()] = Args[Idx];
      NewF.Oracle[P->getId()] = ArgOracles[Idx];
    }
    if (!runEntry(Callee, NewF, I))
      return false;
    return true; // Control continues in the callee.
  }
  case Instruction::IKind::CondBr: {
    const auto *B = cast<CondBrInst>(I);
    if (B->getCond().isVar() && !oracleOf(F, B->getCond()))
      warnOracle(I);
    Value Cond = evalOperand(F, B->getCond());
    bool Taken = Cond.IsPtr || Cond.Int != 0;
    uint32_t Target = (Taken ? B->getTrueBB() : B->getFalseBB())->getId();
    if (Limits.CollectCoverage)
      ++Report.EdgeHits[edgeKey(F.Fn->getId(), F.Block, Target)];
    F.Block = Target;
    F.Index = 0;
    Advance = false;
    break;
  }
  case Instruction::IKind::Goto: {
    uint32_t Target = cast<GotoInst>(I)->getTarget()->getId();
    if (Limits.CollectCoverage)
      ++Report.EdgeHits[edgeKey(F.Fn->getId(), F.Block, Target)];
    F.Block = Target;
    F.Index = 0;
    Advance = false;
    break;
  }
  case Instruction::IKind::Ret: {
    const auto *R = cast<RetInst>(I);
    if (R->getValue().isNone()) {
      RetVal = Value::integer(0);
      RetOracle = false; // Capturing a void return is undefined.
    } else {
      RetVal = evalOperand(F, R->getValue());
      RetOracle = oracleOf(F, R->getValue());
    }
    Frames.pop_back();
    if (Frames.empty()) {
      Report.MainResult = RetVal.IsPtr ? 0 : RetVal.Int;
      Done = true;
      return false;
    }
    Frame &Caller = Frames.back();
    const BasicBlock *CallerBB = Caller.Fn->blocks()[Caller.Block].get();
    const Instruction *CallI = CallerBB->instructions()[Caller.Index].get();
    if (const Variable *Def = CallI->getDef()) {
      Caller.Vars[Def->getId()] = RetVal;
      Caller.Oracle[Def->getId()] = RetOracle;
    }
    return true; // Caller resumes via ResumeAfterCall.
  }
  }

  if (!runAfter(I, F))
    return false;
  if (Advance)
    ++F.Index;
  return true;
}

ExecutionReport Interpreter::Impl::run() {
  Report = ExecutionReport();
  Report.Reason = ExitReason::Finished;
  Report.PlanResults.resize(Plans.size());
  ArgShadow.assign(Plans.size(), {});
  RetShadow.assign(Plans.size(), 1);
  ToolWarnCounts.assign(Plans.size(), {});

  // Instantiate globals. Their shadows are initialized statically (shadow
  // memory of globals is set up at link time in a real MSan pipeline), so
  // this costs nothing at run time.
  for (const auto &Obj : M.objects()) {
    if (!Obj->isGlobal())
      continue;
    Instances.emplace_back();
    Instance &In = Instances.back();
    In.Obj = Obj.get();
    In.Cells.assign(Obj->getNumFields(), Value::integer(0));
    In.Shadow.resize(Plans.size());
    for (size_t P = 0; P != Plans.size(); ++P)
      In.Shadow[P].assign(Obj->getNumFields(),
                          Plans[P].Sem.GlobalsFromInit
                              ? (Obj->isInitialized() ? 1 : 0)
                              : 1);
    In.Oracle.assign(Obj->getNumFields(), Obj->isInitialized() ? 1 : 0);
    GlobalInstances[Obj.get()] = static_cast<uint32_t>(Instances.size() - 1);
  }

  const Function *Main = M.findFunction("main");
  assert(Main && "module has no main (verifier should have caught this)");
  if (!pushFrame(Main))
    return Report;
  if (!runEntry(Main, Frames.back(), nullptr))
    return Report;

  while (!Done && step()) {
  }

  // The count maps are keyed by pointer; emit the warnings in program
  // order (module-unique instruction ids), not heap-layout order, so the
  // report is stable across runs and processes.
  auto ById = [](const Warning &A, const Warning &B) {
    return A.At->getId() < B.At->getId();
  };
  for (size_t P = 0; P != Plans.size(); ++P) {
    PlanReport &PR = Report.PlanResults[P];
    for (const auto &[I, N] : ToolWarnCounts[P])
      PR.ToolWarnings.push_back({I, N});
    std::sort(PR.ToolWarnings.begin(), PR.ToolWarnings.end(), ById);
    // Legacy aggregates: plan 0's warnings, summed counters. A single-plan
    // run sums exactly one addend, so its report is bit-identical to the
    // pre-framework interpreter's.
    Report.DynShadowOps += PR.DynShadowOps;
    Report.DynChecks += PR.DynChecks;
    Report.ShadowCost += PR.ShadowCost;
  }
  if (!Plans.empty())
    Report.ToolWarnings = Report.PlanResults[0].ToolWarnings;
  for (const auto &[I, N] : OracleWarnCounts)
    Report.OracleWarnings.push_back({I, N});
  std::sort(Report.OracleWarnings.begin(), Report.OracleWarnings.end(), ById);
  return Report;
}

static std::vector<PlanExec> singlePlan(const InstrumentationPlan *Plan) {
  std::vector<PlanExec> Plans;
  if (Plan)
    Plans.push_back({Plan, core::ShadowSemantics()});
  return Plans;
}

Interpreter::Interpreter(const Module &M, const InstrumentationPlan *Plan,
                         CostModel Model, ExecLimits Limits)
    : PImpl(std::make_unique<Impl>(M, singlePlan(Plan), Model, Limits)) {}

Interpreter::Interpreter(const Module &M, std::vector<PlanExec> Plans,
                         CostModel Model, ExecLimits Limits)
    : PImpl(std::make_unique<Impl>(M, std::move(Plans), Model, Limits)) {}

Interpreter::~Interpreter() = default;

ExecutionReport Interpreter::run() { return PImpl->run(); }
