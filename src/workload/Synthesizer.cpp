//===- workload/Synthesizer.cpp - Whole-program workload synthesizer ------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
//
// Program layout. A synthesized program is a layered call DAG of "tree"
// functions t<level>_<w> (Depth levels of constant width W), Rings
// mutual-recursion rings k<r>_<m> (fuel-bounded), and a driver main:
//
//   main -> t0_0 .. t0_{W-1}           (one call per level-0 function)
//        -> k0_0, k1_0, ...            (one call per ring entry)
//   t<l>_<w> -> t<l+1>_{(w+j) % W}     (j = 0..Fanout-1, distinct, so the
//                                       acyclic depth is exactly Depth and
//                                       every function is reachable)
//   k<r>_<m> -> k<r>_{(m+1) % RingSize} (one SCC per ring)
//
// Two init globals, gdone and gres, memoize the tree bodies: a body that
// finds its done-flag set skips straight to reloading its cached result,
// so each body executes exactly once and dynamic cost is linear in the
// static size even though the DAG has Fanout^Depth paths.
//
// Every function body is rendered by a PRNG seeded from (Spec.Seed,
// function index) alone, so no body depends on the ones emitted before it.
//
//===----------------------------------------------------------------------===//

#include "workload/Synthesizer.h"

#include "analysis/CallGraph.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "support/RNG.h"
#include "support/RawStream.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

using namespace usher;
using namespace usher::workload;

namespace {

//===----------------------------------------------------------------------===//
// Size planning
//===----------------------------------------------------------------------===//

/// VFG nodes the full pipeline builds per emitted statement, measured via
/// `usher-cli --stats` on default-shape programs across the size range
/// (SynthesizerTest pins the dial within a factor-of-two band). Stable to
/// within ~10% from ~4k to ~500k nodes once bodies are capped at
/// MaxStmtsPerFn; very small programs (bodies far below the cap) land
/// under target, inside the band.
constexpr double NodesPerStmt = 19.6;

/// Bodies past this size stop looking like functions and start looking
/// like one giant block — and memory-SSA/VFG cost per function grows
/// superlinearly in body size (objects x merge points), which would bend
/// the node dial. Grow the level width instead.
constexpr unsigned MaxStmtsPerFn = 60;
constexpr unsigned MinStmtsPerFn = 10;

/// Fields of every call-argument allocation (the synthesized ABI): each
/// callee may gep fields 0..AbiFields-1 of its pointer parameter.
constexpr unsigned AbiFields = 4;

struct Plan {
  unsigned W = 1;        ///< Level width.
  unsigned Depth = 1;    ///< Tree levels.
  unsigned Fanout = 1;   ///< Distinct callees per non-leaf tree function.
  unsigned Rings = 0;
  unsigned RingSize = 1;
  unsigned NumTree = 1;  ///< W * Depth.
  unsigned NumRing = 0;  ///< Rings * RingSize.
  unsigned StmtsPerFn = MinStmtsPerFn;
};

Plan planFromSpec(const ShapeSpec &Spec) {
  Plan P;
  P.Depth = std::max(Spec.CallDepth, 1u);
  P.Fanout = std::max(Spec.Fanout, 1u);
  P.Rings = Spec.RecursionRings;
  P.RingSize = std::max(Spec.RingSize, 1u);
  P.NumRing = P.Rings * P.RingSize;

  uint64_t TotalStmts = std::max<uint64_t>(
      static_cast<uint64_t>(Spec.TargetNodes / NodesPerStmt), 96);

  // Narrowest width that honors Fanout (callees must be distinct), then
  // widen until bodies fit under MaxStmtsPerFn.
  P.W = std::max(P.Fanout, 2u);
  uint64_t Funcs = uint64_t(P.W) * P.Depth + P.NumRing + 1;
  if (TotalStmts / Funcs > MaxStmtsPerFn) {
    uint64_t NeedFuncs = TotalStmts / MaxStmtsPerFn + 1;
    uint64_t NeedW = NeedFuncs > P.NumRing + 1
                         ? (NeedFuncs - P.NumRing - 1 + P.Depth - 1) / P.Depth
                         : 1;
    P.W = std::max<unsigned>(P.W, static_cast<unsigned>(NeedW));
    Funcs = uint64_t(P.W) * P.Depth + P.NumRing + 1;
  }
  P.NumTree = P.W * P.Depth;
  P.StmtsPerFn = static_cast<unsigned>(std::clamp<uint64_t>(
      TotalStmts / Funcs, MinStmtsPerFn, MaxStmtsPerFn));
  return P;
}

//===----------------------------------------------------------------------===//
// Body generation
//===----------------------------------------------------------------------===//

std::string treeName(unsigned Level, unsigned W) {
  return "t" + std::to_string(Level) + "_" + std::to_string(W);
}
std::string ringName(unsigned Ring, unsigned Member) {
  return "k" + std::to_string(Ring) + "_" + std::to_string(Member);
}

/// Renders one function body. Tracks just enough state to stay trap-free:
/// which integers are definitely defined, which may be undefined, and
/// which pointers are safe to dereference (own allocations and pointers
/// reloaded from a cell a dominating store just wrote).
class BodyGen {
public:
  BodyGen(const ShapeSpec &Spec, uint64_t FnSalt)
      : Spec(Spec), R(Spec.Seed * 0x9E3779B97F4A7C15ULL +
                      (FnSalt + 1) * 0x6A09E667F3BCC909ULL) {}

  std::string Out;

  void line(const std::string &S) { Out += "  " + S + "\n"; }
  void label(const std::string &L) { Out += L + ":\n"; }

  std::string freshVar() { return "v" + std::to_string(NextVar++); }
  std::string freshLabel() { return "L" + std::to_string(NextLabel++); }

  /// Seeds the defined-value pool; call once per body before filling.
  void seedDefined() {
    std::string Z = freshVar();
    line(Z + " = " + std::to_string(R.range(1, 9)) + ";");
    Defined.push_back(Z);
  }

  void noteDefined(const std::string &V) { Defined.push_back(V); }
  void noteMaybeUndef(const std::string &V) { MaybeUndef.push_back(V); }

  /// A defined integer operand: an existing defined variable or a literal.
  std::string pickDefined() {
    if (Defined.empty() || R.chance(25))
      return std::to_string(R.range(0, 99));
    return Defined[R.below(Defined.size())];
  }

  /// Loads field \p Field of pointer variable \p Ptr into a fresh var.
  std::string emitLoad(const std::string &Ptr, unsigned Field, bool Def) {
    std::string A = freshVar(), X = freshVar();
    line(A + " = gep " + Ptr + ", " + std::to_string(Field) + ";");
    line(X + " = *" + A + ";");
    if (Def)
      Defined.push_back(X);
    else
      MaybeUndef.push_back(X);
    return X;
  }

  /// Emits approximately \p Budget statements of mixed pointer and
  /// integer work. Never emits a branch on a possibly-undefined value
  /// when Spec.DefineAll (those diamonds are the only warning sources).
  void fill(unsigned Budget) {
    unsigned Emitted = 0;
    while (Emitted < Budget) {
      if (R.chance(Spec.PtrDensityPercent))
        Emitted += emitPtrStmt(Budget - Emitted);
      else
        Emitted += emitIntStmt(Budget - Emitted);
    }
  }

  /// True with the spec's uninit probability — except under DefineAll,
  /// where every allocation is initialized.
  bool drawUninit() {
    return !Spec.DefineAll && R.chance(Spec.UninitAllocPercent);
  }

private:
  struct PtrInfo {
    std::string Name;
    unsigned Fields;
    bool Init;
    uint32_t StoredMask; ///< Fields a dominating store defined.
  };

  unsigned emitIntStmt(unsigned Remaining) {
    unsigned Kind = static_cast<unsigned>(R.below(10));
    // Undef-use diamond: the `if` on a possibly-undefined value is the
    // critical operation the oracle reports.
    if (Kind < 2 && !Spec.DefineAll && !MaybeUndef.empty()) {
      std::string U = MaybeUndef[R.below(MaybeUndef.size())];
      std::string X = freshVar(), L = freshLabel();
      line(X + " = " + pickDefined() + ";");
      line("if " + U + " goto " + L + ";");
      line(X + " = " + X + " + " + std::to_string(R.range(1, 9)) + ";");
      label(L);
      Defined.push_back(X);
      return 3;
    }
    if (Kind < 4 && Remaining >= 6) {
      // Counter-bounded loop around a couple of masking ops.
      std::string I = freshVar(), C = freshVar(), B = freshVar();
      std::string L = freshLabel();
      int64_t Trip = R.range(2, 4);
      line(I + " = 0;");
      line(B + " = " + pickDefined() + ";");
      label(L);
      line(B + " = " + B + " ^ " + std::to_string(R.range(1, 255)) + ";");
      line(I + " = " + I + " + 1;");
      line(C + " = " + I + " < " + std::to_string(Trip) + ";");
      line("if " + C + " goto " + L + ";");
      Defined.push_back(B);
      return 6;
    }
    std::string X = freshVar();
    if (Kind < 7) {
      static const char *Ops[] = {"&", "|", "^", "<", "<=", "==", "!="};
      const char *Op = Ops[R.below(7)];
      line(X + " = " + pickDefined() + " " + Op + " " + pickDefined() + ";");
    } else {
      // Additive step with a small literal keeps magnitudes bounded
      // (general var+var sums could double along a chain).
      const char *Op = R.chance(50) ? " + " : " - ";
      line(X + " = " + pickDefined() + Op + std::to_string(R.range(1, 16)) +
           ";");
    }
    Defined.push_back(X);
    return 1;
  }

  unsigned emitPtrStmt(unsigned Remaining) {
    unsigned Kind = static_cast<unsigned>(R.below(100));
    if (Ptrs.empty() || Kind < 25)
      return emitAlloc();
    if (Kind < 50)
      return emitStore();
    if (Kind < 75)
      return emitFieldLoad();
    if (Spec.FieldChainDepth > 0 && Remaining >= 3 * Spec.FieldChainDepth + 4)
      return emitChain();
    return emitStore();
  }

  unsigned emitAlloc() {
    PtrInfo P;
    P.Name = freshVar();
    P.Fields = static_cast<unsigned>(R.range(1, 4));
    P.Init = !drawUninit();
    P.StoredMask = 0;
    line(P.Name + " = alloc " + (R.chance(40) ? "heap " : "stack ") +
         std::to_string(P.Fields) + (P.Init ? " init;" : " uninit;"));
    Ptrs.push_back(P);
    return 1;
  }

  unsigned emitStore() {
    PtrInfo &P = Ptrs[R.below(Ptrs.size())];
    unsigned F = static_cast<unsigned>(R.below(P.Fields));
    std::string A = freshVar();
    line(A + " = gep " + P.Name + ", " + std::to_string(F) + ";");
    line("*" + A + " = " + pickDefined() + ";");
    P.StoredMask |= 1u << F;
    return 2;
  }

  unsigned emitFieldLoad() {
    PtrInfo &P = Ptrs[R.below(Ptrs.size())];
    unsigned F = static_cast<unsigned>(R.below(P.Fields));
    emitLoad(P.Name, F, P.Init || (P.StoredMask & (1u << F)));
    return 2;
  }

  /// A linked descent: store a fresh node's address into the current
  /// node, reload it (a LoadDef-reached base in the VFG), and gep the
  /// loaded pointer again. The reloaded pointer is always valid — the
  /// store dominates the load — so the deref cannot trap even when the
  /// nodes themselves are uninitialized.
  unsigned emitChain() {
    unsigned Depth = static_cast<unsigned>(
        R.range(1, static_cast<int64_t>(Spec.FieldChainDepth)));
    std::string Head = freshVar();
    bool HeadInit = !drawUninit();
    line(Head + " = alloc stack 2" + (HeadInit ? " init;" : " uninit;"));
    std::string Cur = Head;
    unsigned N = 1;
    bool LastInit = HeadInit;
    for (unsigned K = 0; K != Depth; ++K) {
      std::string Node = freshVar();
      LastInit = !drawUninit();
      line(Node + " = alloc stack 2" + (LastInit ? " init;" : " uninit;"));
      std::string S = freshVar();
      line(S + " = gep " + Cur + ", 0;");
      line("*" + S + " = " + Node + ";");
      std::string Ld = freshVar(), Q = freshVar();
      line(Ld + " = gep " + Cur + ", 0;");
      line(Q + " = *" + Ld + ";");
      Cur = Q;
      N += 5;
    }
    // Tail access through the reloaded base: field 1 was never stored,
    // so its definedness is the last node's init flag.
    emitLoad(Cur, 1, LastInit);
    Ptrs.push_back({Cur, 2, LastInit, 0});
    return N + 2;
  }

  const ShapeSpec &Spec;
  RNG R;
  unsigned NextVar = 0;
  unsigned NextLabel = 0;
  std::vector<std::string> Defined;
  std::vector<std::string> MaybeUndef;
  std::vector<PtrInfo> Ptrs;
};

/// One tree function: memo-guarded body, filler, Fanout child calls each
/// handed a fresh ABI allocation, cached result in gres.
std::string emitTreeFunction(const ShapeSpec &Spec, const Plan &P,
                             unsigned Level, unsigned Wi) {
  unsigned Idx = Level * P.W + Wi;
  BodyGen G(Spec, Idx);
  bool Leaf = Level + 1 == P.Depth;
  unsigned CallOverhead = Leaf ? 0 : P.Fanout * 6;
  unsigned Overhead = 14 + CallOverhead;
  unsigned Filler =
      P.StmtsPerFn > Overhead + 4 ? P.StmtsPerFn - Overhead : 4;

  G.Out += "func " + treeName(Level, Wi) + "(p, d) {\n";
  // Memo guard: gdone/gres are init globals, so the guard itself never
  // branches on an undefined value.
  std::string M0 = G.freshVar(), M1 = G.freshVar();
  G.line(M0 + " = gep gdone, " + std::to_string(Idx) + ";");
  G.line(M1 + " = *" + M0 + ";");
  G.line("if " + M1 + " goto Ld;");
  G.seedDefined();
  G.line("acc = d;");
  G.noteDefined("acc");
  // Interprocedural flow in: the caller's argument allocation may be
  // uninitialized, so this load is the cross-function undef source.
  G.emitLoad("p", Idx % AbiFields, Spec.DefineAll);
  G.fill(Filler);
  if (!Leaf) {
    for (unsigned J = 0; J != P.Fanout; ++J) {
      unsigned Child = (Wi + J) % P.W;
      std::string A = G.freshVar(), S = G.freshVar(), Rv = G.freshVar();
      G.line(A + " = alloc stack " + std::to_string(AbiFields) +
             (G.drawUninit() ? " uninit;" : " init;"));
      G.line(S + " = gep " + A + ", " + std::to_string(J % AbiFields) + ";");
      G.line("*" + S + " = " + G.pickDefined() + ";");
      G.line(Rv + " = " + treeName(Level + 1, Child) + "(" + A + ", acc);");
      G.line("acc = acc + " + Rv + ";");
    }
    // Mask after the summation chain so values stay well inside int64
    // over any Depth/Fanout the spec can request.
    G.line("acc = acc & 1048575;");
  }
  std::string D0 = G.freshVar(), R0 = G.freshVar();
  G.line(D0 + " = gep gres, " + std::to_string(Idx) + ";");
  G.line("*" + D0 + " = acc;");
  G.line(M0 + " = gep gdone, " + std::to_string(Idx) + ";");
  G.line("*" + M0 + " = 1;");
  G.label("Ld");
  G.line(R0 + " = gep gres, " + std::to_string(Idx) + ";");
  G.line("rv = *" + R0 + ";");
  G.line("ret rv;");
  G.Out += "}\n";
  return G.Out;
}

/// One ring member: fuel-bounded recursion into the next member (the
/// ring is one call-graph SCC), with its own filler on the descent path.
std::string emitRingFunction(const ShapeSpec &Spec, const Plan &P,
                             unsigned Ring, unsigned Member) {
  unsigned Idx = P.NumTree + Ring * P.RingSize + Member;
  BodyGen G(Spec, Idx);
  unsigned Filler = std::min(P.StmtsPerFn, 60u);

  G.Out += "func " + ringName(Ring, Member) + "(p, fuel) {\n";
  std::string C = G.freshVar();
  G.line(C + " = fuel < 1;");
  G.line("if " + C + " goto Lb;");
  G.seedDefined();
  G.emitLoad("p", Member % AbiFields, Spec.DefineAll);
  G.fill(Filler);
  std::string Nf = G.freshVar(), Rv = G.freshVar();
  G.line(Nf + " = fuel - 1;");
  G.line(Rv + " = " + ringName(Ring, (Member + 1) % P.RingSize) + "(p, " +
         Nf + ");");
  G.line("rv = " + Rv + " + 1;");
  G.line("ret rv;");
  G.label("Lb");
  G.line("ret 0;");
  G.Out += "}\n";
  return G.Out;
}

/// The driver: calls every level-0 tree function and every ring entry,
/// each with its own ABI allocation, and returns the masked sum.
std::string emitMain(const ShapeSpec &Spec, const Plan &P) {
  BodyGen G(Spec, uint64_t(P.NumTree) + P.NumRing);
  G.Out += "func main() {\n";
  G.line("t = 0;");
  for (unsigned Wi = 0; Wi != P.W; ++Wi) {
    std::string A = G.freshVar(), S = G.freshVar(), Rv = G.freshVar();
    G.line(A + " = alloc stack " + std::to_string(AbiFields) +
           (G.drawUninit() ? " uninit;" : " init;"));
    G.line(S + " = gep " + A + ", " + std::to_string(Wi % AbiFields) + ";");
    G.line("*" + S + " = " + std::to_string(Wi + 1) + ";");
    G.line(Rv + " = " + treeName(0, Wi) + "(" + A + ", " +
           std::to_string(Wi + 1) + ");");
    G.line("t = t + " + Rv + ";");
    G.line("t = t & 1048575;");
  }
  for (unsigned Ri = 0; Ri != P.Rings; ++Ri) {
    std::string A = G.freshVar(), Rv = G.freshVar();
    G.line(A + " = alloc stack " + std::to_string(AbiFields) +
           (G.drawUninit() ? " uninit;" : " init;"));
    G.line(Rv + " = " + ringName(Ri, 0) + "(" + A + ", " +
           std::to_string(P.RingSize * 2) + ");");
    G.line("t = t + " + Rv + ";");
  }
  G.line("ret t;");
  G.Out += "}\n";
  return G.Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// synthesizeProgram
//===----------------------------------------------------------------------===//

std::string workload::synthesizeProgram(const ShapeSpec &Spec) {
  Plan P = planFromSpec(Spec);

  std::string Out;
  Out += "// synthesized: seed=" + std::to_string(Spec.Seed) +
         " target_nodes=" + std::to_string(Spec.TargetNodes) + " funcs=" +
         std::to_string(P.NumTree + P.NumRing + 1) + " stmts_per_fn=" +
         std::to_string(P.StmtsPerFn) + "\n";
  // `array` collapses each memo global to one field in the analysis:
  // without it, every call site grows a chi per field in the callee's
  // transitive mod-ref set — O(functions) per call, quadratic overall —
  // and the node dial stops being linear in the emitted statements.
  Out += "global gdone[" + std::to_string(P.NumTree) + "] init array;\n";
  Out += "global gres[" + std::to_string(P.NumTree) + "] init array;\n\n";

  for (unsigned I = 0; I != P.NumTree + P.NumRing; ++I) {
    if (I < P.NumTree)
      Out += emitTreeFunction(Spec, P, I / P.W, I % P.W);
    else
      Out += emitRingFunction(Spec, P, (I - P.NumTree) / P.RingSize,
                              (I - P.NumTree) % P.RingSize);
    Out += "\n";
  }
  Out += emitMain(Spec, P);
  return Out;
}

//===----------------------------------------------------------------------===//
// measureShape
//===----------------------------------------------------------------------===//

ShapeMetrics workload::measureShape(ir::Module &M) {
  ShapeMetrics Met;
  Met.NumFunctions = static_cast<unsigned>(M.functions().size());
  for (const auto &F : M.functions())
    Met.NumInstructions += F->instructionCount();

  uint64_t Uninit = 0, Allocs = 0;
  for (const auto &Obj : M.objects()) {
    if (Obj->isGlobal())
      continue;
    ++Allocs;
    Uninit += Obj->isInitialized() ? 0 : 1;
  }
  Met.UninitAllocFraction =
      Allocs ? static_cast<double>(Uninit) / static_cast<double>(Allocs) : 0;

  analysis::CallGraph CG(M);
  const auto &Sccs = CG.sccs();
  for (const auto &Scc : Sccs)
    if (CG.isRecursive(Scc.front()))
      ++Met.NontrivialSccs;

  // Longest acyclic path from main over the condensation. SCC ids are
  // reverse topological (callers have larger ids), so one descending
  // sweep relaxes every condensation edge in topological order.
  const ir::Function *Main = M.findFunction("main");
  if (Main) {
    constexpr int64_t Unreached = -1;
    std::vector<int64_t> Dist(Sccs.size(), Unreached);
    Dist[CG.sccId(Main)] = 0;
    int64_t Best = 0;
    for (unsigned S = static_cast<unsigned>(Sccs.size()); S-- != 0;) {
      if (Dist[S] == Unreached)
        continue;
      Best = std::max(Best, Dist[S]);
      for (const ir::Function *F : Sccs[S])
        for (const ir::Function *C : CG.calleesOf(F))
          if (CG.sccId(C) != S)
            Dist[CG.sccId(C)] = std::max(Dist[CG.sccId(C)], Dist[S] + 1);
    }
    Met.CallDepth = static_cast<unsigned>(Best);
  }

  // Fanout over functions outside recursive SCCs (ring members always
  // have exactly one callee — counting them would understate the dial),
  // excluding main (whose fanout is the level width by construction).
  uint64_t FanSum = 0, FanCnt = 0;
  for (const auto &F : M.functions()) {
    const auto &Callees = CG.calleesOf(F.get());
    if (F.get() == Main || Callees.empty() || CG.isRecursive(F.get()))
      continue;
    FanSum += Callees.size();
    ++FanCnt;
  }
  Met.AvgFanout =
      FanCnt ? static_cast<double>(FanSum) / static_cast<double>(FanCnt) : 0;
  return Met;
}

//===----------------------------------------------------------------------===//
// linkPrograms
//===----------------------------------------------------------------------===//

LinkedProgram workload::linkPrograms(const std::vector<LinkUnit> &Units,
                                     std::string *Error) {
  LinkedProgram LP;
  std::string Out;
  for (size_t I = 0; I != Units.size(); ++I) {
    std::string Prefix = "u" + std::to_string(I) + "_";
    parser::ParseResult PR = parser::parseModule(Units[I].Source);
    if (!PR.succeeded()) {
      if (Error) {
        *Error = "link: unit '" + Units[I].Name + "' failed to parse";
        if (!PR.Errors.empty())
          *Error += ": " + PR.Errors.front();
      }
      return {};
    }
    // The prefix map is injective across units ("u1_" is never a prefix
    // of another unit's prefix followed by more digits, because the char
    // after the digits is always '_'), so renamed symbols cannot collide.
    for (const auto &F : PR.M->functions())
      F->setName(Prefix + F->getName());
    for (const auto &Obj : PR.M->objects())
      if (Obj->isGlobal())
        Obj->setName(Prefix + Obj->getName());
    Out += "// unit " + std::to_string(I) + ": " + Units[I].Name + "\n";
    raw_string_ostream OS(Out);
    PR.M->print(OS);
    Out += "\n";
    LP.Prefixes.push_back(Prefix);
  }
  Out += "func main() {\n  t = 0;\n";
  for (size_t I = 0; I != Units.size(); ++I) {
    std::string Rv = "r" + std::to_string(I);
    Out += "  " + Rv + " = u" + std::to_string(I) + "_main();\n";
    Out += "  t = t + " + Rv + ";\n";
  }
  Out += "  ret t;\n}\n";
  LP.Source = std::move(Out);
  return LP;
}

std::string workload::warningSiteKey(const ir::Instruction *At,
                                     const std::string &StripPrefix) {
  const ir::BasicBlock *BB = At->getParent();
  const ir::Function *F = BB->getParent();
  std::string Fn = F->getName();
  if (!StripPrefix.empty() && Fn.rfind(StripPrefix, 0) == 0)
    Fn = Fn.substr(StripPrefix.size());
  size_t Idx = 0;
  for (const auto &I : BB->instructions()) {
    if (I.get() == At)
      break;
    ++Idx;
  }
  return Fn + ":" + BB->getName() + ":" + std::to_string(Idx);
}
