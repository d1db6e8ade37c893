//===- tests/DefinednessPlannerTest.cpp - Gamma, planner, Opt I/II ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

using namespace usher;
using core::ToolVariant;
using core::UsherOptions;
using core::UsherResult;

namespace {

UsherResult runOn(ir::Module &M, ToolVariant V, unsigned ContextK = 1) {
  UsherOptions Opts;
  Opts.Variant = V;
  Opts.ContextK = ContextK;
  return core::runUsher(M, Opts);
}

//===----------------------------------------------------------------------===//
// Definedness resolution
//===----------------------------------------------------------------------===//

TEST(Definedness, ConstantsAndAllocPointersAreDefined) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      x = 5;
      p = alloc heap 1 init;
      if x goto a;
      *p = 2;
    a:
      ret x;
    }
  )");
  UsherResult R = runOn(*M, ToolVariant::UsherFull);
  for (const vfg::VFG::CriticalUse &Use : R.G->criticalUses())
    EXPECT_TRUE(R.Gamma->isDefined(Use.Node))
        << "everything here is provably defined";
  EXPECT_EQ(R.Plan.countChecks(), 0u);
}

TEST(Definedness, UndefinedLocalReachesF) {
  // `u` is only assigned on a dead branch: its entry version is undefined
  // and merges into the use.
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      z = 0;
      if z goto setit;
      goto use;
    setit:
      u = 1;
    use:
      if u goto a;
      ret 0;
    a:
      ret 1;
    }
  )");
  UsherResult R = runOn(*M, ToolVariant::UsherFull);
  EXPECT_GE(R.Plan.countChecks(), 1u);
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
  EXPECT_EQ(Rep.ToolWarnings.size(), 1u);
}

/// One callee, two call sites: only one passes a possibly-undefined
/// argument. With call/return matching (k=1) the other call site's result
/// stays provably defined; context-insensitively (k=0) the undefinedness
/// smears across both.
const char *ContextSrc = R"(
  func id(v) { ret v; }
  func main() {
    z = 0;
    if z goto setit;
    goto next;
  setit:
    u = 1;
  next:
    d = 5;
    r1 = id(u);
    r2 = id(d);
    if r1 goto a;
    goto b;
  a:
    x = 0;
  b:
    if r2 goto c;
    ret 0;
  c:
    ret 1;
  }
)";

TEST(Definedness, CallSiteMatchingPreventsSmearing) {
  auto M = parser::parseModuleOrAbort(ContextSrc);
  UsherResult R = runOn(*M, ToolVariant::UsherFull, /*ContextK=*/1);
  // Only the r1 branch needs a check; r2 is provably defined.
  EXPECT_EQ(R.Plan.countChecks(), 1u);
}

TEST(Definedness, ContextInsensitiveResolutionSmears) {
  auto M = parser::parseModuleOrAbort(ContextSrc);
  UsherResult R = runOn(*M, ToolVariant::UsherFull, /*ContextK=*/0);
  // Without matching, the undefined value flows out of both call sites.
  EXPECT_EQ(R.Plan.countChecks(), 2u);
}

TEST(Definedness, UninitializedGlobalIsUndefinedUntilWritten) {
  auto M = parser::parseModuleOrAbort(R"(
    global g[1] uninit;
    func main() {
      p = g;
      x = *p;
      if x goto a;
      ret 0;
    a:
      ret 1;
    }
  )");
  UsherResult R = runOn(*M, ToolVariant::UsherFull);
  EXPECT_GE(R.Plan.countChecks(), 1u);
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
  EXPECT_EQ(Rep.ToolWarnings.size(), 1u);
  EXPECT_EQ(Rep.OracleWarnings.size(), 1u);
}

TEST(Definedness, InitializedGlobalNeedsNothing) {
  auto M = parser::parseModuleOrAbort(R"(
    global g[1] init;
    func main() {
      p = g;
      x = *p;
      if x goto a;
      ret 0;
    a:
      ret 1;
    }
  )");
  UsherResult R = runOn(*M, ToolVariant::UsherFull);
  EXPECT_EQ(R.Plan.countChecks(), 0u);
}

/// One callee called from \p UndefSites sites with a possibly-undefined
/// argument, then from one site with a defined one whose result is
/// branched on.
std::string manyCallSitesSrc(unsigned UndefSites) {
  std::string Src = R"(
    func id(v) { ret v; }
    func main() {
      z = 0;
      if z goto setit;
      goto next;
    setit:
      u = 1;
    next:
      d = 5;
  )";
  for (unsigned I = 0; I != UndefSites; ++I)
    Src += "  r" + std::to_string(I) + " = id(u);\n";
  Src += R"(
      rd = id(d);
      if rd goto a;
      ret 0;
    a:
      ret 1;
    }
  )";
  return Src;
}

/// The node of the version of \p Var in main that some statement defines.
uint32_t definedNode(const vfg::VFG &G, const std::string &Var) {
  for (uint32_t Id = 2; Id != G.numNodes(); ++Id) {
    const vfg::VFG::NodeData &N = G.node(Id);
    if (N.Def && N.Key.Sp == ssa::Space::TopLevel &&
        N.Fn->getName() == "main" &&
        N.Fn->variables()[N.Key.Id]->getName() == Var)
      return Id;
  }
  ADD_FAILURE() << "no defined node for " << Var;
  return vfg::VFG::RootT;
}

TEST(Definedness, ContextsSaturatePastTheCap) {
  // Below the cap of 64 contexts per representative, the callee's formal
  // carries one context per undefined call site and returns only through
  // those sites: rd stays defined.
  auto Few = parser::parseModuleOrAbort(manyCallSitesSrc(10));
  UsherResult RF = runOn(*Few, ToolVariant::UsherFull);
  EXPECT_TRUE(RF.Gamma->isDefined(definedNode(*RF.G, "rd")));
  EXPECT_EQ(RF.Plan.countChecks(), 0u);

  // With 70 sites the 65th context saturates the formal to the universal
  // context, which returns through every site: rd may be undefined. The
  // cap over-approximates, so the answer stays sound.
  auto Many = parser::parseModuleOrAbort(manyCallSitesSrc(70));
  UsherResult R = runOn(*Many, ToolVariant::UsherFull);
  const uint32_t Rd = definedNode(*R.G, "rd");
  EXPECT_TRUE(R.Gamma->mayBeUndefined(Rd));
  EXPECT_EQ(R.Plan.countChecks(), 1u);

  // Gamma at ContextK 1, pinned: F, u's entry version and its phi at
  // `next`, the formal, the 70 undefined results and rd.
  core::Definedness Gamma(*R.G, core::DefinednessOptions());
  EXPECT_EQ(Gamma.numUndefinedNodes(), 75u);
  // States: F, u's entry version and phi; the formal in 64 contexts plus
  // the universal one it saturates to; the 71 results, each reached in
  // the empty context.
  EXPECT_EQ(Gamma.numStates(), 3u + 65u + 71u);
  EXPECT_TRUE(Gamma.mayBeUndefined(Rd));
  EXPECT_TRUE(Gamma.mayBeUndefined(definedNode(*R.G, "r69")));
  EXPECT_TRUE(Gamma.isDefined(definedNode(*R.G, "d")));
}

TEST(Definedness, SaturationFollowsTheWorklistOrder) {
  // Under ContextK 2, id's formal receives 40 contexts through wa and 40
  // through wb, one pop each, so which 64 get in before it saturates
  // depends on which pop comes first. A context from wa reaches two
  // states (r and t), one from wb one (s), so the state count pins the
  // pop order. Gamma does not depend on it.
  std::string Src = "func id(v) { ret v; }\nfunc wa(p) {\n";
  for (unsigned I = 0; I != 40; ++I)
    Src += "  r" + std::to_string(I) + " = id(p);\n  t" + std::to_string(I) +
           " = r" + std::to_string(I) + ";\n";
  Src += "  ret 0;\n}\nfunc wb(q) {\n";
  for (unsigned I = 0; I != 40; ++I)
    Src += "  s" + std::to_string(I) + " = id(q);\n";
  Src += R"(  ret 0;
}
func main() {
  z = 0;
  if z goto setit;
  goto next;
setit:
  u = 1;
next:
  x = wa(u);
  y = wb(u);
  ret 0;
}
)";
  auto M = parser::parseModuleOrAbort(Src);
  UsherResult R = runOn(*M, ToolVariant::UsherFull);
  core::DefinednessOptions Opts;
  Opts.ContextK = 2;
  core::Definedness Gamma(*R.G, Opts);
  // Bottom: F, u's entry version and phi, p, q, v and the 120 results
  // and copies.
  EXPECT_EQ(Gamma.numUndefinedNodes(), 126u);
  // The stack pops wb's formal first: its 40 contexts get in, then 24 of
  // wa's before v saturates. States: F, u, its phi, p, q; v in 64
  // contexts plus the universal one; s in 40 contexts and r and t in 24
  // each; the 120 results and copies in the universal context. Popping
  // wa's formal first would give 3 + 2 + 65 + 24 + 80 + 120 = 294.
  EXPECT_EQ(Gamma.numStates(), 3u + 2u + 65u + 40u + 48u + 120u);
}

TEST(Definedness, RedirectedUserStopsReceivingTheFlow) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      z = 0;
      if z goto setit;
      goto use;
    setit:
      u = 1;
    use:
      x = u;
      y = x;
      y2 = y;
      w = x;
      if y2 goto a;
      if w goto a;
      ret 0;
    a:
      ret 1;
    }
  )");
  UsherResult R = runOn(*M, ToolVariant::UsherFull);
  const vfg::VFG &G = *R.G;
  const uint32_t X = definedNode(G, "x"), Y = definedNode(G, "y"),
                 Y2 = definedNode(G, "y2"), W = definedNode(G, "w");
  core::Definedness Base(G, core::DefinednessOptions());
  for (uint32_t Id : {X, Y, Y2, W})
    EXPECT_TRUE(Base.mayBeUndefined(Id));

  // y now depends on T only: it and its user y2 stop receiving the flow.
  // w's override keeps its edge from x, so the flow still reaches it.
  std::unordered_map<uint32_t, std::vector<vfg::Edge>> Redirects;
  Redirects[Y] = {{vfg::VFG::RootT, vfg::EdgeKind::Direct, ~0u}};
  Redirects[W] = std::vector<vfg::Edge>(G.deps(W).begin(), G.deps(W).end());
  core::Definedness Redirected(G, core::DefinednessOptions(), &Redirects);
  EXPECT_TRUE(Redirected.mayBeUndefined(X));
  EXPECT_TRUE(Redirected.isDefined(Y));
  EXPECT_TRUE(Redirected.isDefined(Y2));
  EXPECT_TRUE(Redirected.mayBeUndefined(W));
  EXPECT_EQ(Redirected.numUndefinedNodes(), Base.numUndefinedNodes() - 2);
}

//===----------------------------------------------------------------------===//
// Planner: strong-update shortcuts and demand
//===----------------------------------------------------------------------===//

TEST(Planner, DefinedChainsCostNothing) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      a = 1;
      b = a + 2;
      c = b * 3;
      if c goto x;
      c = 0;
    x:
      ret c;
    }
  )");
  UsherResult R = runOn(*M, ToolVariant::UsherFull);
  EXPECT_EQ(R.Plan.countChecks(), 0u);
  EXPECT_EQ(R.Plan.countShadowOps(), 0u);
}

TEST(Planner, UntrackedValuesAreNotInstrumented) {
  // `dead` feeds no critical operation; even though it is undefined, no
  // shadow work is emitted for it ("a value never used at any critical
  // operation does not need to be tracked").
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      z = 0;
      if z goto setit;
      goto next;
    setit:
      dead = 1;
    next:
      copy1 = dead + 1;
      copy2 = copy1 + 1;
      ret copy2;
    }
  )");
  UsherResult R = runOn(*M, ToolVariant::UsherFull);
  EXPECT_EQ(R.Plan.countShadowOps(), 0u);
  EXPECT_EQ(R.Plan.countChecks(), 0u);
}

TEST(Planner, FullInstrumentationShadowsEverything) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      a = 1;
      b = a + 2;
      p = alloc stack 1 uninit;
      *p = b;
      x = *p;
      if x goto done;
      x = 0;
    done:
      ret x;
    }
  )");
  UsherResult Full = runOn(*M, ToolVariant::MSanFull);
  // Every value-producing statement gets a shadow op; load/store/branch
  // get checks (branch cond + two pointer uses).
  EXPECT_EQ(Full.Plan.countChecks(), 3u);
  EXPECT_GE(Full.Plan.countShadowOps(), 6u);
}

TEST(Planner, GuidedIsNeverLargerThanFull) {
  for (uint64_t Seed = 0; Seed != 30; ++Seed) {
    auto Src = parser::parseModuleOrAbort(R"(
      func main() { x = 1; ret x; }
    )");
    (void)Src;
  }
  // Structural comparison over the benchmark-like programs is covered by
  // SuiteTest; here a targeted case with mixed defined/undefined flow.
  auto M = parser::parseModuleOrAbort(R"(
    global cfg[1] uninit;
    func main() {
      p = cfg;
      x = *p;
      y = 1;
      s = x + y;
      if s goto a;
      ret 0;
    a:
      ret s;
    }
  )");
  UsherResult Full = runOn(*M, ToolVariant::MSanFull);
  UsherResult Guided = runOn(*M, ToolVariant::UsherFull);
  EXPECT_LE(Guided.Plan.countChecks(), Full.Plan.countChecks());
  EXPECT_LE(Guided.Plan.countPropagationReads(),
            Full.Plan.countPropagationReads());
  EXPECT_GE(Guided.Plan.countChecks(), 1u);
}

//===----------------------------------------------------------------------===//
// Opt I: value-flow simplification
//===----------------------------------------------------------------------===//

TEST(OptI, SimplifiesCopyChains) {
  // x flows through a chain of copies/binops into a check; Opt I reads
  // the sources directly instead of maintaining every interior shadow.
  auto M = parser::parseModuleOrAbort(R"(
    global cfg[1] uninit;
    func main() {
      p = cfg;
      a = *p;
      b = a + 1;
      c = b + 2;
      d = c + 3;
      if d goto x;
      ret 0;
    x:
      ret d;
    }
  )");
  UsherResult NoOpt = runOn(*M, ToolVariant::UsherTLAT);
  UsherResult Opt = runOn(*M, ToolVariant::UsherOptI);
  EXPECT_EQ(Opt.Stats.NumSimplifiedMFCs, 1u);
  EXPECT_LT(Opt.Plan.countShadowOps(), NoOpt.Plan.countShadowOps());
  // Same detection behaviour.
  runtime::ExecutionReport A = runtime::Interpreter(*M, &NoOpt.Plan).run();
  runtime::ExecutionReport B = runtime::Interpreter(*M, &Opt.Plan).run();
  EXPECT_EQ(A.ToolWarnings.size(), B.ToolWarnings.size());
}

TEST(OptI, RefusesUnsafeMultiDefSources) {
  // The chain variable `t` is redefined between its use and the sink, so
  // sigma(t) at the sink would be stale: Opt I must fall back.
  auto M = parser::parseModuleOrAbort(R"(
    global cfg[1] uninit;
    func main() {
      p = cfg;
      t = *p;
      a = t + 1;
      t = 0;
      b = a + t;
      if b goto x;
      ret 0;
    x:
      ret b;
    }
  )");
  UsherResult Opt = runOn(*M, ToolVariant::UsherOptI);
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &Opt.Plan).run();
  // cfg[0] is undefined, flows into b: exactly one warning, no false
  // negatives from a stale shadow read.
  EXPECT_EQ(Rep.ToolWarnings.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Opt II: redundant check elimination
//===----------------------------------------------------------------------===//

TEST(OptII, SuppressesDominatedDuplicate) {
  // Figure 9: b1 flows into checks at l1 and l2; l1 dominates l2, so the
  // l2 check is redundant.
  auto M = parser::parseModuleOrAbort(R"(
    global src[1] uninit;
    func main() {
      p = src;
      a = 1;
      b = *p;
      c = a + b;
      if c goto l2part;
      goto l2part;
    l2part:
      d = 0;
      e = b + d;
      if e goto done;
      ret 0;
    done:
      ret 1;
    }
  )");
  UsherResult NoOpt2 = runOn(*M, ToolVariant::UsherOptI);
  UsherResult WithOpt2 = runOn(*M, ToolVariant::UsherFull);
  EXPECT_GT(WithOpt2.Stats.NumRedirectedNodes, 0u);
  EXPECT_LT(WithOpt2.Plan.countChecks(), NoOpt2.Plan.countChecks());

  // The defect is still reported (at the dominating check).
  runtime::ExecutionReport Rep =
      runtime::Interpreter(*M, &WithOpt2.Plan).run();
  EXPECT_FALSE(Rep.ToolWarnings.empty());
}

TEST(OptII, DoesNotSuppressNonDominatedChecks) {
  // The two checks sit on sibling branches: neither dominates the other,
  // so both must stay.
  auto M = parser::parseModuleOrAbort(R"(
    global src[1] uninit;
    func main() {
      p = src;
      b = *p;
      z = 0;
      if z goto left;
      goto right;
    left:
      e1 = b + 1;
      if e1 goto join;
      goto join;
    right:
      e2 = b + 2;
      if e2 goto join;
      goto join;
    join:
      ret 0;
    }
  )");
  UsherResult NoOpt2 = runOn(*M, ToolVariant::UsherOptI);
  UsherResult WithOpt2 = runOn(*M, ToolVariant::UsherFull);
  EXPECT_EQ(WithOpt2.Plan.countChecks(), NoOpt2.Plan.countChecks());
}

//===----------------------------------------------------------------------===//
// UsherTL conservatism
//===----------------------------------------------------------------------===//

TEST(UsherTL, AlwaysShadowsMemory) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      p = alloc stack 1 init;
      *p = 1;
      x = *p;
      if x goto a;
      ret 0;
    a:
      ret 1;
    }
  )");
  UsherResult TL = runOn(*M, ToolVariant::UsherTL);
  UsherResult AT = runOn(*M, ToolVariant::UsherTLAT);
  // TL cannot prove the load defined; the address-taken analysis can.
  EXPECT_GE(TL.Plan.countChecks(), 1u);
  EXPECT_EQ(AT.Plan.countChecks(), 0u);
  EXPECT_GT(TL.Plan.countShadowOps(), AT.Plan.countShadowOps());
}

} // namespace
