//===- tests/QueryTest.cpp - Demand-driven query engine unit tests ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the demand CFL-reachability query (analysis/DemandVFA.h)
// and the runUsherQuery pipeline entry: result semantics (witnesses,
// out-of-range ids, exhaustion) and the "no whole-program Andersen"
// statistic the speed ladder promises.
//
//===----------------------------------------------------------------------===//

#include "analysis/DemandVFA.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "support/Budget.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

using namespace usher;
using analysis::cflReachable;
using analysis::QueryResult;

namespace {

/// A program with both a reachable undef flow (the uninitialized x feeds
/// a branch condition, a critical use) and a definitely-initialized leg
/// (q is strongly updated before its reads), so the VFG has reachable and
/// unreachable (node, node) pairs to aim queries at.
const char *QueryProgram = R"(
func main() {
  p = alloc stack 1 uninit;
  q = alloc stack 1 uninit;
  *q = 7;
  x = *p;
  y = *q;
  if x goto t;
  ret y;
t:
  ret y;
}
)";

struct BuiltVFG {
  std::unique_ptr<ir::Module> M;
  std::optional<core::UsherResult> R;

  explicit BuiltVFG(const char *Src) {
    M = parser::parseModuleOrAbort(Src);
    core::UsherOptions Opts;
    Opts.Variant = core::ToolVariant::UsherFull;
    R.emplace(core::runUsher(*M, Opts));
    EXPECT_TRUE(R->G != nullptr);
    EXPECT_GT(R->G->numNodes(), 2u);
  }

  const vfg::VFG &graph() const { return *R->G; }
};

/// First critical-use node, or aborts the test: the canonical "sink a
/// client would ask about".
uint32_t firstCriticalUse(const vfg::VFG &G) {
  const auto &Uses = G.criticalUses();
  EXPECT_FALSE(Uses.empty());
  return Uses.empty() ? 0 : Uses.front().Node;
}

TEST(Query, ReachableQueryYieldsValidWitness) {
  BuiltVFG B(QueryProgram);
  const vfg::VFG &G = B.graph();

  // Undefinedness flows from F along user edges; the uninitialized load's
  // critical use is reachable from the F root, the strongly-updated one
  // is not. Find the reachable one and check its witness end to end.
  ASSERT_FALSE(G.criticalUses().empty());
  uint32_t Sink = ~0u;
  for (const vfg::VFG::CriticalUse &U : G.criticalUses()) {
    QueryResult R = cflReachable(G, vfg::VFG::RootF, U.Node, 1);
    ASSERT_FALSE(R.Exhausted);
    if (R.Reachable) {
      Sink = U.Node;
      break;
    }
  }
  ASSERT_NE(Sink, ~0u) << "no critical use reachable from F";
  QueryResult R = cflReachable(G, vfg::VFG::RootF, Sink, 1);
  ASSERT_TRUE(R.Reachable);
  ASSERT_FALSE(R.Witness.empty());
  EXPECT_EQ(R.Witness.front().Node, vfg::VFG::RootF);
  EXPECT_EQ(R.Witness.back().Node, Sink);
  std::string Err;
  EXPECT_TRUE(analysis::validateQueryWitness(G, vfg::VFG::RootF, Sink,
                                             R.Witness, 1, &Err))
      << Err;
}

TEST(Query, UnreachableQueryHasNoWitness) {
  BuiltVFG B(QueryProgram);

  // Nothing flows into a root: T has no incoming user edges from F.
  QueryResult R =
      cflReachable(B.graph(), vfg::VFG::RootF, vfg::VFG::RootT, 1);
  ASSERT_FALSE(R.Exhausted);
  EXPECT_FALSE(R.Reachable);
  EXPECT_TRUE(R.Witness.empty());
}

TEST(Query, OutOfRangeNodesAreUnreachable) {
  BuiltVFG B(QueryProgram);
  const uint32_t Bogus = B.graph().numNodes() + 7;

  QueryResult R = cflReachable(B.graph(), Bogus, vfg::VFG::RootF, 1);
  EXPECT_FALSE(R.Reachable);
  EXPECT_TRUE(R.Witness.empty());
}

TEST(Query, ExhaustedQueryIsInconclusive) {
  BuiltVFG B(QueryProgram);
  BudgetLimits Limits;
  Limits.MaxStepsPerPhase = 1;
  Budget Bud(Limits);
  Bud.beginPhase(BudgetPhase::Definedness);
  uint32_t Sink = firstCriticalUse(B.graph());

  QueryResult R = cflReachable(B.graph(), vfg::VFG::RootF, Sink, 1, &Bud);
  EXPECT_TRUE(R.Exhausted);
}

//===----------------------------------------------------------------------===//
// The pipeline entry: the speed-ladder contract
//===----------------------------------------------------------------------===//

TEST(Query, PipelineAnswersOnUnifyEngineWithoutAndersen) {
  auto M = parser::parseModuleOrAbort(QueryProgram);
  core::UsherOptions UO;
  // The demand fast lane the CLI and the serve daemon configure.
  UO.Pta.Solver = analysis::SolverKind::Unify;
  core::QueryOutcome Q = core::runUsherQuery(*M, UO, vfg::VFG::RootF, 2);
  ASSERT_TRUE(Q.Valid) << Q.Error;
  EXPECT_FALSE(Q.Exhausted);
  EXPECT_GT(Q.NumNodes, 2u);
  // The acceptance assertion: the answer was computed on the unification
  // engine — the query never paid for a whole-program Andersen
  // resolution, and the engine statistic proves which solver ran.
  EXPECT_EQ(Q.Solver.Engine, analysis::SolverKind::Unify);
}

TEST(Query, PipelineRejectsOutOfRangeIds) {
  auto M = parser::parseModuleOrAbort(QueryProgram);
  core::UsherOptions UO;
  UO.Pta.Solver = analysis::SolverKind::Unify;
  core::QueryOutcome Q = core::runUsherQuery(*M, UO, 0, 0xfffffff0u);
  EXPECT_FALSE(Q.Valid);
  EXPECT_NE(Q.Error.find("out of range"), std::string::npos);
}

TEST(Query, PipelineAgreesWithWholeProgramOnGeneratedPrograms) {
  // Spot-check the demand answer against whole-program Andersen-backed
  // resolution on a few generated programs (the fuzz campaign's
  // query-equivalence oracle does this at scale; this pins it in tier-1).
  for (uint64_t Seed : {3u, 11u}) {
    auto M = workload::generateProgram(Seed);
    core::UsherOptions Full;
    Full.Variant = core::ToolVariant::UsherFull;
    core::UsherResult R = core::runUsher(*M, Full);
    ASSERT_TRUE(R.G != nullptr);
    if (R.G->numNodes() == 0)
      continue;

    for (const vfg::VFG::CriticalUse &U : R.G->criticalUses()) {
      auto M2 = workload::generateProgram(Seed);
      core::UsherOptions UO;
      UO.Pta.Solver = analysis::SolverKind::Unify;
      core::QueryOutcome Q =
          core::runUsherQuery(*M2, UO, vfg::VFG::RootF, U.Node);
      ASSERT_TRUE(Q.Valid) << Q.Error;
      QueryResult Want = cflReachable(*R.G, vfg::VFG::RootF, U.Node, 1);
      EXPECT_EQ(Q.Reachable, Want.Reachable)
          << "seed " << Seed << " sink " << U.Node;
    }
  }
}

} // namespace
