//===- tests/QueryTest.cpp - Demand-driven query engine unit tests ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the demand CFL-reachability query (analysis/DemandVFA.h)
// and the runUsherQuery pipeline entry: result semantics (witnesses,
// out-of-range ids, exhaustion), and that a query asks the same VFG that
// runUsher, usher-cli and usher-serve build.
//
//===----------------------------------------------------------------------===//

#include "analysis/DemandVFA.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "serve/Session.h"
#include "support/Budget.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"

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
// The pipeline entry: the graph runUsher builds
//===----------------------------------------------------------------------===//

TEST(Query, PipelineAnswersOnAndersen) {
  auto M = parser::parseModuleOrAbort(QueryProgram);
  core::QueryOutcome Q =
      core::runUsherQuery(*M, core::UsherOptions(), vfg::VFG::RootF, 2);
  ASSERT_TRUE(Q.Valid) << Q.Error;
  EXPECT_FALSE(Q.Exhausted);
  EXPECT_GT(Q.NumNodes, 2u);
  EXPECT_EQ(Q.Solver.Engine, analysis::SolverKind::Optimized);
}

TEST(Query, PipelineRejectsOutOfRangeIds) {
  auto M = parser::parseModuleOrAbort(QueryProgram);
  core::QueryOutcome Q =
      core::runUsherQuery(*M, core::UsherOptions(), 0, 0xfffffff0u);
  EXPECT_FALSE(Q.Valid);
  EXPECT_NE(Q.Error.find("out of range"), std::string::npos);
}

TEST(Query, QueryAndPipelineShareOneGraph) {
  // 176.gcc's VFG has 183 nodes under runUsher, so a query and a serve
  // query name the same ids and 183 is one past the last.
  const char *Gcc = workload::spec2000Suite()[2].Source;
  ASSERT_EQ(workload::spec2000Suite()[2].Name, std::string("176.gcc"));
  auto M = parser::parseModuleOrAbort(Gcc);
  core::UsherResult R = core::runUsher(*M, core::UsherOptions());
  ASSERT_TRUE(R.G != nullptr);
  EXPECT_EQ(R.G->numNodes(), 183u);

  auto MQ = parser::parseModuleOrAbort(Gcc);
  core::QueryOutcome Q =
      core::runUsherQuery(*MQ, core::UsherOptions(), vfg::VFG::RootF, 183);
  EXPECT_FALSE(Q.Valid);
  EXPECT_EQ(Q.NumNodes, 183u);
  EXPECT_EQ(Q.Error, "query node id out of range (VFG has 183 nodes)");

  serve::Request Rq;
  Rq.Kind = serve::Op::Query;
  Rq.Source = Gcc;
  Rq.QuerySrc = vfg::VFG::RootF;
  Rq.QuerySink = 183;
  serve::Reply Rp = serve::Session(serve::SessionOptions{}).handle(Rq);
  EXPECT_EQ(Rp.Status, serve::ReplyStatus::Error);
  EXPECT_EQ(Rp.Payload, Q.Error);
  Rq.QuerySink = 182;
  Rp = serve::Session(serve::SessionOptions{}).handle(Rq);
  EXPECT_EQ(Rp.Status, serve::ReplyStatus::Ok) << Rp.Payload;
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
      core::QueryOutcome Q = core::runUsherQuery(*M2, core::UsherOptions(),
                                                 vfg::VFG::RootF, U.Node);
      ASSERT_TRUE(Q.Valid) << Q.Error;
      QueryResult Want = cflReachable(*R.G, vfg::VFG::RootF, U.Node, 1);
      EXPECT_EQ(Q.Reachable, Want.Reachable)
          << "seed " << Seed << " sink " << U.Node;
    }
  }
}

} // namespace
