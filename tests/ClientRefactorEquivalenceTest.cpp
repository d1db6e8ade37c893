//===- tests/ClientRefactorEquivalenceTest.cpp - UUV golden equivalence ----===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-client refactor's golden guarantee: the UUV client's output
/// is byte-identical whether it runs through the legacy single-plan path
/// (no clients configured, single-plan interpreter constructor) or as
/// plan 0 of a multi-client pass (three clients planned over one VFG,
/// one interpreter executing one plan per client). Both paths render
/// their warning report through the CLI's exact format and the strings
/// are compared byte for byte; the static diagnosis JSON is compared the
/// same way. Checked across the 15-benchmark suite, every .tc corpus
/// input, and 100 generator seeds.
///
//===----------------------------------------------------------------------===//

#include "core/StaticDiagnosis.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/RawStream.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

using namespace usher;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;

namespace {

/// A re-runnable program source: every pipeline run mutates its module
/// (heap cloning), so each path gets a fresh one.
using FreshModule = std::function<std::unique_ptr<ir::Module>()>;

/// Renders a UUV run exactly as tools/usher-cli's reportClientRun does, from
/// either the legacy report fields or one plan's slice of a multi-plan
/// report. Byte-equality of two renders is the golden criterion.
std::string renderUuvRun(const ExecutionReport &Rep,
                         const std::vector<runtime::Warning> &Warns,
                         uint64_t DynShadowOps, uint64_t DynChecks,
                         double ShadowCost) {
  std::string Text;
  raw_string_ostream OS(Text);
  OS << '[';
  OS.leftJustify("USHER", 12);
  OS << "] ";
  if (Rep.Reason == ExitReason::Trap) {
    OS << "trapped: " << Rep.TrapMessage << '\n';
    return Text;
  }
  if (Rep.Reason == ExitReason::StepLimit) {
    OS << "stopped: step limit exceeded\n";
    return Text;
  }
  if (Rep.Reason == ExitReason::Interrupted) {
    OS << "interrupted after " << Rep.Steps << " steps, shadow ops "
       << DynShadowOps << ", checks " << DynChecks << '\n';
    return Text;
  }
  double Slowdown = Rep.BaseCost > 0 ? 100.0 * ShadowCost / Rep.BaseCost : 0.0;
  OS << "result " << Rep.MainResult << ", slowdown "
     << static_cast<int>(Slowdown) << "%, shadow ops " << DynShadowOps
     << ", checks " << DynChecks << '\n';
  for (const runtime::Warning &W : Warns) {
    OS << "  warning: ";
    if (W.At->getLoc().isValid())
      OS << W.At->getLoc().Line << ':' << W.At->getLoc().Col << ": ";
    OS << "use of undefined value in "
       << W.At->getParent()->getParent()->getName() << " at \"";
    W.At->print(OS);
    OS << "\" (x" << W.Occurrences << ")\n";
  }
  return Text;
}

std::string diagJson(const core::UsherResult &R) {
  EXPECT_TRUE(R.PA && R.CG && R.G);
  core::StaticDiagnosis Diag(*R.PA, *R.CG, *R.G);
  std::string Text;
  raw_string_ostream OS(Text);
  Diag.printJson(OS);
  return Text;
}

/// The golden check for one program: legacy UUV-only path vs the same
/// client riding a three-client single pass.
void expectUuvByteIdentical(const FreshModule &Fresh, const std::string &Tag) {
  // Path A: exactly the pre-refactor surface — no clients configured,
  // the single-plan interpreter constructor, the legacy report fields.
  auto MA = Fresh();
  core::UsherOptions OptsA;
  core::UsherResult RA = core::runUsher(*MA, OptsA);
  ExecutionReport RepA = Interpreter(*MA, &RA.Plan).run();
  const std::string TextA = renderUuvRun(RepA, RepA.ToolWarnings,
                                         RepA.DynShadowOps, RepA.DynChecks,
                                         RepA.ShadowCost);

  // Path B: the refactored surface — all three clients planned over one
  // VFG, one interpreter pass, the UUV client is plan 0.
  auto MB = Fresh();
  core::UsherOptions OptsB;
  OptsB.Clients = {core::ClientKind::UUV, core::ClientKind::AddrLeak,
                   core::ClientKind::Bounds};
  core::UsherResult RB = core::runUsher(*MB, OptsB);
  ASSERT_EQ(RB.ClientPlans.size(), 2u) << Tag;
  std::vector<runtime::PlanExec> Plans{{&RB.Plan, core::ShadowSemantics()}};
  for (const core::ClientPlanInfo &CP : RB.ClientPlans)
    Plans.push_back({&CP.Plan, core::clientShadowSemantics(CP.Kind)});
  ExecutionReport RepB = Interpreter(*MB, Plans).run();
  ASSERT_EQ(RepB.Reason, RepA.Reason) << Tag;
  const runtime::PlanReport &Uuv = RepB.PlanResults[0];
  const std::string TextB = renderUuvRun(RepB, Uuv.ToolWarnings,
                                         Uuv.DynShadowOps, Uuv.DynChecks,
                                         Uuv.ShadowCost);

  // The golden criterion: the rendered UUV report is byte-identical.
  EXPECT_EQ(TextA, TextB) << Tag;

  // The UUV plan itself must be unchanged by client planning.
  EXPECT_EQ(RA.Plan.countChecks(), RB.Plan.countChecks()) << Tag;
  EXPECT_EQ(RA.Plan.countShadowOps(), RB.Plan.countShadowOps()) << Tag;
  EXPECT_EQ(RA.Plan.countPropagationReads(), RB.Plan.countPropagationReads())
      << Tag;
  EXPECT_EQ(RA.Degradation.Rung, RB.Degradation.Rung) << Tag;

  // And the machine-readable diagnosis is byte-identical too.
  EXPECT_EQ(diagJson(RA), diagJson(RB)) << Tag << ": --diag-json differs";

  // The legacy aggregate fields of a multi-plan report alias plan 0 plus
  // the other plans' counters; plan 0's slice must match path A exactly.
  if (RepA.Reason == ExitReason::Finished) {
    EXPECT_EQ(Uuv.DynShadowOps, RepA.DynShadowOps) << Tag;
    EXPECT_EQ(Uuv.DynChecks, RepA.DynChecks) << Tag;
    EXPECT_EQ(Uuv.ShadowCost, RepA.ShadowCost) << Tag;
    EXPECT_EQ(RepB.MainResult, RepA.MainResult) << Tag;
    EXPECT_EQ(RepB.Steps, RepA.Steps) << Tag;
  }
}

//===----------------------------------------------------------------------===//
// The 15-benchmark suite
//===----------------------------------------------------------------------===//

class ClientRefactorSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(ClientRefactorSuite, UuvOutputByteIdentical) {
  const auto &B = workload::spec2000Suite()[GetParam()];
  expectUuvByteIdentical([&B] { return workload::loadBenchmark(B); }, B.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ClientRefactorSuite, ::testing::Range<size_t>(0, 15),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = workload::spec2000Suite()[Info.param].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// The .tc input corpora
//===----------------------------------------------------------------------===//

class ClientRefactorCorpus : public ::testing::TestWithParam<const char *> {};

TEST_P(ClientRefactorCorpus, UuvOutputByteIdentical) {
  const std::string Rel = GetParam();
  std::string Source;
  ASSERT_TRUE(readFile(std::string(USHER_TEST_INPUT_DIR) + "/" + Rel, Source))
      << Rel;
  expectUuvByteIdentical(
      [&Source] { return parser::parseModuleOrAbort(Source); }, Rel);
}

INSTANTIATE_TEST_SUITE_P(
    AllInputs, ClientRefactorCorpus,
    ::testing::Values("smoke.tc", "diagnosis/definite.tc",
                      "diagnosis/may_guarded.tc",
                      "diagnosis/clean_strong_update.tc",
                      "fuzz/call_undef.tc", "fuzz/global_uninit.tc",
                      "fuzz/opt2_dup.tc", "fuzz/semi_strong_heap.tc",
                      "fuzz/strong_update_clean.tc", "fuzz/walk_partial.tc",
                      "query/undef_branch.tc",
                      "clients/addrleak/leak_heap_to_global.tc",
                      "clients/addrleak/guarded_no_leak.tc",
                      "clients/addrleak/clean_strong_update.tc",
                      "clients/bounds/oob_const_index.tc",
                      "clients/bounds/guarded_in_range.tc",
                      "clients/bounds/clean_const_in_range.tc"),
    [](const ::testing::TestParamInfo<const char *> &I) {
      std::string Name = I.param;
      for (char &C : Name)
        if (C == '/' || C == '.')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// 100 generator seeds
//===----------------------------------------------------------------------===//

class ClientRefactorSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClientRefactorSeeds, UuvOutputByteIdentical) {
  // 25 seeds per shard, 4 shards: 100 programs total without packing the
  // whole sweep into one long-running test.
  const uint64_t Base = 1 + GetParam() * 25;
  for (uint64_t Seed = Base; Seed != Base + 25; ++Seed)
    expectUuvByteIdentical(
        [Seed] { return workload::generateProgram(Seed); },
        "seed " + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Shards, ClientRefactorSeeds,
                         ::testing::Range<uint64_t>(0, 4));

} // namespace
