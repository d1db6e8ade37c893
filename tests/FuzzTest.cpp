//===- tests/FuzzTest.cpp - Differential fuzzing subsystem -----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for src/fuzz/: coverage counters, the
/// interpreter's edge-coverage feedback, the text-level mutation API, the
/// six differential oracles (including a replay of the minimized
/// near-miss corpus in tests/inputs/fuzz/), the hierarchical reducer's
/// shrink guarantee, and byte-identical same-seed campaign reports, serial
/// or sharded across --jobs workers.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Coverage.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Oracles.h"
#include "fuzz/Reducer.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/RawStream.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace usher;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;

namespace {

std::string printed(const ir::Module &M) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  M.print(OS);
  return Buf;
}

unsigned countLines(const std::string &S) {
  unsigned N = 0;
  for (char C : S)
    N += C == '\n';
  return N;
}

//===----------------------------------------------------------------------===//
// Coverage counters
//===----------------------------------------------------------------------===//

TEST(Coverage, CountBucketsFollowAflClasses) {
  EXPECT_EQ(fuzz::countBucket(0), 0);
  EXPECT_EQ(fuzz::countBucket(1), 1);
  EXPECT_EQ(fuzz::countBucket(2), 2);
  EXPECT_EQ(fuzz::countBucket(3), 3);
  EXPECT_EQ(fuzz::countBucket(4), 4);
  EXPECT_EQ(fuzz::countBucket(7), 4);
  EXPECT_EQ(fuzz::countBucket(8), 5);
  EXPECT_EQ(fuzz::countBucket(15), 5);
  EXPECT_EQ(fuzz::countBucket(16), 6);
  EXPECT_EQ(fuzz::countBucket(31), 6);
  EXPECT_EQ(fuzz::countBucket(32), 7);
  EXPECT_EQ(fuzz::countBucket(127), 7);
  EXPECT_EQ(fuzz::countBucket(128), 8);
  EXPECT_EQ(fuzz::countBucket(~uint64_t(0)), 8);
}

TEST(Coverage, FeatureKeysSeparateDomains) {
  // Identical payloads in different domains must never collide.
  uint64_t A = fuzz::featureKey(fuzz::FeatureDomain::Edge, 42);
  uint64_t B = fuzz::featureKey(fuzz::FeatureDomain::Origin, 42);
  EXPECT_NE(A, B);
  // Payloads are masked to 56 bits, never allowed to clobber the tag.
  uint64_t C = fuzz::featureKey(fuzz::FeatureDomain::Edge, ~uint64_t(0));
  EXPECT_EQ(C >> 56, static_cast<uint64_t>(fuzz::FeatureDomain::Edge));
}

TEST(Coverage, MapCountsOnlyNewKeys) {
  fuzz::CoverageMap Map;
  fuzz::FeatureSet FS;
  FS.add(fuzz::FeatureDomain::Edge, 1);
  FS.add(fuzz::FeatureDomain::Edge, 2);
  FS.add(fuzz::FeatureDomain::Edge, 1); // duplicate within one set
  EXPECT_EQ(Map.addAll(FS), 2u);
  EXPECT_EQ(Map.size(), 2u);
  EXPECT_EQ(Map.addAll(FS), 0u) << "re-adding a seen set contributes nothing";

  fuzz::FeatureSet Next;
  Next.add(fuzz::FeatureDomain::Edge, 2);
  Next.add(fuzz::FeatureDomain::Rung, 2);
  EXPECT_EQ(Map.addAll(Next), 1u);
  EXPECT_TRUE(Map.contains(fuzz::featureKey(fuzz::FeatureDomain::Rung, 2)));
  EXPECT_FALSE(Map.contains(fuzz::featureKey(fuzz::FeatureDomain::Rung, 3)));
}

//===----------------------------------------------------------------------===//
// Interpreter edge coverage
//===----------------------------------------------------------------------===//

const char *LoopSrc = R"(
    func main() {
      i = 0;
      s = 0;
    head:
      c = i < 5;
      if c goto body;
      ret s;
    body:
      s = s + i;
      i = i + 1;
      goto head;
    }
  )";

TEST(EdgeCoverage, RecordsHitCountsWhenEnabled) {
  auto M = parser::parseModuleOrAbort(LoopSrc);
  runtime::ExecLimits Limits;
  Limits.CollectCoverage = true;
  ExecutionReport R =
      Interpreter(*M, nullptr, runtime::CostModel(), Limits).run();
  ASSERT_EQ(R.Reason, ExitReason::Finished);
  EXPECT_EQ(R.MainResult, 0 + 1 + 2 + 3 + 4);
  EXPECT_FALSE(R.EdgeHits.empty());
  EXPECT_GE(R.MaxFrameDepth, 1u);
  // The back edge (goto head) runs once per loop iteration; some edge
  // must carry all five hits.
  uint64_t MaxHits = 0;
  for (const auto &[Key, Hits] : R.EdgeHits)
    MaxHits = std::max(MaxHits, Hits);
  EXPECT_EQ(MaxHits, 5u);
}

TEST(EdgeCoverage, OffByDefault) {
  auto M = parser::parseModuleOrAbort(LoopSrc);
  ExecutionReport R = Interpreter(*M, nullptr).run();
  ASSERT_EQ(R.Reason, ExitReason::Finished);
  EXPECT_TRUE(R.EdgeHits.empty());
  EXPECT_EQ(R.MaxFrameDepth, 0u);
}

TEST(EdgeCoverage, FrameDepthTracksNestedCalls) {
  auto M = parser::parseModuleOrAbort(R"(
    func leaf(v) { ret v; }
    func mid(v) {
      r = leaf(v);
      ret r;
    }
    func main() {
      x = mid(3);
      ret x;
    }
  )");
  runtime::ExecLimits Limits;
  Limits.CollectCoverage = true;
  ExecutionReport R =
      Interpreter(*M, nullptr, runtime::CostModel(), Limits).run();
  ASSERT_EQ(R.Reason, ExitReason::Finished);
  EXPECT_EQ(R.MaxFrameDepth, 3u) << "main -> mid -> leaf";
}

//===----------------------------------------------------------------------===//
// Text-level mutation API
//===----------------------------------------------------------------------===//

TEST(Mutation, DeterministicAndSeedSensitive) {
  std::string Base = printed(*workload::generateProgram(11));
  EXPECT_EQ(workload::mutateProgram(Base, 5), workload::mutateProgram(Base, 5));
  // Some seed in a small window must produce a distinct mutant (a single
  // fixed seed could legally collide, e.g. two swaps of the same pair).
  unsigned Distinct = 0;
  for (uint64_t Seed = 0; Seed != 8; ++Seed)
    Distinct += workload::mutateProgram(Base, Seed) != Base;
  EXPECT_GE(Distinct, 4u);
}

TEST(Mutation, MutantsFrequentlySurviveTheValidityGate) {
  // Generate-and-filter only works if a healthy fraction of mutants pass
  // the parse + verify + trap-free-run gate.
  std::string Base = printed(*workload::generateProgram(21));
  unsigned Valid = 0;
  for (uint64_t Seed = 0; Seed != 30; ++Seed) {
    fuzz::OracleOptions Opts;
    Opts.CheckVariants = Opts.CheckSolver = false;
    Opts.CheckDiagnosis = Opts.CheckDegradation = false;
    if (fuzz::runOracles(workload::mutateProgram(Base, Seed), Opts).Valid)
      ++Valid;
  }
  EXPECT_GE(Valid, 10u);
}

TEST(Mutation, SpliceDeclaresDonorNames) {
  std::string Recv = printed(*workload::generateProgram(31));
  std::string Donor = printed(*workload::generateProgram(32));
  unsigned Parsed = 0;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    std::string S = workload::spliceProgram(Recv, Donor, Seed);
    EXPECT_EQ(workload::spliceProgram(Recv, Donor, Seed), S)
        << "splice must be deterministic";
    Parsed += parser::parseModule(S).succeeded();
  }
  // Splices re-declare donor-only names in the receiver, so the great
  // majority must at least parse (verification/termination may still
  // filter them later).
  EXPECT_GE(Parsed, 15u);
}

TEST(Mutation, WrapMainPreservesBehaviorAndDeepensCalls) {
  auto M = workload::generateProgram(41);
  std::string Base = printed(*M);
  ExecutionReport Before = Interpreter(*M, nullptr).run();
  ASSERT_EQ(Before.Reason, ExitReason::Finished);

  std::string Wrapped = workload::wrapMainInCall(Base);
  // Wrap twice: the second wrapper must pick a fresh name.
  std::string Twice = workload::wrapMainInCall(Wrapped);
  for (const std::string &Src : {Wrapped, Twice}) {
    auto P = parser::parseModule(Src);
    ASSERT_TRUE(P.succeeded()) << P.Errors.front();
    runtime::ExecLimits Limits;
    Limits.CollectCoverage = true;
    ExecutionReport After =
        Interpreter(*P.M, nullptr, runtime::CostModel(), Limits).run();
    ASSERT_EQ(After.Reason, ExitReason::Finished);
    EXPECT_EQ(After.MainResult, Before.MainResult)
        << "wrapping main must not change the program's result";
    EXPECT_EQ(After.OracleWarnings.size(), Before.OracleWarnings.size());
    unsigned Wraps = (&Src == &Wrapped) ? 1 : 2;
    EXPECT_GE(After.MaxFrameDepth, 1u + Wraps)
        << "each wrapper adds one call frame";
  }
}

TEST(Mutation, WrapMainWithoutMainIsEmpty) {
  EXPECT_EQ(workload::wrapMainInCall("func f() {\n  ret 0;\n}\n"), "");
}

//===----------------------------------------------------------------------===//
// Oracles: near-miss corpus replay
//===----------------------------------------------------------------------===//

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

struct CorpusExpectation {
  bool Valid = false;
  int64_t Result = 0;
  uint64_t Warnings = 0;
};

CorpusExpectation readExpected(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  CorpusExpectation E;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "valid") {
      std::string V;
      LS >> V;
      E.Valid = V == "true";
    } else if (Key == "result") {
      LS >> E.Result;
    } else if (Key == "warnings") {
      LS >> E.Warnings;
    } else {
      ADD_FAILURE() << "unknown key '" << Key << "' in " << Path;
    }
  }
  return E;
}

class FuzzCorpus : public ::testing::TestWithParam<const char *> {};

TEST_P(FuzzCorpus, AllOraclesAgree) {
  const std::string Stem = GetParam();
  const std::string Dir = std::string(USHER_TEST_INPUT_DIR) + "/fuzz/";
  CorpusExpectation E = readExpected(Dir + Stem + ".expected");

  fuzz::OracleOutcome Out = fuzz::runOracles(readFile(Dir + Stem + ".tc"));
  ASSERT_EQ(Out.Valid, E.Valid) << Stem << ": " << Out.InvalidReason;
  EXPECT_EQ(Out.MainResult, E.Result) << Stem;
  EXPECT_EQ(Out.NumOracleWarnings, E.Warnings) << Stem;
  for (unsigned K = 0; K != fuzz::NumOracleKinds; ++K)
    EXPECT_TRUE(Out.Checked[K])
        << Stem << ": oracle "
        << fuzz::oracleKindName(static_cast<fuzz::OracleKind>(K))
        << " did not run";
  for (const fuzz::Divergence &D : Out.Divergences)
    ADD_FAILURE() << Stem << ": [" << fuzz::oracleKindName(D.Oracle) << "] "
                  << D.Detail;
}

INSTANTIATE_TEST_SUITE_P(NearMisses, FuzzCorpus,
                         ::testing::Values("call_undef", "strong_update_clean",
                                           "semi_strong_heap", "opt2_dup",
                                           "walk_partial", "global_uninit"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

TEST(Oracles, RejectsInvalidInputsWithoutCheckingAnything) {
  fuzz::OracleOutcome Out = fuzz::runOracles("func main( {");
  EXPECT_FALSE(Out.Valid);
  EXPECT_FALSE(Out.InvalidReason.empty());
  for (bool Checked : Out.Checked)
    EXPECT_FALSE(Checked);
  EXPECT_TRUE(Out.Features.Keys.empty());
}

TEST(Oracles, HarvestsAnalysisFeatures) {
  fuzz::OracleOutcome Out = fuzz::runOracles(
      readFile(std::string(USHER_TEST_INPUT_DIR) + "/fuzz/walk_partial.tc"));
  ASSERT_TRUE(Out.Valid);
  bool HasEdge = false, HasOrigin = false, HasRung = false;
  for (uint64_t Key : Out.Features.Keys) {
    auto D = static_cast<fuzz::FeatureDomain>(Key >> 56);
    HasEdge |= D == fuzz::FeatureDomain::Edge;
    HasOrigin |= D == fuzz::FeatureDomain::Origin;
    HasRung |= D == fuzz::FeatureDomain::Rung;
  }
  EXPECT_TRUE(HasEdge);
  EXPECT_TRUE(HasOrigin);
  EXPECT_TRUE(HasRung);
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

/// A fuzzer-shaped haystack: several uncalled filler functions, two called
/// ones, a long run of filler statements, and one buried UUV (u defined
/// only on a dead path, then branched on).
std::string bigBuggyProgram() {
  std::string S;
  for (int F = 0; F != 4; ++F) {
    S += "func filler" + std::to_string(F) + "(a) {\n";
    for (int I = 0; I != 8; ++I)
      S += "  t" + std::to_string(I) + " = a + " + std::to_string(I) + ";\n";
    S += "  ret t7;\n}\n";
  }
  S += "func main() {\n";
  S += "  z = 0;\n";
  S += "  if z goto def;\n";
  S += "  goto body;\n";
  S += "def:\n";
  S += "  u = 1;\n";
  S += "body:\n";
  for (int I = 0; I != 50; ++I)
    S += "  v" + std::to_string(I) + " = " + std::to_string(I) + ";\n";
  S += "  c0 = filler0(v3);\n";
  S += "  c1 = filler1(c0);\n";
  S += "  if u goto t;\n";
  S += "  ret 0;\n";
  S += "t:\n";
  S += "  ret 1;\n";
  S += "}\n";
  return S;
}

/// "Still exhibits the bug": parses, runs to completion, and the oracle
/// reports at least one UUV.
bool stillWarns(const std::string &Source) {
  parser::ParseResult P = parser::parseModule(Source);
  if (!P.succeeded())
    return false;
  runtime::ExecLimits Limits;
  Limits.MaxSteps = 100'000;
  ExecutionReport R =
      Interpreter(*P.M, nullptr, runtime::CostModel(), Limits).run();
  return R.Reason == ExitReason::Finished && !R.OracleWarnings.empty();
}

TEST(Reducer, ShrinksBuriedBugBelowQuarterSize) {
  std::string Big = bigBuggyProgram();
  unsigned BigLines = countLines(Big);
  ASSERT_GE(BigLines, 80u) << "the haystack must be large enough to matter";
  ASSERT_TRUE(stillWarns(Big));

  fuzz::ReduceResult RR = fuzz::reduceProgram(Big, stillWarns);
  EXPECT_TRUE(stillWarns(RR.Source)) << RR.Source;
  unsigned SmallLines = countLines(RR.Source);
  EXPECT_LE(SmallLines * 4, BigLines)
      << "reduced to " << SmallLines << " of " << BigLines << " lines:\n"
      << RR.Source;
  EXPECT_GT(RR.NumChecks, 0u);
  EXPECT_LE(RR.NumChecks, fuzz::ReducerOptions().MaxChecks);
}

TEST(Reducer, IsDeterministic) {
  std::string Big = bigBuggyProgram();
  fuzz::ReduceResult A = fuzz::reduceProgram(Big, stillWarns);
  fuzz::ReduceResult B = fuzz::reduceProgram(Big, stillWarns);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.NumChecks, B.NumChecks);
}

TEST(Reducer, ReturnsInputWhenPredicateFailsOnIt) {
  std::string Clean = "func main() {\n  x = 1;\n  ret x;\n}\n";
  fuzz::ReduceResult RR = fuzz::reduceProgram(Clean, stillWarns);
  EXPECT_EQ(RR.Source, Clean);
}

TEST(Reducer, RespectsCheckBudget) {
  fuzz::ReducerOptions Opts;
  Opts.MaxChecks = 5;
  fuzz::ReduceResult RR =
      fuzz::reduceProgram(bigBuggyProgram(), stillWarns, Opts);
  EXPECT_LE(RR.NumChecks, 5u);
  EXPECT_TRUE(stillWarns(RR.Source))
      << "a truncated reduction must still satisfy the predicate";
}

//===----------------------------------------------------------------------===//
// Campaign driver
//===----------------------------------------------------------------------===//

TEST(Fuzzer, SmokeCampaignIsCleanAndCovered) {
  fuzz::FuzzOptions Opts;
  Opts.Seed = 9;
  Opts.Runs = 32;
  fuzz::FuzzReport Rep = fuzz::runFuzzer(Opts);
  for (const fuzz::DivergenceRecord &D : Rep.Divergences)
    ADD_FAILURE() << "[" << fuzz::oracleKindName(D.Oracle) << "] run " << D.Run
                  << ": " << D.Detail << "\n"
                  << D.Reduced;
  EXPECT_TRUE(Rep.clean());
  EXPECT_EQ(Rep.NumValid + Rep.NumInvalid, Rep.Runs);
  EXPECT_GT(Rep.NumValid, 0u);
  EXPECT_GT(Rep.CorpusSize, 0u);
  EXPECT_GT(Rep.CoverageKeys, 0u);
  for (unsigned K = 0; K != fuzz::NumOracleKinds; ++K)
    EXPECT_EQ(Rep.OracleChecked[K], Rep.NumValid)
        << "every valid input must pass through every oracle";
}

TEST(Fuzzer, SameSeedCampaignsAreByteIdentical) {
  fuzz::FuzzOptions Opts;
  Opts.Seed = 1234;
  Opts.Runs = 40;
  fuzz::FuzzReport A = fuzz::runFuzzer(Opts);
  fuzz::FuzzReport B = fuzz::runFuzzer(Opts);
  std::string JA, JB;
  raw_string_ostream OA(JA), OB(JB);
  A.printJson(OA);
  B.printJson(OB);
  EXPECT_EQ(JA, JB);
  EXPECT_NE(JA.find("\"schema\": \"usher-fuzz-v1\""), std::string::npos);
}

TEST(Fuzzer, DifferentSeedsScheduleDifferently) {
  fuzz::FuzzOptions A, B;
  A.Seed = 1;
  B.Seed = 2;
  A.Runs = B.Runs = 40;
  fuzz::FuzzReport RA = fuzz::runFuzzer(A);
  fuzz::FuzzReport RB = fuzz::runFuzzer(B);
  std::string JA, JB;
  raw_string_ostream OA(JA), OB(JB);
  RA.printJson(OA);
  RB.printJson(OB);
  EXPECT_NE(JA, JB);
}

//===----------------------------------------------------------------------===//
// Sharded campaign workers: byte-identical usher-fuzz-v1 report
//===----------------------------------------------------------------------===//

std::string campaignJson(uint64_t Seed, unsigned Jobs) {
  fuzz::FuzzOptions Opts;
  Opts.Seed = Seed;
  Opts.Runs = 24;
  Opts.Jobs = Jobs;
  fuzz::FuzzReport Rep = fuzz::runFuzzer(Opts);
  std::string Buf;
  raw_string_ostream OS(Buf);
  Rep.printJson(OS);
  return Buf;
}

class FuzzParallelDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzParallelDeterminism, CampaignReportIsByteIdentical) {
  const uint64_t Seed = GetParam();
  std::string Serial = campaignJson(Seed, 1);
  for (unsigned Jobs : {2u, 8u})
    EXPECT_EQ(Serial, campaignJson(Seed, Jobs))
        << "jobs=" << Jobs << " campaign seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParallelDeterminism,
                         ::testing::Values(1, 7, 42, 1234, 9001));

} // namespace
