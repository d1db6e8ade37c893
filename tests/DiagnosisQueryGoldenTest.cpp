//===- tests/DiagnosisQueryGoldenTest.cpp - Pinned diagnosis/query output --===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of the two surfaces built on context-valid path search
/// from a VFG node:
///
///  - the static diagnosis report, as printText and printJson render it,
///    under the default and the conservative posture;
///  - demand queries through runUsherQuery: verdict, Exhausted,
///    StatesVisited, the error text of a rejected query and the
///    printQueryWitness line, over a fixed sample of (src, sink) pairs
///    per program. The sample includes src == sink, an out-of-range id
///    and one query whose walk is cut by an injected budget fault.
///
/// Programs: the 15 suite programs, the diagnosis bug corpus and generator
/// seeds 0-99 (in ten buckets of ten seeds). Any change to a verdict, a
/// witness path, its rendering or a query's state count changes a digest.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/DemandVFA.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "core/StaticDiagnosis.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
#include "support/RawStream.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

using namespace usher;

namespace {

/// 64-bit FNV-1a over the bytes of everything added.
struct Digest {
  uint64_t H = 1469598103934665603ull;
  void add(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
    // Separator, so "ab"+"c" and "a"+"bc" differ.
    H ^= 0xff;
    H *= 1099511628211ull;
  }
  void add(uint64_t V) { add(std::to_string(V)); }
};

using ModuleFactory = std::function<std::unique_ptr<ir::Module>()>;

/// Both postures' text and JSON reports.
void addDiagnosis(Digest &D, const ModuleFactory &Make) {
  auto M = Make();
  core::UsherOptions Opts;
  Opts.Variant = core::ToolVariant::UsherFull;
  core::UsherResult R = core::runUsher(*M, Opts);
  ASSERT_TRUE(R.PA && R.CG && R.G);
  for (bool Conservative : {false, true}) {
    core::DiagnosisOptions DOpts;
    DOpts.Conservative = Conservative;
    core::StaticDiagnosis Diag(*R.PA, *R.CG, *R.G, DOpts);
    std::string Text, Json;
    raw_string_ostream TS(Text), JS(Json);
    Diag.printText(TS);
    Diag.printJson(JS);
    D.add(Text);
    D.add(Json);
  }
}

void addQuery(Digest &D, const ModuleFactory &Make, uint32_t Src,
              uint32_t Sink, bool CutWalk = false) {
  auto M = Make();
  core::UsherOptions Opts;
  // The demand fast lane, as usher-cli --query and serve's query use it.
  Opts.Pta.Solver = analysis::SolverKind::Unify;
  if (CutWalk)
    Opts.Fault = FaultPlan{BudgetPhase::Definedness, /*AtStep=*/2, 0};
  core::QueryOutcome Q = core::runUsherQuery(*M, Opts, Src, Sink);
  std::string W;
  raw_string_ostream OS(W);
  analysis::printQueryWitness(OS, Q.Witness);
  D.add(Src);
  D.add(Sink);
  D.add(Q.Valid);
  D.add(Q.Error);
  D.add(Q.Reachable);
  D.add(Q.Exhausted);
  D.add(Q.StatesVisited);
  D.add(Q.NumNodes);
  D.add(W);
}

/// The fixed query sample of one program, chosen on the VFG that
/// runUsherQuery builds (unification points-to, default VFG options):
/// F to itself; F to the first reachable critical use, to the one with
/// the longest witness and to the first unreachable one; the tail of that
/// longest witness from its second node; two hash-derived pairs; F to the
/// first id past the graph; and the longest witness again under a fault
/// that cuts the walk after two states.
void addQueries(Digest &D, const ModuleFactory &Make) {
  auto M = Make();
  core::UsherOptions Opts;
  Opts.Pta.Solver = analysis::SolverKind::Unify;
  analysis::CallGraph CG(*M);
  analysis::PointerAnalysis PA(*M, CG, Opts.Pta);
  analysis::ModRefAnalysis MR(*M, CG, PA);
  ssa::MemorySSA SSA(*M, PA, MR);
  vfg::VFG G = vfg::VFGBuilder(*M, SSA, PA, CG, Opts.Vfg).build();
  const uint32_t N = G.numNodes();
  ASSERT_GT(N, 2u);

  uint32_t FirstReached = ~0u, Longest = ~0u, FirstMissed = ~0u;
  size_t LongestLen = 0;
  std::vector<analysis::QueryStep> LongestWitness;
  for (const vfg::VFG::CriticalUse &U : G.criticalUses()) {
    analysis::QueryResult Q =
        analysis::cflReachable(G, vfg::VFG::RootF, U.Node, Opts.ContextK);
    if (!Q.Reachable) {
      if (FirstMissed == ~0u)
        FirstMissed = U.Node;
      continue;
    }
    if (FirstReached == ~0u)
      FirstReached = U.Node;
    if (Q.Witness.size() > LongestLen) {
      LongestLen = Q.Witness.size();
      Longest = U.Node;
      LongestWitness = Q.Witness;
    }
  }

  addQuery(D, Make, vfg::VFG::RootF, vfg::VFG::RootF);
  for (uint32_t Sink : {FirstReached, Longest, FirstMissed})
    if (Sink != ~0u)
      addQuery(D, Make, vfg::VFG::RootF, Sink);
  if (LongestWitness.size() > 2)
    addQuery(D, Make, LongestWitness[1].Node, Longest);
  for (uint64_t Step : {1, 2})
    addQuery(D, Make, static_cast<uint32_t>((Step * 2654435761ull) % N),
             static_cast<uint32_t>((Step * 40503ull + 7) % N));
  addQuery(D, Make, vfg::VFG::RootF, N);
  if (Longest != ~0u)
    addQuery(D, Make, vfg::VFG::RootF, Longest, /*CutWalk=*/true);
}

std::string programDigest(const ModuleFactory &Make) {
  Digest D;
  addDiagnosis(D, Make);
  addQueries(D, Make);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(D.H));
  return Buf;
}

// A digest changes only with a deliberate change to diagnosis verdicts,
// witness search, report rendering, the query engine or the programs;
// re-pin it in the same change.
const char *const SuiteGoldens[] = {
    "0x0375175809af5b00", "0x0d1c84db8792d4ff", "0xb5d31d95399886ad",
    "0x47b05532e09ad030", "0x3c478716cf69e22b", "0x793f9faa72f2e8c8",
    "0x815e936e8661c928", "0xa9a7e54c6a6229c9", "0xb3f97de1a68f56d4",
    "0xebccef6e602a6da6", "0x4d6a2cae1b993c8f", "0xd63f0dedca4e2be6",
    "0x3245d7c66ce99c9a", "0xa3bc803d04c5b549", "0x80870212dcd8b981",
};

const struct {
  const char *Stem;
  const char *Digest;
} CorpusGoldens[] = {
    {"definite", "0x928511b798bcc8ff"},
    {"may_guarded", "0xc32f75d2858e2307"},
    {"clean_strong_update", "0xc8f7f723619b51bc"},
};

/// One digest per bucket of ten consecutive seeds, folded in seed order.
const char *const SeedBucketGoldens[] = {
    "0x86d46fc6d3ee393f", "0xbd95faf98c1aefd8", "0x85569ddedc11434e",
    "0x8406bc2577d18692", "0x32bbda766d5d2cd7", "0xaf90132a26c5a89a",
    "0x7b843f27b17987c4", "0xeed7e3ea32092435", "0x5650fbd428d46ebb",
    "0x14f5c2dab917078a",
};

class DiagnosisQuerySuite : public ::testing::TestWithParam<size_t> {};

TEST_P(DiagnosisQuerySuite, DigestIsPinned) {
  const auto &B = workload::spec2000Suite()[GetParam()];
  EXPECT_EQ(programDigest([&] { return workload::loadBenchmark(B); }),
            SuiteGoldens[GetParam()])
      << B.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DiagnosisQuerySuite, ::testing::Range<size_t>(0, 15),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = workload::spec2000Suite()[Info.param].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

TEST(DiagnosisQueryGolden, CorpusDigestsArePinned) {
  for (const auto &G : CorpusGoldens) {
    std::string Source;
    ASSERT_TRUE(readFile(std::string(USHER_TEST_INPUT_DIR) + "/diagnosis/" +
                             G.Stem + ".tc",
                         Source))
        << G.Stem;
    EXPECT_EQ(programDigest(
                  [&] { return parser::parseModuleOrAbort(Source); }),
              G.Digest)
        << G.Stem;
  }
}

class DiagnosisQuerySeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiagnosisQuerySeeds, BucketDigestIsPinned) {
  const uint64_t Bucket = GetParam();
  Digest D;
  for (uint64_t Seed = Bucket * 10; Seed != Bucket * 10 + 10; ++Seed)
    D.add(programDigest([&] { return workload::generateProgram(Seed); }));
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(D.H));
  EXPECT_EQ(std::string(Buf), SeedBucketGoldens[Bucket])
      << "seeds " << Bucket * 10 << ".." << Bucket * 10 + 9;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagnosisQuerySeeds,
                         ::testing::Range<uint64_t>(0, 10));

} // namespace
