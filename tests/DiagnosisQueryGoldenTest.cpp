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
/// Each program has two digests. The text reports name nodes by their
/// describeNode labels, never by id, so their digest pins verdicts and
/// witness shapes across any renumbering of the VFG. The JSON reports and
/// the queries carry node ids and state counts and share the other digest.
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

/// Both postures' text reports into \p Text, their JSON reports into \p D.
void addDiagnosis(Digest &Text, Digest &D, const ModuleFactory &Make) {
  auto M = Make();
  core::UsherOptions Opts;
  Opts.Variant = core::ToolVariant::UsherFull;
  core::UsherResult R = core::runUsher(*M, Opts);
  ASSERT_TRUE(R.PA && R.CG && R.G);
  for (bool Conservative : {false, true}) {
    core::DiagnosisOptions DOpts;
    DOpts.Conservative = Conservative;
    core::StaticDiagnosis Diag(*R.PA, *R.CG, *R.G, DOpts);
    std::string T, Json;
    raw_string_ostream TS(T), JS(Json);
    Diag.printText(TS);
    Diag.printJson(JS);
    Text.add(T);
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

std::string hex(const Digest &D) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(D.H));
  return Buf;
}

/// A program's two digests: its text reports, then its JSON reports and
/// queries.
struct ProgramDigests {
  std::string Text, Rest;
};

ProgramDigests programDigests(const ModuleFactory &Make) {
  Digest Text, D;
  addDiagnosis(Text, D, Make);
  addQueries(D, Make);
  return {hex(Text), hex(D)};
}

// A digest changes only with a deliberate change to diagnosis verdicts,
// witness search, report rendering, the query engine or the programs;
// re-pin it in the same change. Each pair is {text, JSON and queries}.
const ProgramDigests SuiteGoldens[] = {
    {"0x8d217e3a73ad9113", "0x0222f31ce244d2e0"},
    {"0x076d2f33e9c092ff", "0x533f224572543046"},
    {"0xdd9646046d4240c3", "0x9fe59369dfc8994b"},
    {"0x5550be8f6466ff83", "0x9f6fad428b7302f4"},
    {"0x4a6797be8a30d5a9", "0xf52c6c4963fd5075"},
    {"0x702872e694c1fcf9", "0x5ab8cfff862d7e7b"},
    {"0xc15772ddea18aebb", "0x497ab92ba9adf3f8"},
    {"0xd1112afd4cf4e529", "0x4ccb380dc72add3d"},
    {"0x387550ecaf0bbbc7", "0xe2c69c4318a9eaaa"},
    {"0x9127a9ef9c3215ca", "0x6eeedf386b362ad1"},
    {"0xbe0dbb877ce9e077", "0xf514564f4fd17c0f"},
    {"0x2323bcd129eed60b", "0x5f405cfac5c0ce80"},
    {"0xf0e1adfdaf2f5361", "0x572db3e9a9d1d5ea"},
    {"0x029ec0d7464625fd", "0x17ce01000af4e4f1"},
    {"0x619300e53d8090ab", "0xa314e8ef79316499"},
};

const struct {
  const char *Stem;
  ProgramDigests Digests;
} CorpusGoldens[] = {
    {"definite", {"0x11ecb92e8c7b331e", "0x439b2ce4251d1148"}},
    {"may_guarded", {"0x399d711e14b7f339", "0x215a6711dc50e1f3"}},
    {"clean_strong_update", {"0x037d350c724741e9", "0x70747d633a8f7e47"}},
};

/// One pair per bucket of ten consecutive seeds, each digest folded in
/// seed order.
const ProgramDigests SeedBucketGoldens[] = {
    {"0x2066d210168a5702", "0x317391fe76e66e57"},
    {"0xb31bbc328eb597f6", "0x6f41b3b3658cf429"},
    {"0xe5c87cd6affa9a04", "0x01b8897bad5ceb42"},
    {"0x68e7148069429525", "0xfea29c26f0473b4b"},
    {"0x5678476b5ae238c5", "0x47016a6b66e2a34e"},
    {"0x3092629ea46e9c1b", "0x67f9b9c2083e6717"},
    {"0xb9c03405a94bd9da", "0x659069b5dd2c98ec"},
    {"0x36cad1b6bd0a32c3", "0x5860d796dae2d571"},
    {"0x5199de19f7ba873b", "0x1f88bdb2b496d3d3"},
    {"0x4f947b313bfa5afa", "0xaaa8cf6a6b10cc1d"},
};

void expectDigests(const ProgramDigests &Got, const ProgramDigests &Want,
                   const std::string &What) {
  EXPECT_EQ(Got.Text, Want.Text) << What << " (text reports)";
  EXPECT_EQ(Got.Rest, Want.Rest) << What << " (JSON reports and queries)";
}

class DiagnosisQuerySuite : public ::testing::TestWithParam<size_t> {};

TEST_P(DiagnosisQuerySuite, DigestIsPinned) {
  const auto &B = workload::spec2000Suite()[GetParam()];
  expectDigests(programDigests([&] { return workload::loadBenchmark(B); }),
                SuiteGoldens[GetParam()], B.Name);
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
    expectDigests(
        programDigests([&] { return parser::parseModuleOrAbort(Source); }),
        G.Digests, G.Stem);
  }
}

class DiagnosisQuerySeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiagnosisQuerySeeds, BucketDigestIsPinned) {
  const uint64_t Bucket = GetParam();
  Digest Text, Rest;
  for (uint64_t Seed = Bucket * 10; Seed != Bucket * 10 + 10; ++Seed) {
    ProgramDigests P =
        programDigests([&] { return workload::generateProgram(Seed); });
    Text.add(P.Text);
    Rest.add(P.Rest);
  }
  expectDigests({hex(Text), hex(Rest)}, SeedBucketGoldens[Bucket],
                "seeds " + std::to_string(Bucket * 10) + ".." +
                    std::to_string(Bucket * 10 + 9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagnosisQuerySeeds,
                         ::testing::Range<uint64_t>(0, 10));

} // namespace
