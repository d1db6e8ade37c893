//===- tests/VFGGoldenTest.cpp - Pinned value-flow graphs -----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of the VFG that runUsher builds (full Usher, default
/// options). Per program, the digest covers every node (function, key,
/// version, origin, defining statement, dependency and user edges), each
/// statement's reachability and useNode() answers, the critical uses, and
/// the counters that describe the graph: memory SSA versions, pruned
/// versions, the strong / semi-strong / weak store chis and the semi-strong
/// cuts per allocation anchor. A change to how much memory SSA is placed
/// must leave all of it unchanged.
///
/// Programs: the suite, generator seeds 0-199 (in buckets of ten), the fuzz
/// and diagnosis corpora and synthesized programs of 2k, 10k and 40k
/// target nodes, each at O0+IM and at O1.
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "support/RawStream.h"
#include "transforms/Transforms.h"
#include "vfg/VFG.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace usher;
using transforms::OptPreset;
using vfg::VFG;

namespace {

/// 64-bit FNV-1a over a stream of integers.
struct Digest {
  uint64_t H = 1469598103934665603ull;
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void addEdges(const std::vector<vfg::Edge> &Edges) {
    add(Edges.size());
    for (const vfg::Edge &E : Edges) {
      add(E.Node);
      add(static_cast<uint64_t>(E.Kind));
      add(E.CallSite);
    }
  }
};

/// The digest and counters of one or more programs' graphs.
struct GraphSummary {
  Digest D;
  uint64_t Versions = 0, Pruned = 0, Strong = 0, Semi = 0, Weak = 0,
           Cuts = 0;

  void add(const ir::Module &M, const VFG &G) {
    for (uint64_t V : {G.numMemSSAVersions(), G.numPrunedMemVersions(),
                       G.numStrongStoreChis(), G.numSemiStrongStoreChis(),
                       G.numWeakStoreChis()})
      D.add(V);
    Versions += G.numMemSSAVersions();
    Pruned += G.numPrunedMemVersions();
    Strong += G.numStrongStoreChis();
    Semi += G.numSemiStrongStoreChis();
    Weak += G.numWeakStoreChis();

    D.add(G.numNodes());
    for (uint32_t Id = 0; Id != G.numNodes(); ++Id) {
      D.add(static_cast<uint64_t>(G.origin(Id)));
      if (!G.isRoot(Id)) {
        const VFG::NodeData &N = G.node(Id);
        D.add(N.Fn->getId());
        D.add(static_cast<uint64_t>(N.Key.Sp));
        D.add(N.Key.Id);
        D.add(N.Version);
        D.add(N.Def ? N.Def->getId() : ~0ull);
      }
      D.addEdges(G.deps(Id));
      D.addEdges(G.users(Id));
    }

    for (const auto &F : M.functions())
      for (const auto &BB : F->blocks())
        for (const auto &I : BB->instructions()) {
          D.add(I->getId());
          D.add(G.reachable(I.get()));
          std::vector<ir::Variable *> Used;
          I->collectUsedVars(Used);
          for (const ir::Variable *V : Used)
            D.add(G.useNode(I.get(), V));
        }

    D.add(G.criticalUses().size());
    for (const VFG::CriticalUse &U : G.criticalUses()) {
      D.add(U.I->getId());
      D.add(U.Var->getId());
      D.add(U.Node);
    }

    std::vector<std::pair<uint32_t, uint32_t>> SemiCuts(
        G.semiStrongCuts().begin(), G.semiStrongCuts().end());
    std::sort(SemiCuts.begin(), SemiCuts.end());
    for (const auto &[Obj, Count] : SemiCuts) {
      D.add(Obj);
      D.add(Count);
      Cuts += Count;
    }
    D.add(~0ull);
  }

  std::string str() const {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "0x%016llx versions=%llu pruned=%llu s/ss/w=%llu/%llu/%llu "
                  "cuts=%llu",
                  static_cast<unsigned long long>(D.H),
                  static_cast<unsigned long long>(Versions),
                  static_cast<unsigned long long>(Pruned),
                  static_cast<unsigned long long>(Strong),
                  static_cast<unsigned long long>(Semi),
                  static_cast<unsigned long long>(Weak),
                  static_cast<unsigned long long>(Cuts));
    return Buf;
  }
};

using ModuleFactory = std::function<std::unique_ptr<ir::Module>()>;

/// Runs \p Make's module through \p Preset and runUsher and adds its
/// graph to \p S.
void addProgram(GraphSummary &S, const ModuleFactory &Make, OptPreset Preset,
                const std::string &What) {
  auto M = Make();
  transforms::runPreset(*M, Preset);
  core::UsherResult R = core::runUsher(*M, core::UsherOptions());
  ASSERT_FALSE(R.Degradation.Degraded) << What;
  ASSERT_TRUE(R.G) << What;
  S.add(*M, *R.G);
}

std::unique_ptr<ir::Module> parseInput(const std::string &Path) {
  std::string Source;
  EXPECT_TRUE(readFile(std::string(USHER_TEST_INPUT_DIR) + "/" + Path,
                       Source))
      << Path;
  return parser::parseModuleOrAbort(Source);
}

const char *presetTag(OptPreset P) {
  return P == OptPreset::O1 ? "O1" : "O0IM";
}

// A digest changes only with a deliberate change to VFG construction, to
// the analyses under it or to the programs; re-pin it in the same change.
// Each array is indexed like its parameter range, O0+IM rows first.
const char *const SuiteGoldens[] = {
    "0x636727cc26af906a versions=12 pruned=0 s/ss/w=1/0/2 cuts=0",
    "0x29f9995238aafe2f versions=13 pruned=1 s/ss/w=2/0/5 cuts=0",
    "0xfc68ad106c159b5c versions=83 pruned=13 s/ss/w=1/7/0 cuts=7",
    "0x62e063f0fdd41c55 versions=19 pruned=0 s/ss/w=1/0/3 cuts=0",
    "0x5370082a256796c2 versions=38 pruned=0 s/ss/w=0/0/11 cuts=0",
    "0x3feb3e631b2296b9 versions=46 pruned=12 s/ss/w=1/4/2 cuts=4",
    "0x3339e986b4b8e835 versions=31 pruned=0 s/ss/w=1/0/6 cuts=0",
    "0x4fcbfc1fd4822c31 versions=1 pruned=0 s/ss/w=1/0/0 cuts=0",
    "0x93db97db196ea866 versions=53 pruned=11 s/ss/w=1/3/3 cuts=3",
    "0x92ba43c04992d100 versions=268 pruned=0 s/ss/w=0/0/68 cuts=0",
    "0xcda9cc61ba1d6d44 versions=243 pruned=0 s/ss/w=0/0/40 cuts=0",
    "0x77fb849b88e04ab5 versions=867 pruned=64 s/ss/w=1/0/161 cuts=0",
    "0xe050af8aa4a6936f versions=281 pruned=12 s/ss/w=1/4/37 cuts=4",
    "0xbd30d8090b600d24 versions=28 pruned=0 s/ss/w=1/0/6 cuts=0",
    "0xa1438baaa017a39c versions=26 pruned=0 s/ss/w=1/0/7 cuts=0",
    "0x30b156a139aefd44 versions=12 pruned=0 s/ss/w=1/0/2 cuts=0",
    "0x6ab6747de38a19c6 versions=13 pruned=1 s/ss/w=2/0/5 cuts=0",
    "0xb379d242d4a55994 versions=83 pruned=13 s/ss/w=1/7/0 cuts=7",
    "0xfbdfdc8aa1521300 versions=19 pruned=0 s/ss/w=1/0/3 cuts=0",
    "0xbfb4426a86e1c842 versions=38 pruned=0 s/ss/w=0/0/11 cuts=0",
    "0x0f20e57da33d79d9 versions=46 pruned=12 s/ss/w=1/4/2 cuts=4",
    "0x5d2cf7c0afaa808f versions=31 pruned=0 s/ss/w=1/0/6 cuts=0",
    "0x62cd57d320664a82 versions=1 pruned=0 s/ss/w=1/0/0 cuts=0",
    "0x31ffadbc2413a169 versions=53 pruned=11 s/ss/w=1/3/3 cuts=3",
    "0x3f4c72987b231f7e versions=268 pruned=0 s/ss/w=0/0/68 cuts=0",
    "0x0ddf234ce067f7ae versions=243 pruned=0 s/ss/w=0/0/40 cuts=0",
    "0xd4584ad8235741aa versions=867 pruned=64 s/ss/w=1/0/161 cuts=0",
    "0x21811149044ab58e versions=281 pruned=12 s/ss/w=1/4/37 cuts=4",
    "0x53743856c912c450 versions=28 pruned=0 s/ss/w=1/0/6 cuts=0",
    "0xdd1657974c3678c5 versions=26 pruned=0 s/ss/w=1/0/7 cuts=0",
};

/// One row per bucket of ten consecutive seeds, folded in seed order.
const char *const SeedBucketGoldens[] = {
    "0xa627445c454f9ea9 versions=2992 pruned=1956 s/ss/w=65/30/95 cuts=30",
    "0x0d45eaaaa5915ff0 versions=5876 pruned=4634 s/ss/w=88/55/83 cuts=55",
    "0x329282b1048cf4b0 versions=2945 pruned=2055 s/ss/w=91/50/70 cuts=50",
    "0xdbfa72f05c7232fe versions=3491 pruned=2423 s/ss/w=59/52/89 cuts=52",
    "0x36a8feac06b458e1 versions=3623 pruned=2617 s/ss/w=72/38/111 cuts=38",
    "0x64ff40a5d226553e versions=3660 pruned=2736 s/ss/w=66/49/74 cuts=49",
    "0x346f0381732f0705 versions=4660 pruned=3181 s/ss/w=79/51/95 cuts=51",
    "0xadecbd3bb76f74f2 versions=2821 pruned=1877 s/ss/w=44/24/69 cuts=24",
    "0xe460b977d7b916ed versions=5573 pruned=3933 s/ss/w=63/46/80 cuts=46",
    "0xcef173086a257982 versions=5926 pruned=3440 s/ss/w=70/51/263 cuts=51",
    "0xddf962705bd93e05 versions=4154 pruned=2592 s/ss/w=69/36/139 cuts=36",
    "0x0b17b2e9f4c80b69 versions=3050 pruned=2289 s/ss/w=58/24/95 cuts=24",
    "0x332a8bfa82962000 versions=3731 pruned=2360 s/ss/w=53/40/110 cuts=40",
    "0x09460c94d4be29e7 versions=4243 pruned=2865 s/ss/w=67/33/98 cuts=33",
    "0x74aa4ece8b46c60a versions=3222 pruned=2101 s/ss/w=64/34/120 cuts=34",
    "0xbb38dd0ab7b16a66 versions=4942 pruned=3413 s/ss/w=73/30/111 cuts=30",
    "0x5648e4cfb00a4483 versions=3712 pruned=2490 s/ss/w=55/44/91 cuts=44",
    "0x477f88c2531de7c7 versions=3503 pruned=2685 s/ss/w=71/47/47 cuts=47",
    "0xefe167f89bd61199 versions=3212 pruned=2244 s/ss/w=50/34/111 cuts=34",
    "0xb7d518d7d0fee134 versions=3477 pruned=2424 s/ss/w=87/23/64 cuts=23",
    "0xf55fbf7235d936e3 versions=2206 pruned=2087 s/ss/w=62/29/88 cuts=29",
    "0x4045a1849bef969c versions=3956 pruned=3782 s/ss/w=79/50/67 cuts=50",
    "0xa5a9a1ca3432681e versions=2270 pruned=2096 s/ss/w=92/49/60 cuts=49",
    "0x7bf8670f372cea15 versions=2721 pruned=2454 s/ss/w=59/51/88 cuts=51",
    "0xde6b9284f7040085 versions=2679 pruned=2469 s/ss/w=72/35/102 cuts=35",
    "0x7418a3cc54585c71 versions=2873 pruned=2644 s/ss/w=60/46/70 cuts=46",
    "0xad39e4a7155ad2bc versions=3666 pruned=3276 s/ss/w=74/49/88 cuts=49",
    "0xd438cd7724f03a7b versions=1901 pruned=1668 s/ss/w=31/21/57 cuts=21",
    "0xde714d455362cef3 versions=3911 pruned=3661 s/ss/w=61/44/79 cuts=44",
    "0x2ae817164294386c versions=4551 pruned=3665 s/ss/w=69/52/243 cuts=52",
    "0x87f030fde3753b88 versions=3086 pruned=2767 s/ss/w=68/35/134 cuts=35",
    "0x78dd6bcee9904e8a versions=2180 pruned=2067 s/ss/w=57/21/82 cuts=21",
    "0xe9f50f81358dcd27 versions=2801 pruned=2424 s/ss/w=53/38/103 cuts=38",
    "0x640e0a4cc30ac767 versions=3470 pruned=3242 s/ss/w=66/33/97 cuts=33",
    "0x07fe30efd7953717 versions=2315 pruned=1886 s/ss/w=62/32/108 cuts=32",
    "0x0b39f9a9640cbaa7 versions=3638 pruned=3148 s/ss/w=74/29/103 cuts=29",
    "0x98a868566309b9ae versions=2895 pruned=2673 s/ss/w=56/43/71 cuts=43",
    "0x9f9bf89b5da961bc versions=2221 pruned=2059 s/ss/w=62/43/31 cuts=43",
    "0x50b322834cd65894 versions=2675 pruned=2407 s/ss/w=50/34/99 cuts=34",
    "0xf2b02d107c01472e versions=2294 pruned=2051 s/ss/w=78/21/60 cuts=21",
};

const char *const CorpusGoldens[] = {
    "0xdf2d2fd4d57878ab versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0x21b48c5aed65fbb7 versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0x8620695a0ec35c26 versions=4 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0xa0ce81781842cb43 versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0xfc04b619e4b8f0e5 versions=1 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0xa9563a14d7f08536 versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0x68bdd5bf06d38126 versions=10 pruned=1 s/ss/w=0/2/2 cuts=2",
    "0x341a9ba9f1ea6043 versions=7 pruned=3 s/ss/w=0/1/0 cuts=1",
    "0x31ae9fa45d1aa408 versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0x9fe77369b8847b69 versions=12 pruned=2 s/ss/w=0/2/0 cuts=2",
    "0x0d78c2fb60126a78 versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0x9db50944241fb419 versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0x84bc5bd194532fce versions=2 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0xc7650db552ac1a06 versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0xfc04b619e4b8f0e5 versions=1 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0x2a4cfdd78b34697d versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0x68bdd5bf06d38126 versions=10 pruned=1 s/ss/w=0/2/2 cuts=2",
    "0x341a9ba9f1ea6043 versions=7 pruned=3 s/ss/w=0/1/0 cuts=1",
    "0x0d78c2fb60126a78 versions=0 pruned=0 s/ss/w=0/0/0 cuts=0",
    "0xdfef3da2fe8525d5 versions=12 pruned=2 s/ss/w=0/2/0 cuts=2",
};

const char *const SynthGoldens[] = {
    "0xf8532649b31d1351 versions=7974 pruned=6200 s/ss/w=50/1/38 cuts=1",
    "0x682cac802660c3e0 versions=8514 pruned=6732 s/ss/w=50/3/44 cuts=3",
    "0x31b6b44696819393 versions=25033 pruned=19288 s/ss/w=119/17/85 cuts=17",
    "0x2ef233ae3f107377 versions=6722 pruned=5863 s/ss/w=50/1/38 cuts=1",
    "0xfa498aef59e482ac versions=6838 pruned=5979 s/ss/w=50/3/44 cuts=3",
    "0x045f474ccaf6a1d9 versions=20246 pruned=16737 s/ss/w=119/17/85 cuts=17",
};

OptPreset presetOf(size_t Idx, size_t PerPreset) {
  return Idx < PerPreset ? OptPreset::O0IM : OptPreset::O1;
}

class VFGGoldenSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(VFGGoldenSuite, DigestIsPinned) {
  const size_t N = workload::spec2000Suite().size();
  const auto &B = workload::spec2000Suite()[GetParam() % N];
  GraphSummary S;
  addProgram(S, [&] { return workload::loadBenchmark(B); },
             presetOf(GetParam(), N), B.Name);
  EXPECT_EQ(S.str(), SuiteGoldens[GetParam()])
      << B.Name << ' ' << presetTag(presetOf(GetParam(), N));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, VFGGoldenSuite, ::testing::Range<size_t>(0, 30),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      const size_t N = workload::spec2000Suite().size();
      std::string Name = workload::spec2000Suite()[Info.param % N].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name + "_" + presetTag(presetOf(Info.param, N));
    });

class VFGGoldenSeeds : public ::testing::TestWithParam<size_t> {};

TEST_P(VFGGoldenSeeds, BucketDigestIsPinned) {
  const size_t Buckets = 20;
  const uint64_t First = GetParam() % Buckets * 10;
  const OptPreset Preset = presetOf(GetParam(), Buckets);
  GraphSummary S;
  for (uint64_t Seed = First; Seed != First + 10; ++Seed)
    addProgram(S, [&] { return workload::generateProgram(Seed); }, Preset,
               "seed " + std::to_string(Seed));
  EXPECT_EQ(S.str(), SeedBucketGoldens[GetParam()])
      << "seeds " << First << ".." << First + 9 << ' ' << presetTag(Preset);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VFGGoldenSeeds,
                         ::testing::Range<size_t>(0, 40));

/// The fuzz and diagnosis corpora, in name order.
std::vector<std::string> corpusPrograms() {
  return {"diagnosis/clean_strong_update.tc", "diagnosis/definite.tc",
          "diagnosis/may_guarded.tc",         "fuzz/call_undef.tc",
          "fuzz/global_uninit.tc",            "fuzz/opt2_dup.tc",
          "fuzz/ptr_store_load.tc",           "fuzz/semi_strong_heap.tc",
          "fuzz/strong_update_clean.tc",      "fuzz/walk_partial.tc"};
}

TEST(VFGGolden, CorpusDigestsArePinned) {
  const std::vector<std::string> Programs = corpusPrograms();
  for (size_t Idx = 0; Idx != 2 * Programs.size(); ++Idx) {
    const std::string &Path = Programs[Idx % Programs.size()];
    const OptPreset Preset = presetOf(Idx, Programs.size());
    GraphSummary S;
    addProgram(S, [&] { return parseInput(Path); }, Preset, Path);
    EXPECT_EQ(S.str(), CorpusGoldens[Idx])
        << Path << ' ' << presetTag(Preset);
  }
}

const unsigned SynthSizes[] = {2000, 10000, 40000};

class VFGGoldenSynth : public ::testing::TestWithParam<size_t> {};

TEST_P(VFGGoldenSynth, DigestIsPinned) {
  const unsigned Target = SynthSizes[GetParam() % 3];
  const OptPreset Preset = presetOf(GetParam(), 3);
  GraphSummary S;
  addProgram(
      S,
      [&] {
        workload::ShapeSpec Spec;
        Spec.TargetNodes = Target;
        return parser::parseModuleOrAbort(workload::synthesizeProgram(Spec));
      },
      Preset, "synth " + std::to_string(Target));
  EXPECT_EQ(S.str(), SynthGoldens[GetParam()])
      << "synth " << Target << ' ' << presetTag(Preset);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, VFGGoldenSynth, ::testing::Range<size_t>(0, 6),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return std::to_string(SynthSizes[Info.param % 3]) + "_" +
             presetTag(presetOf(Info.param, 3));
    });

} // namespace
