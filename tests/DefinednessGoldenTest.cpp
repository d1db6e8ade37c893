//===- tests/DefinednessGoldenTest.cpp - Pinned definedness results -------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of Gamma (Section 3.3) over the VFG that runUsher builds.
/// Per program and configuration, the digest covers every node's bottom
/// bit, the number of bottom nodes, whether the result was pessimized and
/// the budget steps the resolution took, which pins the worklist's pop
/// sequence too. The configurations:
///  - ContextK 0, 1 and 2;
///  - the top-level-only resolution (AddressTakenAware = false);
///  - an explicit seed set (every 11th node, as a taint client passes);
///  - a synthetic redirect map (every 7th non-root node's dependencies
///    replaced by T, as Opt II rewrites them), so the filtered-flow path
///    is pinned;
///  - the same redirect map under a step budget of half the steps it
///    took, so the pessimistic completion over redirected dependencies is
///    pinned.
///
/// Programs: the suite, generator seeds 0-199 (in buckets of ten) and
/// synthesized programs of 2k, 10k and 40k target nodes, each at O0+IM and
/// at O1.
///
//===----------------------------------------------------------------------===//

#include "core/Definedness.h"
#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "support/Budget.h"
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
#include <unordered_map>
#include <vector>

using namespace usher;
using core::Definedness;
using core::DefinednessOptions;
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
};

using Redirects = std::unordered_map<uint32_t, std::vector<vfg::Edge>>;

/// Every 7th non-root node's dependencies, each replaced by an edge to T.
Redirects syntheticRedirects(const VFG &G) {
  Redirects R;
  for (uint32_t Id = 7; Id < G.numNodes(); Id += 7) {
    std::vector<vfg::Edge> Deps(G.deps(Id).begin(), G.deps(Id).end());
    for (vfg::Edge &E : Deps)
      E = {VFG::RootT, vfg::EdgeKind::Direct, ~0u};
    R[Id] = std::move(Deps);
  }
  return R;
}

/// The resolution configurations, in digest order.
enum Config : unsigned { K0, K1, K2, TopLevelOnly, Seeded, Redirected,
                         RedirectedExhausted, NumConfigs };

/// The digest of one or more programs' Gammas, and per configuration the
/// summed bottom-node count and budget steps.
struct GammaSummary {
  Digest D;
  uint64_t Undef[NumConfigs] = {};
  uint64_t Steps[NumConfigs] = {};

  void addGamma(Config C, const VFG &G, const Definedness &Gamma,
                const Budget &B) {
    D.add(C);
    uint64_t Word = 0;
    for (uint32_t Id = 0; Id != G.numNodes(); ++Id) {
      if (Gamma.mayBeUndefined(Id))
        Word |= 1ull << (Id % 64);
      if (Id % 64 == 63 || Id + 1 == G.numNodes()) {
        D.add(Word);
        Word = 0;
      }
    }
    D.add(Gamma.numUndefinedNodes());
    D.add(Gamma.wasPessimized());
    D.add(B.stepsUsed());
    Undef[C] += Gamma.numUndefinedNodes();
    Steps[C] += B.stepsUsed();
  }

  void add(const VFG &G) {
    D.add(G.numNodes());
    std::vector<uint32_t> Seeds;
    for (uint32_t Id = 3; Id < G.numNodes(); Id += 11)
      Seeds.push_back(Id);
    const Redirects R = syntheticRedirects(G);
    uint64_t RedirectedSteps = 0;
    for (unsigned C = 0; C != NumConfigs; ++C) {
      DefinednessOptions Opts;
      Opts.ContextK = C == K0 ? 0 : C == K2 ? 2 : 1;
      Opts.AddressTakenAware = C != TopLevelOnly;
      if (C == Seeded)
        Opts.Seeds = &Seeds;
      BudgetLimits L;
      // Unlimited, but armed, so the token counts the steps. The
      // exhausted configuration stops halfway through the redirected one.
      L.MaxStepsPerPhase = C == RedirectedExhausted
                               ? std::max<uint64_t>(1, RedirectedSteps / 2)
                               : ~0ull;
      Budget B(L);
      B.beginPhase(BudgetPhase::Definedness);
      const bool Redirect = C == Redirected || C == RedirectedExhausted;
      Definedness Gamma(G, Opts, Redirect ? &R : nullptr, &B);
      addGamma(static_cast<Config>(C), G, Gamma, B);
      if (C == Redirected)
        RedirectedSteps = B.stepsUsed();
    }
    D.add(~0ull);
  }

  std::string str() const {
    std::string S;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "0x%016llx undef=",
                  static_cast<unsigned long long>(D.H));
    S += Buf;
    for (unsigned C = 0; C != NumConfigs; ++C)
      S += (C ? "/" : "") + std::to_string(Undef[C]);
    S += " steps=";
    for (unsigned C = 0; C != NumConfigs; ++C)
      S += (C ? "/" : "") + std::to_string(Steps[C]);
    return S;
  }
};

using ModuleFactory = std::function<std::unique_ptr<ir::Module>()>;

/// Runs \p Make's module through \p Preset and runUsher and adds the
/// Gammas of its graph to \p S.
void addProgram(GammaSummary &S, const ModuleFactory &Make, OptPreset Preset,
                const std::string &What) {
  auto M = Make();
  transforms::runPreset(*M, Preset);
  core::UsherResult R = core::runUsher(*M, core::UsherOptions());
  ASSERT_FALSE(R.Degradation.Degraded) << What;
  ASSERT_TRUE(R.G) << What;
  S.add(*R.G);
}

const char *presetTag(OptPreset P) {
  return P == OptPreset::O1 ? "O1" : "O0IM";
}

OptPreset presetOf(size_t Idx, size_t PerPreset) {
  return Idx < PerPreset ? OptPreset::O0IM : OptPreset::O1;
}

// A digest changes only with a deliberate change to definedness
// resolution, to the VFG or analyses under it or to the programs; re-pin
// it in the same change. Each array is indexed like its parameter range,
// O0+IM rows first. Columns: K0/K1/K2/TL/seeded/redirected/exhausted.
const char *const SuiteGoldens[] = {
    "0x5be8b5cc7a1da4be undef=67/67/67/69/76/47/96 steps=61/64/64/72/75/46/24",
    "0x268f1088527d863d undef=92/92/92/95/64/49/115 steps=80/137/137/155/87/44/23",
    "0xd0f024658aeaabf4 undef=73/73/73/134/132/46/141 steps=71/115/177/260/205/64/33",
    "0x32911fc988326a79 undef=79/79/79/99/72/64/117 steps=65/65/65/94/54/54/28",
    "0xba9c6d192f78054d undef=113/113/113/145/102/75/157 steps=89/92/92/113/70/68/35",
    "0x374ffbdf8ece0439 undef=43/43/43/105/87/33/111 steps=40/40/40/128/83/31/16",
    "0x022b9ba6422cc3ea undef=127/127/127/160/99/78/173 steps=104/107/107/165/79/71/36",
    "0x75f67409f70663f6 undef=15/15/15/19/42/12/54 steps=16/16/16/20/48/13/7",
    "0x25376e0c909a0b18 undef=97/97/97/131/114/66/139 steps=84/93/93/179/135/64/33",
    "0x7d263a682dcf9564 undef=34/34/34/310/259/27/239 steps=29/29/29/103/45/25/13",
    "0x8155e4419a932853 undef=404/404/404/438/395/254/399 steps=239/262/262/345/259/165/83",
    "0x3b69a5216b9e9798 undef=806/806/806/904/621/582/742 steps=535/545/543/841/423/422/212",
    "0x0f7aff5233c28b99 undef=51/51/51/364/340/42/331 steps=52/52/52/555/411/43/22",
    "0x9df680359687c754 undef=111/111/111/116/106/69/135 steps=91/101/101/124/89/65/33",
    "0xc64a5b8b23771ce6 undef=141/141/141/162/138/102/194 steps=121/138/157/199/146/104/53",
    "0x65e8638d3e88f979 undef=67/67/67/69/74/56/96 steps=61/64/64/72/74/52/27",
    "0x268f1088527d863d undef=92/92/92/95/64/49/115 steps=80/137/137/155/87/44/23",
    "0xd0f024658aeaabf4 undef=73/73/73/134/132/46/141 steps=71/115/177/260/205/64/33",
    "0x8cc0ec2d8111492d undef=77/77/77/97/73/58/114 steps=63/63/63/92/54/51/26",
    "0xba9c6d192f78054d undef=113/113/113/145/102/75/157 steps=89/92/92/113/70/68/35",
    "0x374ffbdf8ece0439 undef=43/43/43/105/87/33/111 steps=40/40/40/128/83/31/16",
    "0x8047afbd22bbde05 undef=125/125/125/158/97/75/172 steps=102/105/105/163/77/69/35",
    "0x3a6e55934e0e6072 undef=15/15/15/19/36/12/54 steps=16/16/16/20/45/13/7",
    "0xf943f1c7b4435870 undef=95/95/95/129/114/60/136 steps=82/91/91/177/135/61/31",
    "0x7d263a682dcf9564 undef=34/34/34/310/259/27/239 steps=29/29/29/103/45/25/13",
    "0x4f72e484937db8cc undef=404/404/404/438/367/277/398 steps=239/262/262/345/238/199/100",
    "0xfd9d02416aefd715 undef=806/806/806/904/616/496/738 steps=535/545/543/841/420/390/196",
    "0xfe76027dde705200 undef=47/47/47/360/341/36/325 steps=48/48/48/551/413/37/19",
    "0x13b570490ff96372 undef=109/109/109/114/102/70/134 steps=89/99/99/122/86/66/34",
    "0xc64a5b8b23771ce6 undef=141/141/141/162/138/102/194 steps=121/138/157/199/146/104/53",
};

/// One row per bucket of ten consecutive seeds, folded in seed order.
const char *const SeedBucketGoldens[] = {
    "0x5000927405029de7 undef=2407/2399/2392/3245/1600/1739/3414 steps=2294/2808/3152/4458/2100/1831/922",
    "0x771d9043139f525e undef=2728/2721/2721/3880/1829/2030/3891 steps=2539/3063/3788/5229/2395/2187/1101",
    "0x1b417522a1037968 undef=2183/2178/2178/3206/1494/1647/3333 steps=1992/2090/2122/3865/1746/1593/804",
    "0x5d4d21702bf96a17 undef=2338/2338/2338/3362/1644/1692/3444 steps=2178/2646/3187/4419/2148/1756/885",
    "0xda9f1ba28839366c undef=2370/2351/2351/3366/1460/1724/3381 steps=2253/2427/2432/4375/1671/1707/860",
    "0x3c3d9e0f073bb71f undef=2133/2133/2126/3143/1382/1572/3236 steps=1992/2273/2399/4136/1637/1510/763",
    "0xae34a0f86a244e89 undef=2370/2370/2370/3697/1948/1699/3662 steps=2196/2764/3023/5962/2865/1771/894",
    "0x6dfbdcc4f70d2eb8 undef=1902/1881/1881/2759/1305/1360/2903 steps=1813/1941/2021/3637/1519/1345/678",
    "0x9353a421edf5590c undef=2647/2639/2639/4213/2269/1923/4164 steps=2485/2935/3372/7082/3709/1993/1004",
    "0x0ff499bf2e39ab34 undef=3461/3333/3319/5406/3011/2338/5157 steps=3170/4057/4893/9112/5087/2542/1279",
    "0xe52fdfdaebdee714 undef=2783/2768/2768/4110/2062/1974/4105 steps=2589/3075/3290/5749/2652/2021/1017",
    "0xfeea8f5427ce5bc1 undef=1741/1739/1738/2428/1067/1277/2485 steps=1645/1815/1826/3246/1232/1299/657",
    "0x2239edc31ea959b6 undef=2208/2173/2160/3274/1932/1598/3308 steps=2108/2848/3199/5334/3380/1971/994",
    "0x063d2687c246de06 undef=2442/2433/2432/3533/1859/1638/3551 steps=2274/2894/3478/5295/2628/1694/855",
    "0xae3285883887d089 undef=2365/2279/2279/3315/1780/1703/3316 steps=2237/2528/2702/4969/2670/1744/881",
    "0x659dee2fed489663 undef=2508/2467/2467/3695/2040/1777/3705 steps=2327/2942/3659/5562/3071/1902/958",
    "0xce21d961ff393989 undef=2530/2507/2507/3583/1689/1854/3662 steps=2289/2679/2849/4829/2144/1879/947",
    "0xc020f77c841b0a47 undef=2419/2410/2410/3201/1331/1837/3262 steps=2271/2429/2463/3855/1429/1833/924",
    "0xd11c01126a5a8e92 undef=1933/1924/1924/2680/1269/1412/2812 steps=1818/2252/2413/3784/1544/1501/759",
    "0x139ca27582f5d2de undef=2032/2019/2019/3005/1518/1476/3103 steps=1926/2148/2326/4232/1997/1480/748",
    "0x097377725a1c2be1 undef=716/712/712/863/499/539/1212 steps=707/719/724/938/488/549/281",
    "0x53b5c9db59ea59a6 undef=790/790/790/1053/521/609/1352 steps=738/752/752/1229/546/581/297",
    "0xb2ff17e358d75c58 undef=790/787/787/1056/525/615/1366 steps=754/752/752/1132/533/603/310",
    "0x9443505e329de271 undef=841/841/841/1173/683/602/1477 steps=808/848/891/1382/747/590/302",
    "0x3e0270eb03500dc2 undef=851/851/851/1100/533/652/1370 steps=832/844/844/1265/551/652/332",
    "0xfdd5d735a33f1bc4 undef=778/778/778/1065/517/573/1330 steps=733/779/815/1292/559/555/286",
    "0x78800493fd1514ba undef=877/877/877/1280/745/640/1501 steps=827/905/926/1928/972/634/325",
    "0xb79fda4669c2c6b3 undef=653/649/649/870/510/511/1171 steps=641/673/713/1076/533/524/270",
    "0x7f7e096521d99b82 undef=902/902/902/1242/638/671/1557 steps=867/875/875/1747/853/656/337",
    "0x585e34cf17ae2fe5 undef=1313/1248/1237/2005/1221/908/2156 steps=1211/1464/1659/3284/2059/991/503",
    "0x63339a5ea0a4452c undef=1054/1054/1054/1398/721/750/1718 steps=1025/1112/1122/1687/856/738/377",
    "0x053c76172a7ce4eb undef=604/604/604/761/419/471/1016 steps=590/596/596/851/421/474/245",
    "0xedb5f7e0a22dbd0c undef=769/760/750/1099/654/580/1349 steps=759/883/905/1662/970/664/339",
    "0x562353106fb8982a undef=893/890/890/1096/602/605/1398 steps=857/991/1279/1369/748/602/309",
    "0x52ead1c5b974ef11 undef=937/864/864/1247/745/636/1436 steps=903/949/1019/1862/1148/679/346",
    "0xedd2b7fc0dfd3158 undef=904/883/883/1365/875/639/1609 steps=859/922/967/1855/1130/633/325",
    "0xd8363b45a8dd5b3a undef=844/833/833/1090/583/668/1390 steps=788/791/791/1272/645/650/331",
    "0xa2ed7e3fc3fa6ea3 undef=751/751/751/981/455/579/1223 steps=718/725/726/1067/455/573/294",
    "0xc8df709d0ae34f5c undef=807/806/806/992/584/557/1285 steps=786/950/1009/1285/688/610/314",
    "0xf0768565c20fcbab undef=659/656/656/878/534/480/1146 steps=642/726/835/1191/712/520/268",
};

const char *const SynthGoldens[] = {
    "0xefd30782012610c4 undef=759/759/759/2581/2028/521/2351 steps=760/932/1404/5350/3944/557/279",
    "0xcb4c1ebc19ac6338 undef=776/776/776/2609/2084/532/2406 steps=777/952/1424/5399/4029/569/285",
    "0x930d98d5516ed72a undef=3387/3387/3387/8262/6758/2393/7676 steps=3388/4785/9029/16633/12860/2953/1477",
    "0x0841d17376ef756b undef=481/481/481/1497/1199/357/1412 steps=482/521/598/2970/2338/363/182",
    "0x0831fe7462dfcda3 undef=489/489/489/1505/1197/376/1454 steps=490/529/605/2978/2308/387/194",
    "0x953ec7e19f0b46a4 undef=2148/2148/2148/5473/4371/1500/5205 steps=2149/2801/4599/10875/8286/1699/850",
};

class DefinednessGoldenSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(DefinednessGoldenSuite, DigestIsPinned) {
  const size_t N = workload::spec2000Suite().size();
  const auto &Bench = workload::spec2000Suite()[GetParam() % N];
  GammaSummary S;
  addProgram(S, [&] { return workload::loadBenchmark(Bench); },
             presetOf(GetParam(), N), Bench.Name);
  EXPECT_EQ(S.str(), SuiteGoldens[GetParam()])
      << Bench.Name << ' ' << presetTag(presetOf(GetParam(), N));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DefinednessGoldenSuite, ::testing::Range<size_t>(0, 30),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      const size_t N = workload::spec2000Suite().size();
      std::string Name = workload::spec2000Suite()[Info.param % N].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name + "_" + presetTag(presetOf(Info.param, N));
    });

class DefinednessGoldenSeeds : public ::testing::TestWithParam<size_t> {};

TEST_P(DefinednessGoldenSeeds, BucketDigestIsPinned) {
  const size_t Buckets = 20;
  const uint64_t First = GetParam() % Buckets * 10;
  const OptPreset Preset = presetOf(GetParam(), Buckets);
  GammaSummary S;
  for (uint64_t Seed = First; Seed != First + 10; ++Seed)
    addProgram(S, [&] { return workload::generateProgram(Seed); }, Preset,
               "seed " + std::to_string(Seed));
  EXPECT_EQ(S.str(), SeedBucketGoldens[GetParam()])
      << "seeds " << First << ".." << First + 9 << ' ' << presetTag(Preset);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DefinednessGoldenSeeds,
                         ::testing::Range<size_t>(0, 40));

const unsigned SynthSizes[] = {2000, 10000, 40000};

class DefinednessGoldenSynth : public ::testing::TestWithParam<size_t> {};

TEST_P(DefinednessGoldenSynth, DigestIsPinned) {
  const unsigned Target = SynthSizes[GetParam() % 3];
  const OptPreset Preset = presetOf(GetParam(), 3);
  GammaSummary S;
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
    Sizes, DefinednessGoldenSynth, ::testing::Range<size_t>(0, 6),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return std::to_string(SynthSizes[Info.param % 3]) + "_" +
             presetTag(presetOf(Info.param, 3));
    });

/// The (representative, context) states explored at ContextK 0/1/2, on a
/// few programs at O1.
TEST(DefinednessGolden, StateCountsArePinned) {
  struct Row {
    std::string What;
    ModuleFactory Make;
    const char *States;
  };
  const auto &Suite = workload::spec2000Suite();
  const Row Rows[] = {
      {Suite[0].Name, [&] { return workload::loadBenchmark(Suite[0]); },
       "60/63/63"},
      {Suite[11].Name, [&] { return workload::loadBenchmark(Suite[11]); },
       "534/544/542"},
      {"seed 7", [] { return workload::generateProgram(7); }, "18/18/18"},
      {"synth 10000",
       [] {
         workload::ShapeSpec Spec;
         Spec.TargetNodes = 10000;
         return parser::parseModuleOrAbort(workload::synthesizeProgram(Spec));
       },
       "489/528/604"},
  };
  for (const Row &R : Rows) {
    auto M = R.Make();
    transforms::runPreset(*M, OptPreset::O1);
    core::UsherResult UR = core::runUsher(*M, core::UsherOptions());
    ASSERT_TRUE(UR.G) << R.What;
    std::string States;
    for (unsigned K = 0; K != 3; ++K) {
      DefinednessOptions Opts;
      Opts.ContextK = K;
      States += (K ? "/" : "") +
                std::to_string(Definedness(*UR.G, Opts).numStates());
    }
    EXPECT_EQ(UR.Stats.NumDefinednessStates,
              Definedness(*UR.G, DefinednessOptions()).numStates())
        << R.What;
    EXPECT_EQ(States, R.States) << R.What;
  }
}

} // namespace
