//===- tests/PointsToGoldenTest.cpp - Pinned points-to sets ---------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of every variable's points-to set, under the Andersen
/// engine and under the unification engine. Per program and engine, the
/// digest covers each function id, each of its variable ids and the sorted
/// loc ids that pointsTo() returns, each loc also named by its object's
/// name and its field. A change to how the solvers store or harvest their
/// sets must leave every digest unchanged.
///
/// Programs: those of VFGGoldenTest (the suite, generator seeds 0-199 in
/// buckets of ten, the fuzz and diagnosis corpora and synthesized programs
/// of 2k, 10k and 40k target nodes), each at O0+IM and at O1.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "support/RawStream.h"
#include "transforms/Transforms.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace usher;
using analysis::PointerAnalysis;
using analysis::SolverKind;
using transforms::OptPreset;

namespace {

/// 64-bit FNV-1a over a stream of integers and strings.
struct Digest {
  uint64_t H = 1469598103934665603ull;
  void addByte(uint8_t B) {
    H ^= B;
    H *= 1099511628211ull;
  }
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      addByte((V >> (8 * I)) & 0xff);
  }
  void add(const std::string &S) {
    add(S.size());
    for (char C : S)
      addByte(static_cast<uint8_t>(C));
  }
};

/// The digest of one engine's points-to sets over one or more programs,
/// with the count of variables whose set is non-empty and the sum of the
/// set sizes.
struct PtsSummary {
  Digest D;
  uint64_t Sets = 0, Locs = 0;

  void add(const ir::Module &M, const PointerAnalysis &PA) {
    for (const auto &F : M.functions()) {
      D.add(F->getId());
      for (const auto &V : F->variables()) {
        const std::vector<uint32_t> &Pts = PA.pointsTo(V.get());
        D.add(V->getId());
        D.add(Pts.size());
        for (uint32_t LocId : Pts) {
          const analysis::PtLoc &L = PA.location(LocId);
          D.add(LocId);
          D.add(L.Obj->getName());
          D.add(L.Field);
        }
        Sets += !Pts.empty();
        Locs += Pts.size();
      }
    }
    D.add(~0ull);
  }

  std::string str() const {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "0x%016llx sets=%llu locs=%llu",
                  static_cast<unsigned long long>(D.H),
                  static_cast<unsigned long long>(Sets),
                  static_cast<unsigned long long>(Locs));
    return Buf;
  }
};

/// Both engines' summaries of the same programs.
struct EngineSummaries {
  PtsSummary Andersen, Unify;
  std::string str() const {
    return "andersen " + Andersen.str() + " unify " + Unify.str();
  }
};

using ModuleFactory = std::function<std::unique_ptr<ir::Module>()>;

/// Runs \p Make's module through \p Preset and each engine, on a fresh
/// module per engine (heap cloning adds objects to the module), and adds
/// its points-to sets to \p S.
void addProgram(EngineSummaries &S, const ModuleFactory &Make,
                OptPreset Preset, const std::string &What) {
  for (SolverKind K : {SolverKind::Optimized, SolverKind::Unify}) {
    auto M = Make();
    transforms::runPreset(*M, Preset);
    analysis::CallGraph CG(*M);
    analysis::PtaOptions Opts;
    Opts.Solver = K;
    PointerAnalysis PA(*M, CG, Opts);
    ASSERT_FALSE(PA.exhausted()) << What;
    (K == SolverKind::Unify ? S.Unify : S.Andersen).add(*M, PA);
  }
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

OptPreset presetOf(size_t Idx, size_t PerPreset) {
  return Idx < PerPreset ? OptPreset::O0IM : OptPreset::O1;
}

// A digest changes only with a deliberate change to the pointer analysis,
// to the transforms before it or to the programs; re-pin it in the same
// change. Each array is indexed like its parameter range, O0+IM rows
// first.
const char *const SuiteGoldens[] = {
    "andersen 0xb6395e30c6904740 sets=9 locs=9 "
    "unify 0xb6395e30c6904740 sets=9 locs=9",
    "andersen 0x42e53c93f3957e77 sets=9 locs=9 "
    "unify 0x42e53c93f3957e77 sets=9 locs=9",
    "andersen 0x551fabd721e5ed76 sets=29 locs=38 "
    "unify 0xb743d4417c8c0ca1 sets=29 locs=55",
    "andersen 0x777ddc29a99ee944 sets=13 locs=13 "
    "unify 0x777ddc29a99ee944 sets=13 locs=13",
    "andersen 0x14c4873019111d5d sets=12 locs=19 "
    "unify 0x14c4873019111d5d sets=12 locs=19",
    "andersen 0xab4db91967eff3ba sets=19 locs=19 "
    "unify 0xab4db91967eff3ba sets=19 locs=19",
    "andersen 0x1649aca49c25d66e sets=23 locs=23 "
    "unify 0x1649aca49c25d66e sets=23 locs=23",
    "andersen 0x8da953de2999b8a4 sets=0 locs=0 "
    "unify 0x8da953de2999b8a4 sets=0 locs=0",
    "andersen 0xc14b5d0df6d1d76a sets=22 locs=22 "
    "unify 0xc14b5d0df6d1d76a sets=22 locs=22",
    "andersen 0x494b318838885cbc sets=3 locs=69 "
    "unify 0x494b318838885cbc sets=3 locs=69",
    "andersen 0x04c105381553ff61 sets=21 locs=83 "
    "unify 0x04c105381553ff61 sets=21 locs=83",
    "andersen 0xaf6954f201ed2b92 sets=19 locs=267 "
    "unify 0xaf6954f201ed2b92 sets=19 locs=267",
    "andersen 0xeeaa00e92ebd5284 sets=35 locs=165 "
    "unify 0xeeaa00e92ebd5284 sets=35 locs=165",
    "andersen 0x5f8776c359c3e9b7 sets=17 locs=17 "
    "unify 0x5f8776c359c3e9b7 sets=17 locs=17",
    "andersen 0x7ac780377ecee940 sets=21 locs=21 "
    "unify 0x7ac780377ecee940 sets=21 locs=21",
    "andersen 0xb6395e30c6904740 sets=9 locs=9 "
    "unify 0xb6395e30c6904740 sets=9 locs=9",
    "andersen 0x42e53c93f3957e77 sets=9 locs=9 "
    "unify 0x42e53c93f3957e77 sets=9 locs=9",
    "andersen 0x551fabd721e5ed76 sets=29 locs=38 "
    "unify 0xb743d4417c8c0ca1 sets=29 locs=55",
    "andersen 0x777ddc29a99ee944 sets=13 locs=13 "
    "unify 0x777ddc29a99ee944 sets=13 locs=13",
    "andersen 0x14c4873019111d5d sets=12 locs=19 "
    "unify 0x14c4873019111d5d sets=12 locs=19",
    "andersen 0xab4db91967eff3ba sets=19 locs=19 "
    "unify 0xab4db91967eff3ba sets=19 locs=19",
    "andersen 0x1649aca49c25d66e sets=23 locs=23 "
    "unify 0x1649aca49c25d66e sets=23 locs=23",
    "andersen 0x8da953de2999b8a4 sets=0 locs=0 "
    "unify 0x8da953de2999b8a4 sets=0 locs=0",
    "andersen 0xc14b5d0df6d1d76a sets=22 locs=22 "
    "unify 0xc14b5d0df6d1d76a sets=22 locs=22",
    "andersen 0x494b318838885cbc sets=3 locs=69 "
    "unify 0x494b318838885cbc sets=3 locs=69",
    "andersen 0x04c105381553ff61 sets=21 locs=83 "
    "unify 0x04c105381553ff61 sets=21 locs=83",
    "andersen 0xaf6954f201ed2b92 sets=19 locs=267 "
    "unify 0xaf6954f201ed2b92 sets=19 locs=267",
    "andersen 0x9346dc2b7c200749 sets=34 locs=164 "
    "unify 0x9346dc2b7c200749 sets=34 locs=164",
    "andersen 0x5f8776c359c3e9b7 sets=17 locs=17 "
    "unify 0x5f8776c359c3e9b7 sets=17 locs=17",
    "andersen 0x7ac780377ecee940 sets=21 locs=21 "
    "unify 0x7ac780377ecee940 sets=21 locs=21",
};

/// One row per bucket of ten consecutive seeds, folded in seed order.
const char *const SeedBucketGoldens[] = {
    "andersen 0x50d2d60300a5eef6 sets=474 locs=549 "
    "unify 0x1e44485e83738998 sets=474 locs=578",
    "andersen 0x330f95f91aee949b sets=663 locs=744 "
    "unify 0xb40ff911fac58205 sets=663 locs=772",
    "andersen 0x8aba7648fc2f69e7 sets=599 locs=696 "
    "unify 0x52a4f354fa7c7906 sets=599 locs=842",
    "andersen 0x71bd87d1ee5ec670 sets=604 locs=707 "
    "unify 0x1cd8091d3fadba34 sets=604 locs=823",
    "andersen 0xec39b6fb25a402f2 sets=676 locs=817 "
    "unify 0xb1c8b3284fe51d53 sets=676 locs=888",
    "andersen 0x3c13f3b83203ff9a sets=610 locs=658 "
    "unify 0x0d10b75765166435 sets=610 locs=692",
    "andersen 0x7052c6b9fbc862aa sets=587 locs=737 "
    "unify 0x27e9a59bc0a21182 sets=587 locs=904",
    "andersen 0x6225329b7ce74348 sets=428 locs=479 "
    "unify 0x7a05e0002ba7a12b sets=428 locs=538",
    "andersen 0xd53fc834cda9d168 sets=597 locs=643 "
    "unify 0x83a3537dc7a872ba sets=597 locs=671",
    "andersen 0x91004b6a774bc2e6 sets=747 locs=1176 "
    "unify 0x2cff6e663aed7c73 sets=747 locs=1450",
    "andersen 0xc72c9541ca387077 sets=613 locs=763 "
    "unify 0x1c3cf27d99f35d68 sets=613 locs=864",
    "andersen 0xf259aedf602c7347 sets=448 locs=492 "
    "unify 0xd7d1ac3da52acf73 sets=448 locs=507",
    "andersen 0x9bd0a58d91945c73 sets=527 locs=717 "
    "unify 0x6eef8eb4f0b21153 sets=527 locs=796",
    "andersen 0xcb8287ee09b52ab8 sets=512 locs=662 "
    "unify 0x248069cfc8cbc3ab sets=512 locs=722",
    "andersen 0xbf61536e46331f30 sets=554 locs=690 "
    "unify 0xde162c2c180be123 sets=554 locs=821",
    "andersen 0x8e70de0342fe9df6 sets=553 locs=693 "
    "unify 0x0102ff68c2c7d067 sets=553 locs=779",
    "andersen 0x440c562211791777 sets=539 locs=658 "
    "unify 0x4706614e6e1788c5 sets=539 locs=799",
    "andersen 0xb94c462e388535f9 sets=534 locs=588 "
    "unify 0x548873c5698024bb sets=534 locs=688",
    "andersen 0x5ee2b894021f99b1 sets=504 locs=567 "
    "unify 0x644b2c9beb8db08f sets=504 locs=622",
    "andersen 0xe75bd3128a3d7f30 sets=513 locs=552 "
    "unify 0x24be17ec46b853db sets=513 locs=567",
    "andersen 0x36a809bb261f430a sets=273 locs=298 "
    "unify 0x39bb832b166d65e4 sets=273 locs=320",
    "andersen 0xc967b91a0679dd3e sets=344 locs=371 "
    "unify 0x183b254a8ff804c5 sets=344 locs=384",
    "andersen 0x5ae65f2273176ded sets=332 locs=362 "
    "unify 0x60ac7f8164325408 sets=332 locs=398",
    "andersen 0x42020a05aaa3ee90 sets=334 locs=380 "
    "unify 0x5c239606c448e3ab sets=334 locs=426",
    "andersen 0xc454a29dd21ac6a7 sets=365 locs=415 "
    "unify 0xd53fe0de9fc14786 sets=365 locs=456",
    "andersen 0x87bcac9ac51a18a9 sets=330 locs=356 "
    "unify 0xa39befde17cadc9b sets=330 locs=379",
    "andersen 0xb402fb7aa1048999 sets=345 locs=393 "
    "unify 0x91fa6b1bc5326694 sets=345 locs=501",
    "andersen 0x1b94761ed45b7ff1 sets=208 locs=230 "
    "unify 0x0b9d04a0030bf762 sets=208 locs=260",
    "andersen 0xf94835a4c9c64adf sets=350 locs=370 "
    "unify 0x69cc52ed0a62ac55 sets=350 locs=387",
    "andersen 0xf5a69c550462b26a sets=443 locs=672 "
    "unify 0x205c1cc0d55c34d5 sets=443 locs=847",
    "andersen 0x973c74a75a200383 sets=370 locs=450 "
    "unify 0xb5b5e7b7c87de7c2 sets=370 locs=503",
    "andersen 0xe6722206322b8c51 sets=246 locs=262 "
    "unify 0x37c6310a85f8f14a sets=246 locs=267",
    "andersen 0x371f24a5428d9d4f sets=303 locs=369 "
    "unify 0xbde2721ac30e54cf sets=303 locs=403",
    "andersen 0xc0ab122fa2331dd1 sets=303 locs=385 "
    "unify 0xb25cd84b5fec219d sets=303 locs=434",
    "andersen 0xec67b36fa959f084 sets=297 locs=348 "
    "unify 0x411c1d9efa3ff981 sets=297 locs=420",
    "andersen 0xd9ffa56876a995d2 sets=303 locs=363 "
    "unify 0x086e70e58447634e sets=303 locs=411",
    "andersen 0x90201f5b428890ed sets=305 locs=335 "
    "unify 0xd9e07b69623f9bea sets=305 locs=392",
    "andersen 0x1377e48775712dd5 sets=281 locs=294 "
    "unify 0x18fe8e7537290bb2 sets=281 locs=324",
    "andersen 0xe2a84e9d2191bf58 sets=311 locs=344 "
    "unify 0xe31ff79156c41c08 sets=311 locs=377",
    "andersen 0x3ba590b27822d44f sets=260 locs=276 "
    "unify 0x18a66d6d98743545 sets=260 locs=283",
};

const char *const CorpusGoldens[] = {
    "andersen 0x3b3c0e8b2cf10b98 sets=0 locs=0 "
    "unify 0x3b3c0e8b2cf10b98 sets=0 locs=0",
    "andersen 0x3b3c0e8b2cf10b98 sets=0 locs=0 "
    "unify 0x3b3c0e8b2cf10b98 sets=0 locs=0",
    "andersen 0x4366f9a87819d2fd sets=3 locs=4 "
    "unify 0x4366f9a87819d2fd sets=3 locs=4",
    "andersen 0x255ceeb2c86f00f9 sets=0 locs=0 "
    "unify 0x255ceeb2c86f00f9 sets=0 locs=0",
    "andersen 0x89402af094d38565 sets=1 locs=1 "
    "unify 0x89402af094d38565 sets=1 locs=1",
    "andersen 0x2a8028a6fcf2d1da sets=0 locs=0 "
    "unify 0x2a8028a6fcf2d1da sets=0 locs=0",
    "andersen 0x17f37475652a76e0 sets=5 locs=7 "
    "unify 0x583db70e0584bd37 sets=5 locs=9",
    "andersen 0x79f5eb38b8286c92 sets=3 locs=3 "
    "unify 0x79f5eb38b8286c92 sets=3 locs=3",
    "andersen 0x3a1bd3dfbc5048bb sets=0 locs=0 "
    "unify 0x3a1bd3dfbc5048bb sets=0 locs=0",
    "andersen 0x22056ad52c2f33ec sets=3 locs=7 "
    "unify 0x22056ad52c2f33ec sets=3 locs=7",
    "andersen 0x3b3c0e8b2cf10b98 sets=0 locs=0 "
    "unify 0x3b3c0e8b2cf10b98 sets=0 locs=0",
    "andersen 0x3b3c0e8b2cf10b98 sets=0 locs=0 "
    "unify 0x3b3c0e8b2cf10b98 sets=0 locs=0",
    "andersen 0x138e78f5ac9f003a sets=1 locs=1 "
    "unify 0x138e78f5ac9f003a sets=1 locs=1",
    "andersen 0x255ceeb2c86f00f9 sets=0 locs=0 "
    "unify 0x255ceeb2c86f00f9 sets=0 locs=0",
    "andersen 0x89402af094d38565 sets=1 locs=1 "
    "unify 0x89402af094d38565 sets=1 locs=1",
    "andersen 0x2a8028a6fcf2d1da sets=0 locs=0 "
    "unify 0x2a8028a6fcf2d1da sets=0 locs=0",
    "andersen 0x17f37475652a76e0 sets=5 locs=7 "
    "unify 0x583db70e0584bd37 sets=5 locs=9",
    "andersen 0x79f5eb38b8286c92 sets=3 locs=3 "
    "unify 0x79f5eb38b8286c92 sets=3 locs=3",
    "andersen 0x3a1bd3dfbc5048bb sets=0 locs=0 "
    "unify 0x3a1bd3dfbc5048bb sets=0 locs=0",
    "andersen 0x22056ad52c2f33ec sets=3 locs=7 "
    "unify 0x22056ad52c2f33ec sets=3 locs=7",
};

const char *const SynthGoldens[] = {
    "andersen 0x6acc7d5f73d6aa33 sets=231 locs=291 "
    "unify 0x6acc7d5f73d6aa33 sets=231 locs=291",
    "andersen 0x01a0d22c6fb362e8 sets=243 locs=303 "
    "unify 0x01a0d22c6fb362e8 sets=243 locs=303",
    "andersen 0x9cf6572b357f1511 sets=595 locs=695 "
    "unify 0x9cf6572b357f1511 sets=595 locs=695",
    "andersen 0xc63057fd2a2df0d4 sets=199 locs=239 "
    "unify 0xc63057fd2a2df0d4 sets=199 locs=239",
    "andersen 0x4c95f3db4b5191f8 sets=211 locs=251 "
    "unify 0x4c95f3db4b5191f8 sets=211 locs=251",
    "andersen 0x63734de94990d6f4 sets=506 locs=596 "
    "unify 0x63734de94990d6f4 sets=506 locs=596",
};

class PointsToGoldenSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(PointsToGoldenSuite, DigestIsPinned) {
  const size_t N = workload::spec2000Suite().size();
  const auto &B = workload::spec2000Suite()[GetParam() % N];
  EngineSummaries S;
  addProgram(S, [&] { return workload::loadBenchmark(B); },
             presetOf(GetParam(), N), B.Name);
  EXPECT_EQ(S.str(), SuiteGoldens[GetParam()])
      << B.Name << ' ' << presetTag(presetOf(GetParam(), N));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, PointsToGoldenSuite, ::testing::Range<size_t>(0, 30),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      const size_t N = workload::spec2000Suite().size();
      std::string Name = workload::spec2000Suite()[Info.param % N].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name + "_" + presetTag(presetOf(Info.param, N));
    });

class PointsToGoldenSeeds : public ::testing::TestWithParam<size_t> {};

TEST_P(PointsToGoldenSeeds, BucketDigestIsPinned) {
  const size_t Buckets = 20;
  const uint64_t First = GetParam() % Buckets * 10;
  const OptPreset Preset = presetOf(GetParam(), Buckets);
  EngineSummaries S;
  for (uint64_t Seed = First; Seed != First + 10; ++Seed)
    addProgram(S, [&] { return workload::generateProgram(Seed); }, Preset,
               "seed " + std::to_string(Seed));
  EXPECT_EQ(S.str(), SeedBucketGoldens[GetParam()])
      << "seeds " << First << ".." << First + 9 << ' ' << presetTag(Preset);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointsToGoldenSeeds,
                         ::testing::Range<size_t>(0, 40));

/// The fuzz and diagnosis corpora, in name order.
std::vector<std::string> corpusPrograms() {
  return {"diagnosis/clean_strong_update.tc", "diagnosis/definite.tc",
          "diagnosis/may_guarded.tc",         "fuzz/call_undef.tc",
          "fuzz/global_uninit.tc",            "fuzz/opt2_dup.tc",
          "fuzz/ptr_store_load.tc",           "fuzz/semi_strong_heap.tc",
          "fuzz/strong_update_clean.tc",      "fuzz/walk_partial.tc"};
}

TEST(PointsToGolden, CorpusDigestsArePinned) {
  const std::vector<std::string> Programs = corpusPrograms();
  for (size_t Idx = 0; Idx != 2 * Programs.size(); ++Idx) {
    const std::string &Path = Programs[Idx % Programs.size()];
    const OptPreset Preset = presetOf(Idx, Programs.size());
    EngineSummaries S;
    addProgram(S, [&] { return parseInput(Path); }, Preset, Path);
    EXPECT_EQ(S.str(), CorpusGoldens[Idx])
        << Path << ' ' << presetTag(Preset);
  }
}

const unsigned SynthSizes[] = {2000, 10000, 40000};

class PointsToGoldenSynth : public ::testing::TestWithParam<size_t> {};

TEST_P(PointsToGoldenSynth, DigestIsPinned) {
  const unsigned Target = SynthSizes[GetParam() % 3];
  const OptPreset Preset = presetOf(GetParam(), 3);
  EngineSummaries S;
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
    Sizes, PointsToGoldenSynth, ::testing::Range<size_t>(0, 6),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return std::to_string(SynthSizes[Info.param % 3]) + "_" +
             presetTag(presetOf(Info.param, 3));
    });

} // namespace
