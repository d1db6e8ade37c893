//===- tests/MemorySSAGoldenTest.cpp - Pinned memory SSA forms ------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of the memory SSA form that runUsher builds (full Usher,
/// default options). Per function, the digest covers its virtual input and
/// output parameters and which inputs a caller hands in; per block, its
/// phis (key, result version and every incoming (predecessor, version));
/// per reachable instruction, its top-level def version, the top-level
/// versions it reads, its mus and its chis (location, new and old version,
/// kind); and the definition site of every version of every key. Per
/// program it also pins the placed versions and the dropped ones: the
/// versions the unpruned VFG references (core::measureUnpruned) less those
/// the run's VFG references. A change to how memory SSA is laid out must
/// leave all of it unchanged.
///
/// Programs: the suite, generator seeds 0-199 (in buckets of ten), the fuzz
/// and diagnosis corpora and synthesized programs of 2k, 10k and 40k
/// target nodes, each at O0+IM and at O1 (the set VFGGoldenTest pins).
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
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
using ssa::DefDesc;
using ssa::Space;
using ssa::VarKey;
using transforms::OptPreset;

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

/// The digest and counters of one or more programs' memory SSA.
struct SSASummary {
  Digest D;
  uint64_t Placed = 0, Dropped = 0;

  void addDefs(const ssa::FunctionSSA &FS, VarKey Key) {
    const uint32_t N = FS.numVersions(Key);
    D.add(N);
    for (uint32_t V = 0; V != N; ++V) {
      const DefDesc &Desc = FS.defOf(Key, V);
      D.add(static_cast<uint64_t>(Desc.K));
      if (Desc.K == DefDesc::Kind::Inst) {
        D.add(Desc.I->getId());
        D.add(Desc.Idx);
      } else if (Desc.K == DefDesc::Kind::Phi) {
        D.add(Desc.PhiBlock->getId());
        D.add(Desc.Idx);
      }
    }
  }

  void addFunction(const ir::Function &F, const ssa::FunctionSSA &FS) {
    D.add(F.getId());
    D.add(FS.formalIns().size());
    for (size_t P = 0; P != FS.formalIns().size(); ++P) {
      D.add(FS.formalIns()[P]);
      D.add(FS.passedByCaller(P));
    }
    D.add(FS.formalOuts().size());
    for (uint32_t Loc : FS.formalOuts())
      D.add(Loc);

    for (const auto &BB : F.blocks()) {
      D.add(BB->getId());
      D.add(FS.phisIn(BB.get()).size());
      for (const ssa::PhiNode &Phi : FS.phisIn(BB.get())) {
        D.add(static_cast<uint64_t>(Phi.Var.Sp));
        D.add(Phi.Var.Id);
        D.add(Phi.ResultVersion);
        D.add(Phi.Incoming.size());
        for (const auto &[Pred, Version] : Phi.Incoming) {
          D.add(Pred->getId());
          D.add(Version);
        }
      }
      for (const auto &I : BB->instructions()) {
        const ssa::InstSSA *Info = FS.instInfo(I.get());
        D.add(Info != nullptr);
        if (!Info)
          continue;
        D.add(Info->TLDefVersion);
        D.add(Info->TLUses.size());
        for (const ssa::TLUse &Use : Info->TLUses) {
          D.add(Use.Var->getId());
          D.add(Use.Version);
        }
        D.add(Info->Mus.size());
        for (const ssa::MemUse &Mu : Info->Mus) {
          D.add(Mu.Loc);
          D.add(Mu.Version);
        }
        D.add(Info->Chis.size());
        for (const ssa::MemDef &Chi : Info->Chis) {
          D.add(Chi.Loc);
          D.add(Chi.NewVersion);
          D.add(Chi.OldVersion);
          D.add(static_cast<uint64_t>(Chi.Kind));
        }
      }
    }

    for (const auto &V : F.variables())
      addDefs(FS, {Space::TopLevel, V->getId()});
    for (uint32_t Loc : FS.formalIns())
      addDefs(FS, {Space::Memory, Loc});
  }

  void add(const ir::Module &M, const core::UsherResult &R) {
    const ssa::MemorySSA &SSA = *R.SSA;
    for (const auto &F : M.functions())
      addFunction(*F, SSA.get(F.get()));
    const uint64_t NumDropped =
        R.Stats.NumMemSSAVersions - R.G->numMemSSAVersions();
    D.add(SSA.numPlacedVersions());
    D.add(NumDropped);
    Placed += SSA.numPlacedVersions();
    Dropped += NumDropped;
    D.add(~0ull);
  }

  std::string str() const {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "0x%016llx placed=%llu dropped=%llu",
                  static_cast<unsigned long long>(D.H),
                  static_cast<unsigned long long>(Placed),
                  static_cast<unsigned long long>(Dropped));
    return Buf;
  }
};

using ModuleFactory = std::function<std::unique_ptr<ir::Module>()>;

/// Runs \p Make's module through \p Preset and runUsher and adds its
/// memory SSA to \p S.
void addProgram(SSASummary &S, const ModuleFactory &Make, OptPreset Preset,
                const std::string &What) {
  auto M = Make();
  transforms::runPreset(*M, Preset);
  const core::UsherOptions Opts;
  core::UsherResult R = core::runUsher(*M, Opts);
  ASSERT_FALSE(R.Degradation.Degraded) << What;
  ASSERT_TRUE(R.SSA) << What;
  core::measureUnpruned(*M, Opts, R);
  S.add(*M, R);
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

// A digest changes only with a deliberate change to memory SSA
// construction, to the analyses under it or to the programs; re-pin it in
// the same change. Each array is indexed like its parameter range, O0+IM
// rows first.
const char *const SuiteGoldens[] = {
    "0x5ff5c2ff81251581 placed=13 dropped=0",
    "0x064c0207c5ec7e86 placed=15 dropped=0",
    "0xeeef2a7d0faf9f27 placed=75 dropped=8",
    "0x8e760bc1e30dce67 placed=20 dropped=0",
    "0xef68e3e2a7fb495f placed=38 dropped=0",
    "0x89cfae907ad0bd5a placed=39 dropped=8",
    "0x93e3b306b71d60af placed=32 dropped=0",
    "0x17eea6b5e934f18c placed=2 dropped=0",
    "0x0a871adb26b988ec placed=46 dropped=8",
    "0x894ac937bc6af107 placed=268 dropped=0",
    "0xa373c2eef05fb08e placed=243 dropped=0",
    "0xad49cd688f7b3aa2 placed=804 dropped=64",
    "0x0ee6a132d7b4b859 placed=273 dropped=8",
    "0xc96caee9ed07564e placed=29 dropped=0",
    "0xb3ddb2e4aa63752b placed=27 dropped=0",
    "0x42c80fc56fc83dee placed=13 dropped=0",
    "0x8dd0939c258f407c placed=15 dropped=0",
    "0xa65d6d38ccd3d176 placed=75 dropped=8",
    "0xa9a403142e013dd2 placed=20 dropped=0",
    "0x2d01da1db5f55fda placed=38 dropped=0",
    "0x5471e8a03092de15 placed=39 dropped=8",
    "0x8e471b6c496d6591 placed=32 dropped=0",
    "0x6bbbf3e970eaee55 placed=2 dropped=0",
    "0x0e678dc5adddf085 placed=46 dropped=8",
    "0x8d5ef80671ade62d placed=268 dropped=0",
    "0x44e92f594dfee919 placed=243 dropped=0",
    "0x2e2ee004416112a4 placed=804 dropped=64",
    "0x5bab75af1610a90d placed=273 dropped=8",
    "0x069f9e9e9d8b1548 placed=29 dropped=0",
    "0x867b48181ce8d86a placed=27 dropped=0",
};

/// One row per bucket of ten consecutive seeds, folded in seed order.
const char *const SeedBucketGoldens[] = {
    "0xede45ce1ce3399d3 placed=1388 dropped=1605",
    "0x8ecaaf73daaa7fae placed=2026 dropped=3851",
    "0x748657220731fa91 placed=1318 dropped=1630",
    "0x2522e831bcb6b893 placed=1419 dropped=2073",
    "0x1d9fb8800fc81922 placed=1503 dropped=2121",
    "0xadf6ab7383d1ad90 placed=1465 dropped=2199",
    "0xcaa097cfdf7de7d3 placed=1968 dropped=2693",
    "0xa36aceb716cdd69f placed=1340 dropped=1481",
    "0xd74254d65c992ace placed=2237 dropped=3337",
    "0x746c266326bb7342 placed=3064 dropped=2864",
    "0x03bee57a64a3fbd6 placed=2033 dropped=2124",
    "0x8394f5df29fe8ceb placed=1229 dropped=1823",
    "0xe915ddc949bfe312 placed=1809 dropped=1924",
    "0xabb368af75d1ec0b placed=2039 dropped=2204",
    "0x87bfb2a44b944fdc placed=1583 dropped=1639",
    "0x4eb5206610652927 placed=2038 dropped=2906",
    "0xf6acefd53f3ee51e placed=1681 dropped=2031",
    "0x0e258d16feb845a7 placed=1420 dropped=2085",
    "0x4327127825744cc4 placed=1380 dropped=1833",
    "0xfd2163ccf825d9f4 placed=1547 dropped=1930",
    "0x9f628abf3078e7d0 placed=709 dropped=1500",
    "0x493b5a9f76e7e374 placed=876 dropped=3081",
    "0xd5cb04aad4cedfc8 placed=737 dropped=1537",
    "0xae55bec64fe05d11 placed=755 dropped=1967",
    "0xd661b23895107f9f placed=789 dropped=1891",
    "0x49c1e92236ff77d0 placed=775 dropped=2104",
    "0x5a865537b3581ce5 placed=950 dropped=2719",
    "0xda65a8c42956c3b2 placed=614 dropped=1290",
    "0xc04eb77f0042f85a placed=982 dropped=2931",
    "0xd1d8918810d2410f placed=1700 dropped=2855",
    "0x903c2fc12df8f495 placed=999 dropped=2090",
    "0x0bb4c0150d54ab49 placed=564 dropped=1618",
    "0xcc76f9cd2bbd8815 placed=935 dropped=1868",
    "0xbb83604c2f112f65 placed=1032 dropped=2438",
    "0x2d7d75125313d5e6 placed=999 dropped=1316",
    "0x7b0a913f5a7c4914 placed=1168 dropped=2472",
    "0x308f4f185cf1e8a1 placed=835 dropped=2060",
    "0xaed4ca0f2c3cf420 placed=643 dropped=1580",
    "0xc086647a0b1d9b14 placed=818 dropped=1858",
    "0xb7979e78f2a027aa placed=761 dropped=1534",
};

const char *const CorpusGoldens[] = {
    "0x3f40eb4ca647037a placed=0 dropped=0",
    "0x0bdac02a640ac498 placed=0 dropped=0",
    "0xea6d2f522e8faea7 placed=4 dropped=0",
    "0x26dca0d72b21663f placed=0 dropped=0",
    "0x6b6b47bdcce9d5b9 placed=1 dropped=0",
    "0x93742c64c912e65b placed=0 dropped=0",
    "0x07185062c3d04667 placed=10 dropped=0",
    "0xa0db0176fb31629b placed=5 dropped=2",
    "0x366616633a87479a placed=0 dropped=0",
    "0xf7485f0debddd8bc placed=12 dropped=0",
    "0xe370dd31e7a3e23b placed=0 dropped=0",
    "0x146d5915e93aa8fb placed=0 dropped=0",
    "0x774ea345a1f85b9c placed=2 dropped=0",
    "0x50e71e08bc5a92b9 placed=0 dropped=0",
    "0x6b6b47bdcce9d5b9 placed=1 dropped=0",
    "0x8f9fcd548e30be5e placed=0 dropped=0",
    "0x07185062c3d04667 placed=10 dropped=0",
    "0xa0db0176fb31629b placed=5 dropped=2",
    "0x66657a132a07585a placed=0 dropped=0",
    "0xd743aa2b069447bb placed=12 dropped=0",
};

const char *const SynthGoldens[] = {
    "0xe85c1a6b2677ff91 placed=2081 dropped=5893",
    "0x098bc8a5949acd86 placed=2143 dropped=6371",
    "0x7c69102923eb6960 placed=7357 dropped=17676",
    "0xa581b60d0c663dfe placed=1111 dropped=5611",
    "0xef6eb71464d0eaef placed=1191 dropped=5647",
    "0x219bec3051455a50 placed=4632 dropped=15614",
};

OptPreset presetOf(size_t Idx, size_t PerPreset) {
  return Idx < PerPreset ? OptPreset::O0IM : OptPreset::O1;
}

class MemorySSAGoldenSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(MemorySSAGoldenSuite, DigestIsPinned) {
  const size_t N = workload::spec2000Suite().size();
  const auto &B = workload::spec2000Suite()[GetParam() % N];
  SSASummary S;
  addProgram(S, [&] { return workload::loadBenchmark(B); },
             presetOf(GetParam(), N), B.Name);
  EXPECT_EQ(S.str(), SuiteGoldens[GetParam()])
      << B.Name << ' ' << presetTag(presetOf(GetParam(), N));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, MemorySSAGoldenSuite, ::testing::Range<size_t>(0, 30),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      const size_t N = workload::spec2000Suite().size();
      std::string Name = workload::spec2000Suite()[Info.param % N].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name + "_" + presetTag(presetOf(Info.param, N));
    });

class MemorySSAGoldenSeeds : public ::testing::TestWithParam<size_t> {};

TEST_P(MemorySSAGoldenSeeds, BucketDigestIsPinned) {
  const size_t Buckets = 20;
  const uint64_t First = GetParam() % Buckets * 10;
  const OptPreset Preset = presetOf(GetParam(), Buckets);
  SSASummary S;
  for (uint64_t Seed = First; Seed != First + 10; ++Seed)
    addProgram(S, [&] { return workload::generateProgram(Seed); }, Preset,
               "seed " + std::to_string(Seed));
  EXPECT_EQ(S.str(), SeedBucketGoldens[GetParam()])
      << "seeds " << First << ".." << First + 9 << ' ' << presetTag(Preset);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemorySSAGoldenSeeds,
                         ::testing::Range<size_t>(0, 40));

/// The fuzz and diagnosis corpora, in name order.
std::vector<std::string> corpusPrograms() {
  return {"diagnosis/clean_strong_update.tc", "diagnosis/definite.tc",
          "diagnosis/may_guarded.tc",         "fuzz/call_undef.tc",
          "fuzz/global_uninit.tc",            "fuzz/opt2_dup.tc",
          "fuzz/ptr_store_load.tc",           "fuzz/semi_strong_heap.tc",
          "fuzz/strong_update_clean.tc",      "fuzz/walk_partial.tc"};
}

TEST(MemorySSAGolden, CorpusDigestsArePinned) {
  const std::vector<std::string> Programs = corpusPrograms();
  for (size_t Idx = 0; Idx != 2 * Programs.size(); ++Idx) {
    const std::string &Path = Programs[Idx % Programs.size()];
    const OptPreset Preset = presetOf(Idx, Programs.size());
    SSASummary S;
    addProgram(S, [&] { return parseInput(Path); }, Preset, Path);
    EXPECT_EQ(S.str(), CorpusGoldens[Idx])
        << Path << ' ' << presetTag(Preset);
  }
}

const unsigned SynthSizes[] = {2000, 10000, 40000};

class MemorySSAGoldenSynth : public ::testing::TestWithParam<size_t> {};

TEST_P(MemorySSAGoldenSynth, DigestIsPinned) {
  const unsigned Target = SynthSizes[GetParam() % 3];
  const OptPreset Preset = presetOf(GetParam(), 3);
  SSASummary S;
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
    Sizes, MemorySSAGoldenSynth, ::testing::Range<size_t>(0, 6),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return std::to_string(SynthSizes[Info.param % 3]) + "_" +
             presetTag(presetOf(Info.param, 3));
    });

} // namespace
