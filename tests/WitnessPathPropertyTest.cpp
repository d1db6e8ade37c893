//===- tests/WitnessPathPropertyTest.cpp - Witness paths are real ----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property test for the witness-path reconstructor: every codeFlow the
/// diagnosis engine emits must be a *real, context-valid* path in the VFG:
///
///  - it starts at the F root and ends at the finding's use node;
///  - every step's edge (kind and call-site label included) exists in the
///    graph's user-edge lists;
///  - replaying the call/return labels through the shared ContextStack
///    from the empty context never hits an unrealizable return.
///
/// analysis::validateQueryWitness checks all three, as it does for
/// demand-query witnesses.
///
/// Checked over the Spec2000-like suite, the diagnosis bug corpus, and a
/// range of generator seeds.
///
//===----------------------------------------------------------------------===//

#include "analysis/DemandVFA.h"
#include "core/StaticDiagnosis.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace usher;
using core::Finding;
using core::StaticDiagnosis;

namespace {

void checkAllWitnesses(ir::Module &M, const std::string &Tag) {
  core::UsherOptions Opts;
  Opts.Variant = core::ToolVariant::UsherFull;
  core::UsherResult R = core::runUsher(M, Opts);
  ASSERT_TRUE(R.PA && R.CG && R.G) << Tag;
  StaticDiagnosis Diag(*R.PA, *R.CG, *R.G);
  for (const Finding &F : Diag.report().Findings) {
    if (F.Witness.empty())
      continue; // Capped searches may leave no witness; nothing to check.
    std::string Err;
    EXPECT_TRUE(analysis::validateQueryWitness(*R.G, vfg::VFG::RootF,
                                               F.UseNode, F.Witness,
                                               StaticDiagnosis::ContextK,
                                               &Err))
        << Tag << ": witness to inst#" << F.I->getId() << ": " << Err;
  }
}

class WitnessSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(WitnessSuite, EveryWitnessIsAContextValidPath) {
  const auto &B = workload::spec2000Suite()[GetParam()];
  auto M = workload::loadBenchmark(B);
  checkAllWitnesses(*M, B.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WitnessSuite, ::testing::Range<size_t>(0, 15),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = workload::spec2000Suite()[Info.param].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

class WitnessSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WitnessSeeds, EveryWitnessIsAContextValidPath) {
  auto M = workload::generateProgram(GetParam());
  checkAllWitnesses(*M, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessSeeds,
                         ::testing::Range<uint64_t>(0, 100));

TEST(WitnessCorpus, CorpusWitnessesAreContextValidPaths) {
  for (const char *Stem :
       {"definite", "may_guarded", "clean_strong_update"}) {
    std::string Path = std::string(USHER_TEST_INPUT_DIR) + "/diagnosis/" +
                       Stem + ".tc";
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << "cannot open " << Path;
    std::ostringstream SS;
    SS << In.rdbuf();
    auto M = parser::parseModuleOrAbort(SS.str());
    checkAllWitnesses(*M, Stem);
  }
}

} // namespace
