//===- tests/DiagnosisDifferentialTest.cpp - Diagnosis vs. the oracle ------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle harness for the static UUV diagnosis engine.
/// The shadow interpreter's OracleWarnings are ground truth; against them
/// the engine must deliver two directional guarantees on every program:
///
///  - soundness: every instruction the oracle warns about is classified
///    MAY or DEFINITE (never CLEAN);
///  - must-precision: every DEFINITE finding fires at runtime.
///
/// Checked over the full Spec2000-like suite, the labeled bug corpus in
/// tests/inputs/diagnosis/, and a pinned range of generator seeds. The
/// seeded ppmatch-style bug in 197.parser must come out DEFINITE with a
/// witness path ending at its critical operation.
///
//===----------------------------------------------------------------------===//

#include "core/StaticDiagnosis.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

using namespace usher;
using core::StaticDiagnosis;
using core::Verdict;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;

namespace {

struct DiagRun {
  core::UsherResult R;
  std::unique_ptr<StaticDiagnosis> Diag;
};

/// Runs the full pipeline plus the diagnosis engine on \p M.
DiagRun diagnose(ir::Module &M,
                 core::DiagnosisOptions DOpts = core::DiagnosisOptions()) {
  core::UsherOptions Opts;
  Opts.Variant = core::ToolVariant::UsherFull;
  DiagRun Out{core::runUsher(M, Opts), nullptr};
  EXPECT_TRUE(Out.R.PA && Out.R.CG && Out.R.G);
  Out.Diag =
      std::make_unique<StaticDiagnosis>(*Out.R.PA, *Out.R.CG, *Out.R.G, DOpts);
  return Out;
}

/// Verdict per instruction, merged over that instruction's critical uses
/// (an instruction has at most one, but stay defensive: keep the worst).
std::map<const ir::Instruction *, Verdict>
verdictByInstruction(const vfg::VFG &G, const StaticDiagnosis &Diag) {
  std::map<const ir::Instruction *, Verdict> Out;
  const auto &Uses = G.criticalUses();
  const auto &Vs = Diag.report().UseVerdicts;
  for (size_t Idx = 0; Idx != Uses.size(); ++Idx) {
    auto [It, New] = Out.emplace(Uses[Idx].I, Vs[Idx]);
    if (!New && static_cast<int>(Vs[Idx]) > static_cast<int>(It->second))
      It->second = Vs[Idx];
  }
  return Out;
}

std::set<const ir::Instruction *>
oracleSet(const ExecutionReport &Rep) {
  std::set<const ir::Instruction *> S;
  for (const runtime::Warning &W : Rep.OracleWarnings)
    S.insert(W.At);
  return S;
}

/// The two directional guarantees, asserted for one program.
void expectDifferentialAgreement(const DiagRun &D, const ExecutionReport &Rep,
                                 const std::string &Tag) {
  auto ByInst = verdictByInstruction(*D.R.G, *D.Diag);
  auto Oracle = oracleSet(Rep);

  // Soundness: a runtime-confirmed UUV is never classified CLEAN. Every
  // oracle site must be a critical use the engine saw at all.
  for (const ir::Instruction *I : Oracle) {
    auto It = ByInst.find(I);
    ASSERT_NE(It, ByInst.end())
        << Tag << ": oracle warned at an instruction the diagnosis engine "
        << "does not even consider a critical use (inst#" << I->getId() << ")";
    EXPECT_NE(It->second, Verdict::Clean)
        << Tag << ": oracle warning classified CLEAN at inst#" << I->getId();
  }

  // Must-precision: every DEFINITE finding fires at runtime.
  for (const core::Finding &F : D.Diag->report().Findings) {
    if (F.V != Verdict::Definite)
      continue;
    EXPECT_TRUE(Oracle.count(F.I))
        << Tag << ": DEFINITE finding at inst#" << F.I->getId()
        << " never fired in the oracle run";
    EXPECT_FALSE(F.Witness.empty())
        << Tag << ": DEFINITE finding at inst#" << F.I->getId()
        << " has no witness path";
  }
}

//===----------------------------------------------------------------------===//
// Labeled bug corpus
//===----------------------------------------------------------------------===//

struct ExpectedFinding {
  std::string VerdictName;
  unsigned Line, Col;
  std::string Var;
};

std::vector<ExpectedFinding> readExpected(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::vector<ExpectedFinding> Out;
  std::string LineBuf;
  while (std::getline(In, LineBuf)) {
    if (LineBuf.empty() || LineBuf[0] == '#')
      continue;
    if (LineBuf == "none")
      return {};
    std::istringstream LS(LineBuf);
    ExpectedFinding E;
    std::string Loc;
    LS >> E.VerdictName >> Loc >> E.Var;
    size_t Sep = Loc.find(':');
    if (Sep == std::string::npos) {
      ADD_FAILURE() << "bad location '" << Loc << "' in " << Path;
      continue;
    }
    E.Line = static_cast<unsigned>(std::stoul(Loc.substr(0, Sep)));
    E.Col = static_cast<unsigned>(std::stoul(Loc.substr(Sep + 1)));
    Out.push_back(E);
  }
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

class DiagnosisCorpus : public ::testing::TestWithParam<const char *> {};

TEST_P(DiagnosisCorpus, MatchesExpectedFindings) {
  const std::string Stem = GetParam();
  const std::string Dir = std::string(USHER_TEST_INPUT_DIR) + "/diagnosis/";
  auto M = parser::parseModuleOrAbort(readFile(Dir + Stem + ".tc"));
  auto Expected = readExpected(Dir + Stem + ".expected");

  DiagRun D = diagnose(*M);
  const auto &Findings = D.Diag->report().Findings;
  ASSERT_EQ(Findings.size(), Expected.size()) << Stem;
  for (size_t Idx = 0; Idx != Findings.size(); ++Idx) {
    EXPECT_EQ(core::verdictName(Findings[Idx].V), Expected[Idx].VerdictName)
        << Stem << " finding " << Idx;
    EXPECT_EQ(Findings[Idx].I->getLoc().Line, Expected[Idx].Line)
        << Stem << " finding " << Idx;
    EXPECT_EQ(Findings[Idx].I->getLoc().Col, Expected[Idx].Col)
        << Stem << " finding " << Idx;
    EXPECT_EQ(Findings[Idx].Var->getName(), Expected[Idx].Var)
        << Stem << " finding " << Idx;
  }

  // The corpus programs obey the differential guarantees too.
  ExecutionReport Rep = Interpreter(*M, nullptr).run();
  ASSERT_EQ(Rep.Reason, ExitReason::Finished) << Rep.TrapMessage;
  expectDifferentialAgreement(D, Rep, Stem);
}

INSTANTIATE_TEST_SUITE_P(Corpus, DiagnosisCorpus,
                         ::testing::Values("definite", "may_guarded",
                                           "clean_strong_update"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Spec2000-like suite
//===----------------------------------------------------------------------===//

class DiagnosisSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(DiagnosisSuite, SoundAndMustPrecise) {
  const auto &B = workload::spec2000Suite()[GetParam()];
  auto M = workload::loadBenchmark(B);
  DiagRun D = diagnose(*M);
  ExecutionReport Rep = Interpreter(*M, nullptr).run();
  ASSERT_EQ(Rep.Reason, ExitReason::Finished) << B.Name;
  expectDifferentialAgreement(D, Rep, B.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DiagnosisSuite, ::testing::Range<size_t>(0, 15),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = workload::spec2000Suite()[Info.param].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

TEST(DiagnosisSuite, ParserPpmatchBugIsDefiniteWithWitness) {
  // The one seeded true positive (197.parser's ppmatch-style bug) must be
  // reported DEFINITE, and its witness path must end at the critical op.
  const workload::BenchmarkProgram *Parser = nullptr;
  for (const auto &B : workload::spec2000Suite())
    if (B.ExpectedBugSites)
      Parser = &B;
  ASSERT_NE(Parser, nullptr);
  ASSERT_EQ(Parser->Name, "197.parser");

  auto M = workload::loadBenchmark(*Parser);
  DiagRun D = diagnose(*M);
  ExecutionReport Rep = Interpreter(*M, nullptr).run();
  ASSERT_EQ(Rep.Reason, ExitReason::Finished);
  auto Oracle = oracleSet(Rep);
  ASSERT_EQ(Oracle.size(), 1u);

  const core::Finding *Definite = nullptr;
  for (const core::Finding &F : D.Diag->report().Findings)
    if (F.V == Verdict::Definite) {
      EXPECT_EQ(Definite, nullptr) << "more than one DEFINITE in 197.parser";
      Definite = &F;
    }
  ASSERT_NE(Definite, nullptr) << "ppmatch bug not classified DEFINITE";
  EXPECT_TRUE(Oracle.count(Definite->I))
      << "DEFINITE finding is not the oracle-confirmed ppmatch site";
  ASSERT_FALSE(Definite->Witness.empty());
  EXPECT_EQ(Definite->Witness.front().Node, vfg::VFG::RootF);
  EXPECT_EQ(Definite->Witness.back().Node, Definite->UseNode)
      << "witness path does not end at the critical op's use node";
}

//===----------------------------------------------------------------------===//
// Seeded random programs
//===----------------------------------------------------------------------===//

// The pinned seed range of the acceptance harness. Soundness is
// unconditional (Gamma is sound by construction); must-precision is the
// empirical claim the default posture encodes, validated over this range.
class DiagnosisProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiagnosisProperty, SoundAndMustPrecise) {
  const uint64_t Seed = GetParam();
  auto M = workload::generateProgram(Seed);
  ExecutionReport Rep = Interpreter(*M, nullptr).run();
  ASSERT_EQ(Rep.Reason, ExitReason::Finished)
      << "seed " << Seed << ": " << Rep.TrapMessage;
  core::DiagnosisOptions DOpts;
  DOpts.Conservative = true;
  DiagRun D = diagnose(*M, DOpts);
  expectDifferentialAgreement(D, Rep, "seed " + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagnosisProperty,
                         ::testing::Range<uint64_t>(0, 200));

} // namespace
