//===- tests/ClientCorpusTest.cpp - Labeled per-client bug corpora ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Labeled bug corpora for the non-UUV sanitizer clients, mirroring the
/// UUV diagnosis corpus: each client has a true-positive case, a guarded
/// MAY case (check placed, runtime silent), and a clean case where the
/// static analysis proves the sink safe and places no check. Every
/// program is also run under the client's *full* (analysis-free) plan in
/// the same interpreter pass, so the corpus doubles as a pinned
/// guided-vs-full differential.
///
/// Expected files (tests/inputs/clients/<client>/<stem>.expected) carry
/// one directive per line: `sinks N`, `unsafe N`, `checks N` pin the
/// static ClientPlanInfo counters; `warn L:C` lines list the expected
/// runtime warnings in source order; `none` asserts the run is silent.
///
//===----------------------------------------------------------------------===//

#include "core/SanitizerClient.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/RawStream.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace usher;
using core::ClientKind;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;

namespace {

struct ExpectedOutcome {
  uint64_t Sinks = 0, Unsafe = 0, Checks = 0;
  bool HaveSinks = false, HaveUnsafe = false, HaveChecks = false;
  std::vector<std::pair<unsigned, unsigned>> Warns; ///< (line, col).
};

ExpectedOutcome readExpected(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  ExpectedOutcome Out;
  std::string LineBuf;
  bool SawWarnDirective = false;
  while (std::getline(In, LineBuf)) {
    if (LineBuf.empty() || LineBuf[0] == '#')
      continue;
    std::istringstream LS(LineBuf);
    std::string Kind;
    LS >> Kind;
    if (Kind == "none") {
      SawWarnDirective = true;
    } else if (Kind == "warn") {
      std::string Loc;
      LS >> Loc;
      size_t Sep = Loc.find(':');
      if (Sep == std::string::npos) {
        ADD_FAILURE() << "bad location '" << Loc << "' in " << Path;
        continue;
      }
      Out.Warns.emplace_back(
          static_cast<unsigned>(std::stoul(Loc.substr(0, Sep))),
          static_cast<unsigned>(std::stoul(Loc.substr(Sep + 1))));
      SawWarnDirective = true;
    } else if (Kind == "sinks") {
      LS >> Out.Sinks;
      Out.HaveSinks = true;
    } else if (Kind == "unsafe") {
      LS >> Out.Unsafe;
      Out.HaveUnsafe = true;
    } else if (Kind == "checks") {
      LS >> Out.Checks;
      Out.HaveChecks = true;
    } else {
      ADD_FAILURE() << "unknown directive '" << Kind << "' in " << Path;
    }
  }
  EXPECT_TRUE(SawWarnDirective)
      << Path << ": expected either warn lines or an explicit 'none'";
  return Out;
}

struct CorpusCase {
  ClientKind Client;
  const char *Stem;
};

class ClientCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(ClientCorpus, MatchesExpectedOutcome) {
  const CorpusCase &C = GetParam();
  const std::string Dir = std::string(USHER_TEST_INPUT_DIR) + "/clients/" +
                          core::clientName(C.Client) + "/";
  std::string Source;
  ASSERT_TRUE(readFile(Dir + C.Stem + ".tc", Source)) << C.Stem;
  ExpectedOutcome Expected = readExpected(Dir + C.Stem + ".expected");

  auto M = parser::parseModuleOrAbort(Source);
  core::UsherOptions Opts;
  Opts.Clients = {C.Client};
  core::UsherResult R = core::runUsher(*M, Opts);
  ASSERT_EQ(R.ClientPlans.size(), 1u) << C.Stem;
  const core::ClientPlanInfo &Info = R.ClientPlans[0];
  ASSERT_EQ(Info.Kind, C.Client) << C.Stem;

  if (Expected.HaveSinks) {
    EXPECT_EQ(Info.SinkCandidates, Expected.Sinks) << C.Stem;
  }
  if (Expected.HaveUnsafe) {
    EXPECT_EQ(Info.UnsafeSinks, Expected.Unsafe) << C.Stem;
  }
  if (Expected.HaveChecks) {
    EXPECT_EQ(Info.ChosenChecks, Expected.Checks) << C.Stem;
  }

  // Guided and full plans execute side by side in one interpreter pass.
  core::ClientBuildInputs FullIn(*M);
  FullIn.PA = R.PA.get();
  core::ClientPlanInfo Full = core::buildClientFullPlan(C.Client, FullIn);
  std::vector<runtime::PlanExec> Plans{
      {&Info.Plan, core::clientShadowSemantics(C.Client)},
      {&Full.Plan, core::clientShadowSemantics(C.Client)}};
  ExecutionReport Rep = Interpreter(*M, Plans).run();
  ASSERT_EQ(Rep.Reason, ExitReason::Finished) << C.Stem << ": "
                                              << Rep.TrapMessage;

  const auto &Warns = Rep.PlanResults[0].ToolWarnings;
  ASSERT_EQ(Warns.size(), Expected.Warns.size()) << C.Stem;
  for (size_t Idx = 0; Idx != Warns.size(); ++Idx) {
    EXPECT_EQ(Warns[Idx].At->getLoc().Line, Expected.Warns[Idx].first)
        << C.Stem << " warning " << Idx;
    EXPECT_EQ(Warns[Idx].At->getLoc().Col, Expected.Warns[Idx].second)
        << C.Stem << " warning " << Idx;
  }

  // The guided plan must report exactly what full instrumentation does.
  const auto &FullWarns = Rep.PlanResults[1].ToolWarnings;
  ASSERT_EQ(FullWarns.size(), Warns.size()) << C.Stem << ": guided vs full";
  for (size_t Idx = 0; Idx != Warns.size(); ++Idx)
    EXPECT_EQ(FullWarns[Idx].At, Warns[Idx].At)
        << C.Stem << ": guided vs full at warning " << Idx;

  // A clean verdict must come from proof, not from a missing candidate:
  // the full plan always checks at least as many sites.
  EXPECT_GE(Full.ChosenChecks, Info.ChosenChecks) << C.Stem;
}

std::string caseName(const ::testing::TestParamInfo<CorpusCase> &I) {
  return std::string(core::clientName(I.param.Client)) + "_" + I.param.Stem;
}

INSTANTIATE_TEST_SUITE_P(
    AddrLeak, ClientCorpus,
    ::testing::Values(
        CorpusCase{ClientKind::AddrLeak, "leak_heap_to_global"},
        CorpusCase{ClientKind::AddrLeak, "guarded_no_leak"},
        CorpusCase{ClientKind::AddrLeak, "clean_strong_update"}),
    caseName);

INSTANTIATE_TEST_SUITE_P(
    Bounds, ClientCorpus,
    ::testing::Values(
        CorpusCase{ClientKind::Bounds, "oob_const_index"},
        CorpusCase{ClientKind::Bounds, "guarded_in_range"},
        CorpusCase{ClientKind::Bounds, "clean_const_in_range"}),
    caseName);

} // namespace
