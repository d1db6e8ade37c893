//===- tests/Table1GoldenTest.cpp - Pinned Table 1 statistics -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden Table 1 rows of the 15 suite programs, as bench_table1 computes
/// them (O0+IM, full Usher). A row holds every deterministic
/// UsherStatistics field: program size, variable populations, %F, S,
/// %SU/%WU, %B, the Opt I / Opt II counts, the Figure 11 numerators and
/// the solver counters. Left out are the VFG size (it depends on how much
/// of memory SSA the graph materializes), the timings and peak RSS.
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "transforms/Transforms.h"
#include "workload/Spec2000.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace usher;

namespace {

std::string table1Row(const core::UsherStatistics &S) {
  const analysis::SolverStatistics &P = S.Solver;
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "insts=%llu tl=%llu stack=%llu heap=%llu glob=%llu F=%.6f S=%.6f "
      "SU=%.6f WU=%.6f B=%.6f mfc=%llu redir=%llu props=%llu checks=%llu "
      "pta=%d/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu",
      static_cast<unsigned long long>(S.NumInstructions),
      static_cast<unsigned long long>(S.NumTopLevelVars),
      static_cast<unsigned long long>(S.NumStackObjects),
      static_cast<unsigned long long>(S.NumHeapObjects),
      static_cast<unsigned long long>(S.NumGlobalObjects),
      S.PercentUninitObjects, S.SemiStrongCutsPerHeapSite,
      S.PercentStrongStores, S.PercentWeakStores, S.PercentReachingCheck,
      static_cast<unsigned long long>(S.NumSimplifiedMFCs),
      static_cast<unsigned long long>(S.NumRedirectedNodes),
      static_cast<unsigned long long>(S.StaticPropagations),
      static_cast<unsigned long long>(S.StaticChecks),
      static_cast<int>(P.Engine),
      static_cast<unsigned long long>(P.NumConstraints),
      static_cast<unsigned long long>(P.NumCopyEdges),
      static_cast<unsigned long long>(P.NumPropagations),
      static_cast<unsigned long long>(P.NumPops),
      static_cast<unsigned long long>(P.NumSkippedMergedPops),
      static_cast<unsigned long long>(P.NumCollapses),
      static_cast<unsigned long long>(P.NumCollapsedNodes),
      static_cast<unsigned long long>(P.NumUnifiedCells),
      static_cast<unsigned long long>(P.NumBudgetSteps));
  return Buf;
}

// A row changes only with a deliberate change to an analysis, a statistic
// or the suite programs; re-pin it in the same change.
const char *const Table1Goldens[] = {
    "insts=79 tl=41 stack=0 heap=2 glob=1 F=66.666667 S=0.000000 "
    "SU=33.333333 WU=66.666667 B=12.698413 "
    "mfc=0 redir=0 props=5 checks=1 pta=0/23/15/17/11/0/0/0/0/14",
    "insts=103 tl=47 stack=0 heap=1 glob=2 F=33.333333 S=0.000000 "
    "SU=28.571429 WU=71.428571 B=17.006803 "
    "mfc=2 redir=5 props=14 checks=2 pta=0/46/20/21/13/0/0/0/0/15",
    "insts=112 tl=58 stack=0 heap=1 glob=1 F=50.000000 S=2.333333 "
    "SU=12.500000 WU=87.500000 B=23.979592 "
    "mfc=0 redir=0 props=10 checks=4 pta=0/67/41/55/41/0/0/0/0/54",
    "insts=82 tl=38 stack=2 heap=1 glob=1 F=25.000000 S=0.000000 "
    "SU=25.000000 WU=75.000000 B=26.315789 "
    "mfc=0 redir=0 props=3 checks=1 pta=0/22/12/15/17/0/0/0/0/21",
    "insts=102 tl=50 stack=1 heap=1 glob=1 F=33.333333 S=0.000000 "
    "SU=0.000000 WU=100.000000 B=21.634615 "
    "mfc=1 redir=1 props=19 checks=1 pta=0/34/31/33/16/0/0/0/0/19",
    "insts=83 tl=38 stack=0 heap=1 glob=1 F=50.000000 S=2.000000 "
    "SU=14.285714 WU=85.714286 B=0.000000 "
    "mfc=0 redir=0 props=0 checks=0 pta=0/35/22/30/25/0/0/0/0/33",
    "insts=118 tl=61 stack=0 heap=5 glob=1 F=16.666667 S=0.000000 "
    "SU=14.285714 WU=85.714286 B=21.238938 "
    "mfc=1 redir=0 props=13 checks=1 pta=0/41/23/28/30/0/0/0/0/36",
    "insts=57 tl=19 stack=0 heap=0 glob=1 F=0.000000 S=0.000000 "
    "SU=100.000000 WU=0.000000 B=0.000000 "
    "mfc=0 redir=0 props=0 checks=0 pta=0/6/6/6/0/0/0/0/0/1",
    "insts=100 tl=51 stack=0 heap=1 glob=1 F=50.000000 S=1.500000 "
    "SU=14.285714 WU=85.714286 B=35.483871 "
    "mfc=0 redir=0 props=25 checks=1 pta=0/44/30/41/26/0/0/0/0/36",
    "insts=67 tl=30 stack=0 heap=0 glob=2 F=0.000000 S=0.000000 "
    "SU=0.000000 WU=100.000000 B=3.098592 "
    "mfc=0 redir=0 props=1 checks=1 pta=0/79/142/142/3/0/0/0/0/4",
    "insts=149 tl=77 stack=0 heap=2 glob=1 F=66.666667 S=0.000000 "
    "SU=0.000000 WU=100.000000 B=3.536346 "
    "mfc=2 redir=6 props=6 checks=3 pta=0/111/92/94/22/0/0/0/0/25",
    "insts=117 tl=60 stack=0 heap=1 glob=1 F=50.000000 S=0.000000 "
    "SU=0.617284 WU=99.382716 B=79.423077 "
    "mfc=1 redir=1 props=19 checks=1 pta=0/38/303/308/23/0/0/0/0/29",
    "insts=134 tl=69 stack=0 heap=1 glob=2 F=33.333333 S=2.000000 "
    "SU=2.380952 WU=97.619048 B=0.000000 "
    "mfc=0 redir=0 props=0 checks=0 pta=0/179/193/379/90/0/1/5/0/178",
    "insts=104 tl=51 stack=0 heap=3 glob=1 F=75.000000 S=0.000000 "
    "SU=14.285714 WU=85.714286 B=32.022472 "
    "mfc=0 redir=1 props=23 checks=6 pta=0/35/22/26/19/0/0/0/0/24",
    "insts=150 tl=80 stack=0 heap=3 glob=1 F=50.000000 S=0.000000 "
    "SU=12.500000 WU=87.500000 B=27.049180 "
    "mfc=3 redir=3 props=31 checks=3 pta=0/57/36/43/28/0/0/0/0/34",
};

class Table1Golden : public ::testing::TestWithParam<size_t> {};

TEST_P(Table1Golden, RowIsPinned) {
  const auto &B = workload::spec2000Suite()[GetParam()];
  auto M = workload::loadBenchmark(B);
  transforms::runPreset(*M, transforms::OptPreset::O0IM);
  core::UsherOptions Opts;
  Opts.Variant = core::ToolVariant::UsherFull;
  core::UsherResult R = core::runUsher(*M, Opts);
  ASSERT_FALSE(R.Degradation.Degraded) << B.Name;
  EXPECT_EQ(table1Row(R.Stats), Table1Goldens[GetParam()]) << B.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, Table1Golden, ::testing::Range<size_t>(0, 15),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = workload::spec2000Suite()[Info.param].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

} // namespace
