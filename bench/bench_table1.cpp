//===- bench/bench_table1.cpp - Reproduces Table 1 -------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 1: benchmark statistics under O0+IM. Columns follow
/// the paper: program size, analysis time/memory, variable populations,
/// %F uninitialized allocations, S semi-strong cuts per non-array heap
/// site, %SU/%WU store updates, VFG size, %B nodes reaching a needed
/// check, and the Opt I / Opt II work counts.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace usher;
using namespace usher::bench;

int main() {
  std::printf("Table 1: benchmark statistics under O0+IM "
              "(paper: Section 4.4)\n");
  std::printf("%-12s %6s %7s %8s %6s %6s %6s %6s %5s %5s %5s %5s %7s %5s "
              "%6s %6s\n",
              "Benchmark", "Insts", "Time_ms", "Edges", "VarTL", "Stack",
              "Heap", "Glob", "%F", "S", "%SU", "%WU", "VFG", "%B",
              "OptI_S", "OptII_R");

  double SumPctB = 0, SumPctF = 0, SumPctSU = 0, SumS = 0;
  for (const auto &B : workload::spec2000Suite()) {
    // Full Usher so the Opt I / Opt II columns are populated.
    RunResult R = runBenchmark(B, transforms::OptPreset::O0IM,
                               core::ToolVariant::UsherFull, {},
                               /*Unpruned=*/true);
    const core::UsherStatistics &S = R.Stats;
    std::printf("%-12s %6llu %7.2f %8llu %6llu %6llu %6llu %6llu %5.0f "
                "%5.1f %5.0f %5.0f %7llu %5.0f %6llu %7llu\n",
                B.Name.c_str(),
                static_cast<unsigned long long>(S.NumInstructions),
                S.AnalysisSeconds * 1000.0,
                static_cast<unsigned long long>(S.NumVFGEdges),
                static_cast<unsigned long long>(S.NumTopLevelVars),
                static_cast<unsigned long long>(S.NumStackObjects),
                static_cast<unsigned long long>(S.NumHeapObjects),
                static_cast<unsigned long long>(S.NumGlobalObjects),
                S.PercentUninitObjects, S.SemiStrongCutsPerHeapSite,
                S.PercentStrongStores, S.PercentWeakStores,
                static_cast<unsigned long long>(S.NumVFGNodes),
                S.PercentReachingCheck,
                static_cast<unsigned long long>(S.NumSimplifiedMFCs),
                static_cast<unsigned long long>(S.NumRedirectedNodes));
    SumPctB += S.PercentReachingCheck;
    SumPctF += S.PercentUninitObjects;
    SumPctSU += S.PercentStrongStores;
    SumS += S.SemiStrongCutsPerHeapSite;
  }
  const double N = workload::spec2000Suite().size();
  std::printf("\naverages: %%F=%.0f (paper: 34), S=%.1f (paper: 3.2), "
              "%%SU=%.0f (paper: 36), %%B=%.0f (paper: 38)\n",
              SumPctF / N, SumS / N, SumPctSU / N, SumPctB / N);
  return 0;
}
