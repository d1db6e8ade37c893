//===- tools/usher-gen.cpp - Workload synthesis CLI -----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits deterministic TinyC source from a shape spec, so the same
/// synthesized programs feed usher-cli, usher-serve, usher-fuzz and the
/// scaling benchmarks:
///
///   usher-gen --nodes=100000 --seed=7 --out=big.tc
///   usher-gen --link-suite --out=suite.tc
///   usher-gen --nodes=10000 --measure
///
/// The output is a pure function of the flags: same spec, same bytes.
///
/// Exit codes: 0 = ok, 1 = internal failure (synthesized program did not
/// parse/verify, or the suite failed to link), 2 = usage error.
///
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "parser/Parser.h"
#include "support/RawStream.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace usher;

namespace {

struct CliOptions {
  workload::ShapeSpec Spec;
  std::string OutPath; ///< Empty or "-" = stdout.
  bool LinkSuite = false;
  bool Measure = false;
};

void printUsage(raw_ostream &OS) {
  OS << "usage: usher-gen [options]\n"
     << "  --nodes=N        target VFG node count (default 10000)\n"
     << "  --depth=N        call-graph depth below main (default 6)\n"
     << "  --fanout=N       distinct callees per non-leaf (default 3)\n"
     << "  --scc=N          mutual-recursion rings (default 2)\n"
     << "  --scc-size=N     functions per ring (default 3)\n"
     << "  --ptr-density=P  %% of statements doing pointer work (default 35)\n"
     << "  --field-depth=N  max linked field-chain descent (default 3)\n"
     << "  --uninit=P       %% of allocations left uninitialized (default 40)\n"
     << "  --define-all     initialize everything: warning-free program\n"
     << "  --seed=N         generation seed (default 1)\n"
     << "  --out=PATH       write the program here (- or absent = stdout)\n"
     << "  --link-suite     emit the 15 SPEC-like suite programs linked\n"
     << "                   into one module instead of synthesizing\n"
     << "  --measure        parse the emitted program and print its\n"
     << "                   measured shape instead of the source\n";
}

bool parseUInt(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(Text.c_str(), &End, 10);
  return End && *End == '\0';
}

bool parseArgs(int Argc, char **Argv, CliOptions &Cli) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg.rfind("--nodes=", 0) == 0) {
      if (!parseUInt(Arg.substr(8), N) || N == 0)
        return false;
      Cli.Spec.TargetNodes = static_cast<unsigned>(N);
    } else if (Arg.rfind("--depth=", 0) == 0) {
      if (!parseUInt(Arg.substr(8), N) || N == 0)
        return false;
      Cli.Spec.CallDepth = static_cast<unsigned>(N);
    } else if (Arg.rfind("--fanout=", 0) == 0) {
      if (!parseUInt(Arg.substr(9), N) || N == 0)
        return false;
      Cli.Spec.Fanout = static_cast<unsigned>(N);
    } else if (Arg.rfind("--scc=", 0) == 0) {
      if (!parseUInt(Arg.substr(6), N))
        return false;
      Cli.Spec.RecursionRings = static_cast<unsigned>(N);
    } else if (Arg.rfind("--scc-size=", 0) == 0) {
      if (!parseUInt(Arg.substr(11), N) || N == 0)
        return false;
      Cli.Spec.RingSize = static_cast<unsigned>(N);
    } else if (Arg.rfind("--ptr-density=", 0) == 0) {
      if (!parseUInt(Arg.substr(14), N) || N > 100)
        return false;
      Cli.Spec.PtrDensityPercent = static_cast<unsigned>(N);
    } else if (Arg.rfind("--field-depth=", 0) == 0) {
      if (!parseUInt(Arg.substr(14), N))
        return false;
      Cli.Spec.FieldChainDepth = static_cast<unsigned>(N);
    } else if (Arg.rfind("--uninit=", 0) == 0) {
      if (!parseUInt(Arg.substr(9), N) || N > 100)
        return false;
      Cli.Spec.UninitAllocPercent = static_cast<unsigned>(N);
    } else if (Arg == "--define-all") {
      Cli.Spec.DefineAll = true;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseUInt(Arg.substr(7), N))
        return false;
      Cli.Spec.Seed = N;
    } else if (Arg.rfind("--out=", 0) == 0) {
      Cli.OutPath = Arg.substr(6);
    } else if (Arg == "--link-suite") {
      Cli.LinkSuite = true;
    } else if (Arg == "--measure") {
      Cli.Measure = true;
    } else {
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    printUsage(errs());
    return 2;
  }

  std::string Source;
  if (Cli.LinkSuite) {
    std::vector<workload::LinkUnit> Units;
    for (const workload::BenchmarkProgram &P : workload::spec2000Suite())
      Units.push_back({P.Name, P.Source});
    std::string Err;
    workload::LinkedProgram LP = workload::linkPrograms(Units, &Err);
    if (LP.Source.empty()) {
      errs() << "error: " << Err << "\n";
      return 1;
    }
    Source = std::move(LP.Source);
  } else {
    Source = workload::synthesizeProgram(Cli.Spec);
  }

  if (Cli.Measure) {
    parser::ParseResult PR = parser::parseModule(Source);
    if (!PR.succeeded()) {
      errs() << "error: emitted program failed to parse"
             << (PR.Errors.empty() ? "" : ": " + PR.Errors.front()) << "\n";
      return 1;
    }
    workload::ShapeMetrics Met = workload::measureShape(*PR.M);
    raw_ostream &OS = outs();
    OS << "functions:      " << Met.NumFunctions << "\n";
    OS << "instructions:   " << Met.NumInstructions << "\n";
    OS << "call depth:     " << Met.CallDepth << "\n";
    OS.printf("avg fanout:     %.2f\n", Met.AvgFanout);
    OS << "nontrivial sccs: " << Met.NontrivialSccs << "\n";
    OS.printf("uninit allocs:  %.2f\n", Met.UninitAllocFraction);
    return 0;
  }

  if (Cli.OutPath.empty() || Cli.OutPath == "-") {
    outs() << Source;
    outs().flush();
    return 0;
  }
  std::FILE *FP = std::fopen(Cli.OutPath.c_str(), "w");
  if (!FP) {
    errs() << "error: cannot open " << Cli.OutPath << " for writing\n";
    return 2;
  }
  raw_fd_ostream OS(FP);
  OS << Source;
  OS.flush();
  std::fclose(FP);
  return 0;
}
