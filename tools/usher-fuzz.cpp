//===- tools/usher-fuzz.cpp - Differential fuzzing CLI --------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the coverage-guided differential fuzzer:
///
///   usher-fuzz --seed=42 --runs=500 --json=report.json
///
/// Runs one campaign (see src/fuzz/Fuzzer.h), prints a human-readable
/// summary to stdout and, on request, the machine-readable report
/// (schema "usher-fuzz-v1", validated by tools/check_fuzz_json.py) to a
/// file or stdout. The campaign — scheduling, reduction, and both
/// outputs — is a deterministic function of --seed.
///
/// Exit codes: 0 = campaign clean, 2 = usage error, 3 = divergences,
/// 5 = interrupted (SIGINT/SIGTERM) — the partial campaign summary and
/// JSON report are flushed before exiting.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "support/Decimal.h"
#include "support/RawStream.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

using namespace usher;

namespace {

/// Raised by SIGINT/SIGTERM; the campaign stops at the next round
/// boundary and the (partial) report is still printed and flushed.
std::atomic<bool> InterruptRaised{false};

void onSignal(int) { InterruptRaised.store(true, std::memory_order_relaxed); }

struct CliOptions {
  fuzz::FuzzOptions Fuzz;
  std::string JsonPath; ///< Empty = no JSON; "-" = stdout.
};

void printUsage(raw_ostream &OS) {
  OS << "usage: usher-fuzz [options]\n"
     << "  --seed=N        campaign seed (default 1)\n"
     << "  --runs=N        inputs to schedule (default 256)\n"
     << "  --json=PATH     write the usher-fuzz-v1 report (- for stdout)\n"
     << "  --no-reduce     report divergences without minimizing them\n"
     << "  --seed-corpus-synth=N\n"
     << "                  seed the corpus with N synthesized mid-size\n"
     << "                  programs before round 0 (default 0)\n"
     << "  --max-corpus=N  corpus capacity (default 64)\n"
     << "  --max-steps=N   interpreter step budget per run\n";
}

bool parseArgs(int Argc, char **Argv, CliOptions &Cli) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseDecimal(Arg.substr(7), UINT64_MAX, Cli.Fuzz.Seed))
        return false;
    } else if (Arg.rfind("--runs=", 0) == 0) {
      if (!parseDecimal(Arg.substr(7), UINT32_MAX, N))
        return false;
      Cli.Fuzz.Runs = static_cast<unsigned>(N);
    } else if (Arg.rfind("--json=", 0) == 0) {
      Cli.JsonPath = Arg.substr(7);
    } else if (Arg == "--no-reduce") {
      Cli.Fuzz.Reduce = false;
    } else if (Arg.rfind("--seed-corpus-synth=", 0) == 0) {
      if (!parseDecimal(Arg.substr(20), 1024, N))
        return false;
      Cli.Fuzz.SeedCorpusSynth = static_cast<unsigned>(N);
    } else if (Arg.rfind("--max-corpus=", 0) == 0) {
      if (!parseDecimal(Arg.substr(13), UINT32_MAX, N) || N == 0)
        return false;
      Cli.Fuzz.MaxCorpus = static_cast<unsigned>(N);
    } else if (Arg.rfind("--max-steps=", 0) == 0) {
      if (!parseDecimal(Arg.substr(12), UINT64_MAX, N) || N == 0)
        return false;
      Cli.Fuzz.Oracle.MaxSteps = N;
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

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  Cli.Fuzz.Stop = &InterruptRaised;

  fuzz::FuzzReport Rep = fuzz::runFuzzer(Cli.Fuzz);

  raw_ostream &OS = outs();
  OS << "usher-fuzz: seed " << Rep.Seed << ", " << Rep.Runs << " runs ("
     << Rep.NumValid << " valid, " << Rep.NumInvalid << " invalid)"
     << (Rep.Interrupted ? " [interrupted]" : "") << "\n";
  OS << "  scheduled: " << Rep.NumGenerated << " generated, "
     << Rep.NumMutated << " mutated, " << Rep.NumSpliced << " spliced, "
     << Rep.NumWrapped << " wrapped\n";
  OS << "  corpus: " << Rep.CorpusSize << " entries, " << Rep.CoverageKeys
     << " coverage keys\n";
  for (unsigned K = 0; K != fuzz::NumOracleKinds; ++K)
    OS << "  oracle " << fuzz::oracleKindName(static_cast<fuzz::OracleKind>(K))
       << ": " << Rep.OracleChecked[K] << " checked, "
       << Rep.OracleDiverged[K] << " divergences\n";
  OS << "divergences: " << Rep.Divergences.size() << "\n";
  for (const fuzz::DivergenceRecord &D : Rep.Divergences)
    OS << "  [" << fuzz::oracleKindName(D.Oracle) << "] run " << D.Run
       << ": " << D.Detail << " (" << D.OriginalLines << " -> "
       << D.ReducedLines << " lines)\n";

  if (!Cli.JsonPath.empty()) {
    if (Cli.JsonPath == "-") {
      Rep.printJson(outs());
    } else {
      std::FILE *FP = std::fopen(Cli.JsonPath.c_str(), "w");
      if (!FP) {
        errs() << "error: cannot open " << Cli.JsonPath << " for writing\n";
        return 2;
      }
      raw_fd_ostream JOS(FP);
      Rep.printJson(JOS);
      JOS.flush();
      std::fclose(FP);
    }
  }

  if (Rep.Interrupted)
    return 5; // Partial campaign; summary and JSON were flushed above.
  return Rep.clean() ? 0 : 3;
}
