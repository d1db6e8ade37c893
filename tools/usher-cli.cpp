//===- tools/usher-cli.cpp - Command-line driver ----------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line front end: analyze, instrument and run TinyC programs.
///
///   usher-cli prog.tc                 analyze + run under full Usher
///   usher-cli prog.tc --variant=msan  pick the tool variant
///   usher-cli prog.tc --opt=O1        apply an optimization preset first
///   usher-cli prog.tc --compare       run every variant side by side
///   usher-cli prog.tc --stats         print the Table 1 statistics
///   usher-cli prog.tc --print-ir      dump the (transformed) module
///   usher-cli prog.tc --dot           dump the VFG in Graphviz syntax
///                                     (verdict-annotated with --diagnose)
///   usher-cli prog.tc --diagnose      static UUV diagnosis: classify every
///                                     critical op CLEAN/MAY/DEFINITE and
///                                     print witness value-flow paths
///   usher-cli prog.tc --diag-json=F   also write the diagnosis report as
///                                     JSON (schema usher-diagnosis-v1)
///   usher-cli prog.tc --no-run        static analysis only
///   usher-cli prog.tc --budget-ms=N   per-phase analysis deadline
///   usher-cli prog.tc --budget-steps=N  per-phase step budget
///   usher-cli prog.tc --inject-fault=pta@0  force budget exhaustion
///   usher-cli prog.tc --solver=andersen|naive
///                                     pick the constraint-solving engine
///   usher-cli prog.tc --query 3 17    demand CFL-reachability query: can
///                                     VFG node 3 flow to node 17? Asks the
///                                     VFG the pipeline builds, so the ids
///                                     are those of --dot and --stats
///   usher-cli prog.tc --client=uuv,addrleak,bounds
///                                     sanitizer clients to plan and run in
///                                     a single pass over one VFG (default:
///                                     uuv only)
///   usher-cli prog.tc --bounds-budget=10
///                                     bounds client: cap the modeled
///                                     slowdown of placed bounds checks at
///                                     10% (0 = unlimited)
///
/// Exit codes: 0 success (including degraded analysis — a note goes to
/// stderr), 2 usage/parse/input error, 3 runtime warnings were reported,
/// 4 execution hit a resource limit.
///
//===----------------------------------------------------------------------===//

#include "core/StaticDiagnosis.h"
#include "core/Usher.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/Decimal.h"
#include "support/FaultInjection.h"
#include "support/RawStream.h"
#include "transforms/Transforms.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace usher;

namespace {

// Exit codes (documented in the usage banner).
constexpr int ExitSuccess = 0;      // Also used for degraded analyses.
constexpr int ExitInputError = 2;   // Bad usage, unreadable or unparsable
                                    // input.
constexpr int ExitWarnings = 3;     // The instrumented run reported
                                    // undefined-value uses.
constexpr int ExitLimits = 4;       // Execution limits exceeded.
constexpr int ExitInterrupted = 5;  // SIGINT/SIGTERM; partial output was
                                    // flushed before exiting.

/// Raised by the SIGINT/SIGTERM handler; the interpreter polls it and
/// stops cooperatively, so the report (and any --diag-json file) is
/// flushed rather than lost.
std::atomic<bool> InterruptRaised{false};

void onSignal(int) { InterruptRaised.store(true, std::memory_order_relaxed); }

struct CliOptions {
  std::string InputPath;
  core::ToolVariant Variant = core::ToolVariant::UsherFull;
  transforms::OptPreset Preset = transforms::OptPreset::O0IM;
  bool Compare = false;
  bool Stats = false;
  bool PrintIR = false;
  bool DumpDot = false;
  bool Diagnose = false;
  std::string DiagJsonPath;
  bool Run = true;
  bool ListFaultSites = false;
  bool Query = false;
  uint64_t QuerySrc = 0;
  uint64_t QuerySink = 0;
  analysis::SolverKind Solver = analysis::SolverKind::Optimized;
  BudgetLimits Limits;
  std::optional<FaultPlan> Fault;
  /// --client= selections, in the order given; empty = UUV only (the
  /// legacy single-client pipeline, output byte-identical).
  std::vector<core::ClientKind> Clients;
  unsigned BoundsBudgetPercent = 0;
};

int usage(const char *Argv0) {
  errs() << "usage: " << Argv0
         << " <program.tc> [--variant=msan|tl|tlat|opti|usher] "
            "[--opt=O0|O1|O2] [--compare] [--stats] [--print-ir] [--dot] "
            "[--no-run] [--solver=andersen|naive] [--budget-ms=<N>] "
            "[--budget-steps=<N>] [--inject-fault=<phase>@<step>[:once|:<n>]] "
            "[--diagnose] [--diag-json=<file>] "
            "[--query <srcId> <sinkId>] "
            "[--client=<c>[,<c>...]] [--bounds-budget=<pct>]\n"
            "\n"
            "  --client=<c>[,<c>...]\n"
            "                      sanitizer clients to plan and run in one\n"
            "                      pass: uuv (use of undefined values,\n"
            "                      default), addrleak (allocated addresses\n"
            "                      escaping to globals or main's return),\n"
            "                      bounds (out-of-bounds pointer formation)\n"
            "  --bounds-budget=<pct>\n"
            "                      bounds client: budgeted check placement,\n"
            "                      capping modeled slowdown at <pct>% of\n"
            "                      native cost (default 0 = unlimited)\n"
            "\n"
            "  --diagnose          classify every critical operation as\n"
            "                      CLEAN, MAY-UUV or DEFINITE-UUV and print\n"
            "                      a witness value-flow path per finding\n"
            "  --diag-json=<file>  write the diagnosis report as JSON\n"
            "                      (schema usher-diagnosis-v1); implies\n"
            "                      --diagnose\n"
            "\n"
            "  --solver=andersen|naive\n"
            "                      constraint-solving engine: the optimized\n"
            "                      Andersen solver (default) or the reference\n"
            "                      full-set Andersen engine\n"
            "\n"
            "  --query <srcId> <sinkId>\n"
            "                      demand query: is VFG node <sinkId>\n"
            "                      context-validly reachable from <srcId>?\n"
            "                      Prints the verdict and a witness path.\n"
            "                      Node ids are those of --dot; implies\n"
            "                      --no-run; exits 0 on a conclusive\n"
            "                      answer, 4 if a budget ran out first\n"
            "\n"
            "budgets & degradation:\n"
            "  --budget-ms=<N>     wall-clock deadline per analysis phase\n"
            "  --budget-steps=<N>  worklist-iteration budget per phase\n"
            "  --inject-fault=<phase>@<step>[:once|:<n>]\n"
            "                      deterministically exhaust a phase's\n"
            "                      budget (phase: pta|definedness|opt1|opt2;\n"
            "                      :<n> = first n arms only;\n"
            "                      also via $" << FaultInjectionEnvVar << ")\n"
            "  A phase that runs out of budget never fails the run: the\n"
            "  driver degrades along USHER -> USHER-OPTI -> USHER-TL+AT ->\n"
            "  USHER-TL -> MSAN and notes the degradation on stderr\n"
            "  (Andersen exhaustion retries field-insensitive before giving\n"
            "  up points-to info).\n"
            "\n"
            "exit codes:\n"
            "  0  success (including degraded analysis)\n"
            "  2  usage, unreadable input, or parse error\n"
            "  3  the instrumented run reported undefined-value uses\n"
            "  4  execution limits exceeded\n"
            "  5  interrupted (SIGINT/SIGTERM); partial output flushed\n"
            "\n"
            "  --list-fault-sites  print every deterministic fault site\n"
            "                      (budget phases and I/O sites) and exit\n";
  return ExitInputError;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I != Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg == "--compare") {
      Opts.Compare = true;
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg == "--print-ir") {
      Opts.PrintIR = true;
    } else if (Arg == "--dot") {
      Opts.DumpDot = true;
    } else if (Arg == "--diagnose") {
      Opts.Diagnose = true;
    } else if (Arg.rfind("--diag-json=", 0) == 0) {
      Opts.DiagJsonPath = std::string(Arg.substr(12));
      Opts.Diagnose = true;
      if (Opts.DiagJsonPath.empty())
        return false;
    } else if (Arg == "--no-run") {
      Opts.Run = false;
    } else if (Arg == "--list-fault-sites") {
      Opts.ListFaultSites = true;
    } else if (Arg.rfind("--solver=", 0) == 0) {
      std::string_view S = Arg.substr(9);
      if (S == "andersen")
        Opts.Solver = analysis::SolverKind::Optimized;
      else if (S == "naive")
        Opts.Solver = analysis::SolverKind::NaiveReference;
      else
        return false;
    } else if (Arg == "--query") {
      if (I + 2 >= Argc ||
          !parseDecimal(Argv[I + 1], UINT32_MAX, Opts.QuerySrc) ||
          !parseDecimal(Argv[I + 2], UINT32_MAX, Opts.QuerySink))
        return false;
      Opts.Query = true;
      I += 2;
    } else if (Arg.rfind("--variant=", 0) == 0) {
      std::string_view V = Arg.substr(10);
      if (V == "msan")
        Opts.Variant = core::ToolVariant::MSanFull;
      else if (V == "tl")
        Opts.Variant = core::ToolVariant::UsherTL;
      else if (V == "tlat")
        Opts.Variant = core::ToolVariant::UsherTLAT;
      else if (V == "opti")
        Opts.Variant = core::ToolVariant::UsherOptI;
      else if (V == "usher")
        Opts.Variant = core::ToolVariant::UsherFull;
      else
        return false;
    } else if (Arg.rfind("--opt=", 0) == 0) {
      std::string_view P = Arg.substr(6);
      if (P == "O0" || P == "O0+IM")
        Opts.Preset = transforms::OptPreset::O0IM;
      else if (P == "O1")
        Opts.Preset = transforms::OptPreset::O1;
      else if (P == "O2")
        Opts.Preset = transforms::OptPreset::O2;
      else
        return false;
    } else if (Arg.rfind("--client=", 0) == 0) {
      if (!core::parseClientList(Arg.substr(9), Opts.Clients))
        return false;
    } else if (Arg.rfind("--bounds-budget=", 0) == 0) {
      uint64_t Pct;
      if (!parseDecimal(Arg.substr(16), 10000, Pct))
        return false;
      Opts.BoundsBudgetPercent = static_cast<unsigned>(Pct);
    } else if (Arg.rfind("--budget-ms=", 0) == 0) {
      if (!parseDecimal(Arg.substr(12), UINT64_MAX,
                        Opts.Limits.PhaseDeadlineMs))
        return false;
    } else if (Arg.rfind("--budget-steps=", 0) == 0) {
      if (!parseDecimal(Arg.substr(15), UINT64_MAX,
                        Opts.Limits.MaxStepsPerPhase))
        return false;
    } else if (Arg.rfind("--inject-fault=", 0) == 0) {
      std::string Err;
      Opts.Fault = parseFaultSpec(Arg.substr(15), &Err);
      if (!Opts.Fault) {
        errs() << "error: " << Err << '\n';
        return false;
      }
    } else if (!Arg.empty() && Arg[0] != '-' && Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      return false;
    }
  }
  // Each of these reports one variant's analysis; --compare runs five.
  if (Opts.Compare && Opts.Stats) {
    errs() << "error: --stats reports one variant; it cannot be combined "
              "with --compare\n";
    return false;
  }
  if (Opts.Compare && Opts.Diagnose) {
    errs() << "error: --diagnose reports one variant; it cannot be combined "
              "with --compare\n";
    return false;
  }
  if (Opts.Compare && Opts.DumpDot) {
    errs() << "error: --dot dumps one variant's VFG; it cannot be combined "
              "with --compare\n";
    return false;
  }
  return Opts.ListFaultSites || !Opts.InputPath.empty();
}

/// Reports one plan of a run: the base execution facts are shared by
/// every plan, the shadow counters and warnings come from plan \p PR.
void reportClientRun(raw_ostream &OS, std::string_view Tool,
                     const runtime::ExecutionReport &Rep,
                     const runtime::PlanReport &PR, const char *WarnText) {
  OS << '[';
  OS.leftJustify(Tool, 12);
  OS << "] ";
  if (Rep.Reason == runtime::ExitReason::Trap) {
    OS << "trapped: " << Rep.TrapMessage << '\n';
    return;
  }
  if (Rep.Reason == runtime::ExitReason::StepLimit) {
    OS << "stopped: step limit exceeded\n";
    return;
  }
  if (Rep.Reason == runtime::ExitReason::Interrupted) {
    OS << "interrupted after " << Rep.Steps << " steps, shadow ops "
       << PR.DynShadowOps << ", checks " << PR.DynChecks << '\n';
    return;
  }
  double Slowdown =
      Rep.BaseCost > 0 ? 100.0 * PR.ShadowCost / Rep.BaseCost : 0.0;
  OS << "result " << Rep.MainResult << ", slowdown "
     << static_cast<int>(Slowdown) << "%, shadow ops " << PR.DynShadowOps
     << ", checks " << PR.DynChecks << '\n';
  for (const runtime::Warning &W : PR.ToolWarnings) {
    OS << "  warning: ";
    if (W.At->getLoc().isValid())
      OS << W.At->getLoc().Line << ':' << W.At->getLoc().Col << ": ";
    OS << WarnText << " in " << W.At->getParent()->getParent()->getName()
       << " at \"";
    W.At->print(OS);
    OS << "\" (x" << W.Occurrences << ")\n";
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);
  if (Opts.ListFaultSites) {
    for (const std::string &Name : allFaultSiteNames())
      outs() << Name << '\n';
    return ExitSuccess;
  }
  if (!Opts.Fault)
    Opts.Fault = faultPlanFromEnv();

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::string Source;
  if (!readFile(Opts.InputPath, Source)) {
    errs() << Opts.InputPath << ": error: cannot open file\n";
    return ExitInputError;
  }

  parser::ParseResult Parsed = parser::parseModule(Source);
  if (!Parsed.succeeded()) {
    for (const std::string &E : Parsed.Errors)
      errs() << Opts.InputPath << ':' << E << '\n';
    return ExitInputError;
  }
  ir::Module &M = *Parsed.M;
  std::vector<std::string> VerifyErrors;
  if (!ir::verifyModule(M, VerifyErrors)) {
    for (const std::string &E : VerifyErrors)
      errs() << Opts.InputPath << ": error: " << E << '\n';
    return ExitInputError;
  }
  transforms::runPreset(M, Opts.Preset);

  raw_ostream &OS = outs();
  if (Opts.PrintIR)
    M.print(OS);

  if (Opts.Query) {
    core::UsherOptions UO;
    UO.Pta.Solver = Opts.Solver;
    UO.Limits = Opts.Limits;
    UO.Fault = Opts.Fault;
    core::QueryOutcome Q =
        core::runUsherQuery(M, UO, static_cast<uint32_t>(Opts.QuerySrc),
                            static_cast<uint32_t>(Opts.QuerySink));
    if (!Q.Valid) {
      errs() << Opts.InputPath << ": error: " << Q.Error << '\n';
      return ExitInputError;
    }
    OS << "query " << Opts.QuerySrc << " -> " << Opts.QuerySink << ": "
       << (Q.Exhausted    ? "inconclusive (budget exhausted)"
           : Q.Reachable  ? "reachable"
                          : "unreachable")
       << '\n'
       << "solver engine: " << analysis::solverKindName(Q.Solver.Engine)
       << '\n'
       << "states visited: " << Q.StatesVisited << '\n';
    analysis::printQueryWitness(OS, Q.Witness);
    return Q.Exhausted ? ExitLimits : ExitSuccess;
  }

  const core::ToolVariant Variants[] = {
      core::ToolVariant::MSanFull, core::ToolVariant::UsherTL,
      core::ToolVariant::UsherTLAT, core::ToolVariant::UsherOptI,
      core::ToolVariant::UsherFull};
  std::vector<core::ToolVariant> ToRun;
  if (Opts.Compare)
    ToRun.assign(std::begin(Variants), std::end(Variants));
  else
    ToRun.push_back(Opts.Variant);

  int ExitCode = ExitSuccess;
  for (core::ToolVariant V : ToRun) {
    core::UsherOptions UO;
    UO.Variant = V;
    UO.Pta.Solver = Opts.Solver;
    UO.Limits = Opts.Limits;
    UO.Fault = Opts.Fault;
    UO.Clients = Opts.Clients;
    UO.BoundsBudgetPercent = Opts.BoundsBudgetPercent;
    core::UsherResult R = core::runUsher(M, UO);
    if (R.Degradation.Degraded)
      errs() << "note: analysis degraded: " << R.Degradation.summary()
             << '\n';

    if (Opts.Stats) {
      core::measureUnpruned(M, UO, R);
      const core::UsherStatistics &S = R.Stats;
      OS << "instructions:         " << S.NumInstructions << '\n'
         << "top-level variables:  " << S.NumTopLevelVars << '\n'
         << "objects (stack/heap/global): " << S.NumStackObjects << '/'
         << S.NumHeapObjects << '/' << S.NumGlobalObjects << '\n'
         << "uninitialized allocs: "
         << static_cast<int>(S.PercentUninitObjects) << "%\n"
         << "VFG nodes/edges:      " << S.NumVFGNodes << '/'
         << S.NumVFGEdges << '\n'
         << "memory SSA versions:  " << S.NumMemSSAVersions << " (pruned "
         << S.NumPrunedMemVersions << ")\n"
         << "memory SSA placed:    " << S.NumPlacedMemVersions << '\n'
         << "definedness states:   " << S.NumDefinednessStates << '\n'
         << "store updates strong/weak: "
         << static_cast<int>(S.PercentStrongStores) << "%/"
         << static_cast<int>(S.PercentWeakStores) << "%\n"
         << "static propagations:  " << S.StaticPropagations << '\n'
         << "static checks:        " << S.StaticChecks << '\n'
         << "solver engine:        "
         << analysis::solverKindName(S.Solver.Engine) << '\n'
         << "solver constraints:   " << S.Solver.NumConstraints << '\n'
         << "solver propagations:  " << S.Solver.NumPropagations << '\n'
         << "solver collapses:     " << S.Solver.NumCollapses << " ("
         << S.Solver.NumCollapsedNodes << " nodes)\n";
      OS << "analysis time:        " << S.AnalysisSeconds * 1000 << " ms\n";
      for (const core::ClientPlanInfo &CP : R.ClientPlans) {
        OS << "client " << core::clientName(CP.Kind) << ":       sinks "
           << CP.SinkCandidates << ", unsafe " << CP.UnsafeSinks
           << ", checks placed " << CP.ChosenChecks << '\n';
        if (CP.Kind == core::ClientKind::Bounds && CP.PlacementCapacity)
          OS << "  placement:          cost " << CP.PlacementCost
             << " of capacity " << CP.PlacementCapacity
             << (CP.CapacityBound ? " (capacity-bound)" : "") << '\n';
      }
    }
    std::unique_ptr<core::StaticDiagnosis> Diag;
    if (Opts.Diagnose) {
      if (R.G && R.PA && R.CG) {
        Diag = std::make_unique<core::StaticDiagnosis>(*R.PA, *R.CG, *R.G);
        Diag->printText(OS);
        if (!Opts.DiagJsonPath.empty()) {
          std::FILE *FP = std::fopen(Opts.DiagJsonPath.c_str(), "wb");
          if (!FP) {
            errs() << Opts.DiagJsonPath << ": error: cannot write file\n";
            return ExitInputError;
          }
          raw_fd_ostream JS(FP);
          Diag->printJson(JS);
          JS.flush();
          std::fclose(FP);
        }
      } else {
        errs() << "note: --diagnose needs the analysis pipeline; "
                  "unavailable for this variant or degradation rung\n";
      }
    }
    if (Opts.DumpDot && R.G) {
      if (Diag) {
        std::vector<vfg::VFG::DotVerdict> Verdicts = Diag->dotVerdicts();
        R.G->dumpDot(OS, &Verdicts);
      } else {
        R.G->dumpDot(OS);
      }
    }

    if (Opts.Run) {
      // One base execution, one shadow plane per client. "uuv" maps to the
      // pipeline's own plan; the other clients' plans come from
      // R.ClientPlans in request order. Without --client the pipeline's
      // plan runs alone, labelled with the bare variant name.
      const bool Bare = Opts.Clients.empty();
      std::vector<core::ClientKind> Clients = Opts.Clients;
      if (Bare)
        Clients.push_back(core::ClientKind::UUV);
      std::vector<runtime::PlanExec> Plans;
      size_t NextClientPlan = 0;
      for (core::ClientKind K : Clients) {
        if (K == core::ClientKind::UUV)
          Plans.push_back({&R.Plan, core::ShadowSemantics()});
        else
          Plans.push_back({&R.ClientPlans[NextClientPlan++].Plan,
                           core::clientShadowSemantics(K)});
      }
      runtime::ExecLimits Limits;
      Limits.Interrupt = &InterruptRaised;
      runtime::ExecutionReport Rep =
          runtime::Interpreter(M, std::move(Plans), runtime::CostModel(),
                               Limits)
              .run();
      for (size_t Ci = 0; Ci != Clients.size(); ++Ci) {
        core::ClientKind K = Clients[Ci];
        std::string Label = core::toolVariantName(V);
        if (!Bare)
          Label += std::string("/") + core::clientName(K);
        reportClientRun(OS, Label, Rep, Rep.PlanResults[Ci],
                        core::clientWarningText(K));
        if (!Rep.PlanResults[Ci].ToolWarnings.empty())
          ExitCode = ExitWarnings; // Like a sanitizer: nonzero on bugs.
      }
      if (Rep.Reason != runtime::ExitReason::Finished)
        ExitCode = ExitLimits;
      if (Rep.Reason == runtime::ExitReason::Interrupted) {
        // Everything produced so far (including any --diag-json file) is
        // already flushed; make the interruption visible to callers.
        OS.flush();
        return ExitInterrupted;
      }
    } else if (!Opts.Compare) {
      OS << "static checks kept: " << R.Plan.countChecks()
         << ", shadow ops kept: " << R.Plan.countShadowOps() << '\n';
      for (const core::ClientPlanInfo &CP : R.ClientPlans)
        OS << "client " << core::clientName(CP.Kind)
           << " checks kept: " << CP.Plan.countChecks()
           << ", shadow ops kept: " << CP.Plan.countShadowOps() << '\n';
    }
  }
  return ExitCode;
}
