//===- bench/bench_solver.cpp - Constraint-solver micro-benchmark ----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the three constraint engines — the naive Andersen reference, the
/// optimized Andersen solver (SCC collapsing + difference propagation),
/// and the near-linear unification solver — on copy-chain, copy-cycle,
/// fan-out and deref-storm/mesh stress workloads, and emits
/// machine-readable BENCH_solver.json. The timed quantity (solve_ms) is
/// the engine's own solve-phase clock from SolverStatistics: location
/// numbering and constraint building are engine-independent, and folding
/// them in would dilute exactly the difference the degradation ladder's
/// engine choice makes. Whole-construction wall time is recorded
/// alongside as total_ms. Each engine row also records its precision side
/// of the trade: average points-to set size, residual plan checks, and
/// the runtime warning count of a full pipeline built on that engine. See
/// EXPERIMENTS.md for the recipe and tools/check_bench_json.py for the
/// schema the smoke test validates.
///
/// Usage: bench_solver [--smoke] [--out=FILE]
///   --smoke     tiny workload sizes and a single timing iteration; used
///               by the bench-smoke ctest to keep the harness honest
///               without burning CI minutes.
///   --out=FILE  where to write the JSON (default: BENCH_solver.json).
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace usher;
using namespace usher::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Workload generators
//===----------------------------------------------------------------------===//

/// Shared drip machinery. A "drip ladder" delivers one new points-to bit
/// per stage, strictly staged: cell_k stores a pointer to cell_{k+1}, and
/// q_{k+1} = *q_k only resolves after q_k's set materialized during the
/// fixpoint. Every q_k also copies into \p Sink, so the sink receives K
/// bits in K *separate* batches instead of one pre-merged set — exactly
/// the pattern where the full-set reference must re-propagate its whole
/// (growing) set downstream per batch while difference propagation moves
/// only the one new bit.
///
/// The ladder's first copy (q1 = c1) is appended by finishDrip() so it is
/// the LAST copy constraint: no bit starts moving before the entire
/// downstream graph is wired up.
void emitDripLadder(std::string &Src, unsigned K, const std::string &Sink) {
  // Constant assignments only declare the ladder variables (the parser
  // requires definition before use); they add no pointer constraints.
  for (unsigned I = 1; I <= K; ++I)
    Src += "  q" + std::to_string(I) + " = 0;\n";
  for (unsigned I = 1; I <= K; ++I)
    Src += "  c" + std::to_string(I) + " = alloc heap 1 uninit;\n";
  for (unsigned I = 1; I != K; ++I)
    Src += "  *c" + std::to_string(I) + " = c" + std::to_string(I + 1) +
           ";\n";
  for (unsigned I = 1; I != K; ++I)
    Src += "  q" + std::to_string(I + 1) + " = *q" + std::to_string(I) +
           ";\n";
  for (unsigned I = 1; I <= K; ++I)
    Src += "  " + Sink + " = q" + std::to_string(I) + ";\n";
}

/// Unrelated allocation sites that only widen the points-to universe: the
/// dense reference scans every word of it per union, the sparse engine
/// skips the zero words.
void emitPadding(std::string &Src, unsigned P) {
  for (unsigned I = 0; I != P; ++I)
    Src += "  pad = alloc heap 1 uninit;\n";
}

void finishDrip(std::string &Src) {
  Src += "  q1 = c1;\n  ret 0;\n}\n";
}

/// Drip-fed copy chain: K staged bits enter the head of a Length-node
/// copy chain one at a time; the reference engine re-walks the chain with
/// full-set unions per drip, the optimized engine with one-bit deltas.
std::string makeCopyChain(unsigned K, unsigned Length, unsigned Pad) {
  std::string Src = "func main() {\n  h0 = 0;\n";
  for (unsigned I = 1; I != Length; ++I)
    Src += "  h" + std::to_string(I) + " = h" + std::to_string(I - 1) +
           ";\n";
  emitDripLadder(Src, K, "h0");
  emitPadding(Src, Pad);
  finishDrip(Src);
  return Src;
}

/// Drip-fed copy cycle: the K staged bits enter a RingSize-node copy ring
/// (one SCC) with a Tail-node chain hanging off the entry. The reference
/// engine circulates every drip all the way around the ring; the
/// optimized engine detects the wasted lap-closing propagation, collapses
/// the ring to a single representative, and from then on each drip costs
/// one merge.
std::string makeCycleStress(unsigned K, unsigned RingSize, unsigned Tail,
                            unsigned Pad) {
  std::string Src = "func main() {\n  r0 = 0;\n";
  for (unsigned I = 1; I != RingSize; ++I)
    Src += "  r" + std::to_string(I) + " = r" + std::to_string(I - 1) +
           ";\n";
  Src += "  r0 = r" + std::to_string(RingSize - 1) + ";\n";
  Src += "  t0 = r0;\n";
  for (unsigned I = 1; I != Tail; ++I)
    Src += "  t" + std::to_string(I) + " = t" + std::to_string(I - 1) +
           ";\n";
  emitDripLadder(Src, K, "r0");
  emitPadding(Src, Pad);
  finishDrip(Src);
  return Src;
}

/// Deref storm: M pointees stored through one hub cell, N readers each
/// loading it back out. Every Andersen engine must materialize the full
/// M-bit set at each of the N readers — Θ(N·M) propagation work — while
/// the unification solver merges all M pointees into the hub's single
/// pointee cell and wires each reader to the class representative with
/// one copy edge, Θ(N+M). This is the workload class the unify rung's
/// >=3x speedup target is measured on.
std::string makeDerefStorm(unsigned Readers, unsigned Pointees,
                           unsigned Pad) {
  std::string Src = "func main() {\n  s = 0;\n";
  Src += "  h = alloc heap 1 uninit;\n";
  for (unsigned J = 0; J != Pointees; ++J)
    Src += "  o = alloc heap 1 uninit;\n  *h = o;\n";
  for (unsigned I = 0; I != Readers; ++I) {
    Src += "  p" + std::to_string(I) + " = *h;\n";
    Src += "  s = p" + std::to_string(I) + ";\n";
  }
  emitPadding(Src, Pad);
  Src += "  ret 0;\n}\n";
  return Src;
}

/// Deref mesh: \p Hubs independent deref storms (each with its own cell,
/// \p Pointees stores and \p Readers loads) whose readers all drain into
/// one shared sink. The Andersen engines move Θ(Hubs·Readers·Pointees)
/// bits, 64 per word operation; the unification solver pays
/// Θ(Hubs·(Readers+Pointees)). Every engine's interned harvest shares one
/// materialized vector per hub's readers.
std::string makeDerefMesh(unsigned Hubs, unsigned Readers, unsigned Pointees,
                          unsigned Pad) {
  std::string Src = "func main() {\n  s = 0;\n";
  for (unsigned H = 0; H != Hubs; ++H) {
    std::string Hub = "h" + std::to_string(H);
    Src += "  " + Hub + " = alloc heap 1 uninit;\n";
    for (unsigned J = 0; J != Pointees; ++J)
      Src += "  o" + std::to_string(H) + " = alloc heap 1 uninit;\n  *" +
             Hub + " = o" + std::to_string(H) + ";\n";
    for (unsigned I = 0; I != Readers; ++I) {
      std::string P = "p" + std::to_string(H) + "_" + std::to_string(I);
      Src += "  " + P + " = *" + Hub + ";\n";
      Src += "  s = " + P + ";\n";
    }
  }
  emitPadding(Src, Pad);
  Src += "  ret 0;\n}\n";
  return Src;
}

/// Deref chain: the storm stacked at depth. Level 0 is a hub holding
/// \p Pointees objects; each further level loads the previous hub's
/// contents and stores them into its own hub, and \p Readers load each
/// level back out. Models nested indirection (linked structures, handle
/// tables): the Andersen engines re-materialize the full \p Pointees-bit
/// set at every level and reader — Θ(Levels·Readers·Pointees) — while the
/// unification solver moves one class id per level and reader,
/// Θ(Levels·Readers + Pointees).
std::string makeDerefChain(unsigned Levels, unsigned Readers,
                           unsigned Pointees, unsigned Pad) {
  std::string Src = "func main() {\n  s = 0;\n";
  Src += "  h0 = alloc heap 1 uninit;\n";
  for (unsigned J = 0; J != Pointees; ++J)
    Src += "  o = alloc heap 1 uninit;\n  *h0 = o;\n";
  for (unsigned L = 1; L != Levels; ++L) {
    std::string Prev = "h" + std::to_string(L - 1);
    std::string Hub = "h" + std::to_string(L);
    Src += "  " + Hub + " = alloc heap 1 uninit;\n";
    Src += "  x" + std::to_string(L) + " = *" + Prev + ";\n";
    Src += "  *" + Hub + " = x" + std::to_string(L) + ";\n";
    for (unsigned I = 0; I != Readers; ++I) {
      std::string P =
          "q" + std::to_string(L) + "_" + std::to_string(I);
      Src += "  " + P + " = *" + Hub + ";\n";
      Src += "  s = " + P + ";\n";
    }
  }
  emitPadding(Src, Pad);
  Src += "  ret 0;\n}\n";
  return Src;
}

/// Drip-fed fan-out: each staged bit is broadcast from a hub to Fan
/// chains of Depth copies. Stresses the per-successor cost of a pop: the
/// reference pays a dense full-set union per (successor, drip), the
/// optimized engine a single-bit merge.
std::string makeWideFanout(unsigned K, unsigned Fan, unsigned Depth,
                           unsigned Pad) {
  std::string Src = "func main() {\n  hub = 0;\n";
  for (unsigned F = 0; F != Fan; ++F) {
    std::string Base = "f" + std::to_string(F) + "_";
    Src += "  " + Base + "0 = hub;\n";
    for (unsigned I = 1; I != Depth; ++I)
      Src += "  " + Base + std::to_string(I) + " = " + Base +
             std::to_string(I - 1) + ";\n";
  }
  emitDripLadder(Src, K, "hub");
  emitPadding(Src, Pad);
  finishDrip(Src);
  return Src;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

struct EngineResult {
  double SolveMs = 0;
  /// Full PointerAnalysis construction wall time (numbering + constraint
  /// building + solve) for the same iteration solve_ms came from.
  double TotalMs = 0;
  SolverStatistics Stats;
  /// Average points-to set size over every top-level variable — the
  /// precision axis of the speed-vs-precision curve.
  double AvgPtsSize = 0;
  /// Residual checks in a full UsherFull plan built on this engine, and
  /// the tool warnings that plan reports at runtime. The check count
  /// shows what the engine's precision buys statically; the warning
  /// count must not depend on the engine (soundness).
  uint64_t PlanChecks = 0;
  uint64_t Warnings = 0;
};

/// Parses \p Src fresh per iteration (heap cloning may mutate the module)
/// and reports the best-of-\p Iters solve time plus the final counters.
EngineResult runEngine(const std::string &Src, SolverKind Kind,
                       unsigned Iters) {
  EngineResult R;
  R.SolveMs = 1e100;
  for (unsigned It = 0; It != Iters; ++It) {
    auto M = parser::parseModuleOrAbort(Src.c_str());
    CallGraph CG(*M);
    PtaOptions Opts;
    Opts.Solver = Kind;
    auto T0 = std::chrono::steady_clock::now();
    PointerAnalysis PA(*M, CG, Opts);
    auto T1 = std::chrono::steady_clock::now();
    double Ms = PA.solverStats().SolveMs;
    if (Ms < R.SolveMs) {
      R.SolveMs = Ms;
      R.TotalMs =
          std::chrono::duration<double, std::milli>(T1 - T0).count();
      R.Stats = PA.solverStats();
    }
    if (PA.exhausted()) {
      std::fprintf(stderr, "FATAL: solver exhausted with no budget armed\n");
      std::abort();
    }
    if (It == 0) {
      uint64_t Vars = 0, Bits = 0;
      for (const auto &Fn : M->functions())
        for (const auto &V : Fn->variables()) {
          ++Vars;
          Bits += PA.pointsTo(V.get()).size();
        }
      R.AvgPtsSize = Vars ? static_cast<double>(Bits) / Vars : 0;
    }
  }

  // Precision downstream: a full pipeline on this engine, executed once.
  auto M = parser::parseModuleOrAbort(Src.c_str());
  core::UsherOptions UOpts;
  UOpts.Pta.Solver = Kind;
  core::UsherResult UR = core::runUsher(*M, UOpts);
  R.PlanChecks = UR.Plan.countChecks();
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &UR.Plan).run();
  R.Warnings = Rep.ToolWarnings.size();
  return R;
}

struct BenchRow {
  std::string Name;
  unsigned Nodes = 0;
  uint64_t Constraints = 0;
  EngineResult Naive;
  EngineResult Optimized;
  EngineResult Unify;
  double speedup() const {
    return Optimized.SolveMs > 0 ? Naive.SolveMs / Optimized.SolveMs : 0;
  }
  /// The ladder step the unify rung buys: optimized Andersen vs unify.
  double unifySpeedup() const {
    return Unify.SolveMs > 0 ? Optimized.SolveMs / Unify.SolveMs : 0;
  }
};

BenchRow runWorkload(const std::string &Name, const std::string &Src,
                     unsigned Iters) {
  BenchRow Row;
  Row.Name = Name;
  {
    auto M = parser::parseModuleOrAbort(Src.c_str());
    CallGraph CG(*M);
    PointerAnalysis PA(*M, CG);
    Row.Nodes = PA.numNodes();
    Row.Constraints = PA.solverStats().NumConstraints;
  }
  Row.Naive = runEngine(Src, SolverKind::NaiveReference, Iters);
  Row.Optimized = runEngine(Src, SolverKind::Optimized, Iters);
  Row.Unify = runEngine(Src, SolverKind::Unify, Iters);
  return Row;
}

void emitEngine(JsonWriter &W, const char *Key, const EngineResult &E) {
  W.key(Key).beginObject(JsonWriter::Layout::Inline);
  W.members("solve_ms", E.SolveMs, "total_ms", E.TotalMs,
            "propagations", E.Stats.NumPropagations, "pops", E.Stats.NumPops,
            "skipped_merged_pops", E.Stats.NumSkippedMergedPops,
            "collapses", E.Stats.NumCollapses,
            "collapsed_nodes", E.Stats.NumCollapsedNodes,
            "unified_cells", E.Stats.NumUnifiedCells,
            "budget_steps", E.Stats.NumBudgetSteps,
            "avg_pts_size", E.AvgPtsSize,
            "plan_checks", E.PlanChecks, "warnings", E.Warnings);
  W.end();
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_solver.json";
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strncmp(argv[I], "--out=", 6) == 0) {
      OutPath = argv[I] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=FILE]\n", argv[0]);
      return 2;
    }
  }

  const unsigned Iters = Smoke ? 1 : 3;
  struct Spec {
    std::string Name;
    std::string Src;
  };
  std::vector<Spec> Specs;
  if (Smoke) {
    Specs.push_back({"copy_chain", makeCopyChain(8, 48, 64)});
    Specs.push_back({"cycle_stress", makeCycleStress(8, 24, 24, 64)});
    Specs.push_back({"wide_fanout", makeWideFanout(8, 8, 6, 64)});
    Specs.push_back({"deref_storm", makeDerefStorm(24, 24, 64)});
    Specs.push_back({"deref_mesh", makeDerefMesh(4, 8, 8, 32)});
    Specs.push_back({"deref_chain", makeDerefChain(4, 4, 8, 32)});
  } else {
    Specs.push_back({"copy_chain", makeCopyChain(96, 1500, 6000)});
    Specs.push_back({"cycle_stress", makeCycleStress(96, 512, 512, 4000)});
    Specs.push_back({"wide_fanout", makeWideFanout(96, 64, 16, 4000)});
    Specs.push_back({"deref_storm", makeDerefStorm(2000, 2000, 2000)});
    Specs.push_back({"deref_mesh", makeDerefMesh(64, 256, 256, 2000)});
    Specs.push_back({"deref_chain", makeDerefChain(48, 32, 1200, 2000)});
  }

  std::printf("%-14s %8s %10s %11s %11s %11s %8s %8s %9s %9s\n", "workload",
              "nodes", "constrs", "naive_ms", "opt_ms", "unify_ms", "speedup",
              "uspeedup", "opt_pts", "unify_pts");
  std::vector<BenchRow> Rows;
  double MinSpeedup = 1e100, GeoAcc = 1.0;
  double MinUnify = 1e100, UnifyGeoAcc = 1.0;
  for (const Spec &S : Specs) {
    BenchRow Row = runWorkload(S.Name, S.Src, Iters);
    std::printf("%-14s %8u %10llu %11.3f %11.3f %11.3f %7.2fx %7.2fx "
                "%9.2f %9.2f\n",
                Row.Name.c_str(), Row.Nodes,
                static_cast<unsigned long long>(Row.Constraints),
                Row.Naive.SolveMs, Row.Optimized.SolveMs, Row.Unify.SolveMs,
                Row.speedup(), Row.unifySpeedup(), Row.Optimized.AvgPtsSize,
                Row.Unify.AvgPtsSize);
    if (Row.speedup() < MinSpeedup)
      MinSpeedup = Row.speedup();
    GeoAcc *= Row.speedup();
    if (Row.unifySpeedup() < MinUnify)
      MinUnify = Row.unifySpeedup();
    UnifyGeoAcc *= Row.unifySpeedup();
    Rows.push_back(std::move(Row));
  }
  double Geomean = Rows.empty() ? 0 : std::pow(GeoAcc, 1.0 / Rows.size());
  double UnifyGeomean =
      Rows.empty() ? 0 : std::pow(UnifyGeoAcc, 1.0 / Rows.size());
  std::printf("min speedup %.2fx, geomean %.2fx; unify-vs-andersen min "
              "%.2fx, geomean %.2fx%s\n",
              MinSpeedup, Geomean, MinUnify, UnifyGeomean,
              Smoke ? " (smoke sizes; not meaningful)" : "");

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  raw_fd_ostream OS(F);
  JsonWriter W(OS);
  W.beginObject().members("schema", "usher-bench-solver-v1", "smoke", Smoke,
                          "iterations", Iters);
  W.key("workloads").beginArray();
  for (const BenchRow &Row : Rows) {
    W.beginObject().members("name", Row.Name, "nodes", Row.Nodes,
                            "constraints", Row.Constraints);
    emitEngine(W, "naive", Row.Naive);
    emitEngine(W, "optimized", Row.Optimized);
    emitEngine(W, "unify", Row.Unify);
    W.members("speedup", Row.speedup(), "unify_speedup", Row.unifySpeedup());
    W.end();
  }
  W.end().key("summary").beginObject(JsonWriter::Layout::Inline);
  W.members("min_speedup", MinSpeedup, "geomean_speedup", Geomean,
            "min_unify_speedup", MinUnify,
            "geomean_unify_speedup", UnifyGeomean);
  W.end().end();
  OS.flush();
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
