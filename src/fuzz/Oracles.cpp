//===- fuzz/Oracles.cpp - Differential oracles over one program -----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "analysis/DemandVFA.h"
#include "analysis/PointerAnalysis.h"
#include "core/ContextStack.h"
#include "core/StaticDiagnosis.h"
#include "core/Usher.h"
#include "ir/IR.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "serve/Protocol.h"
#include "serve/Session.h"

#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>

using namespace usher;
using namespace usher::fuzz;
using analysis::PointerAnalysis;
using analysis::SolverKind;
using core::ToolVariant;
using runtime::ExecLimits;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;

const char *fuzz::oracleKindName(OracleKind K) {
  static const char *const Names[] = {
      "variant-equivalence", "solver-equivalence", "diagnosis-soundness",
      "degradation-soundness", "serve-equivalence", "query-equivalence",
      "client-consistency"};
  static_assert(std::size(Names) == NumOracleKinds, "one name per oracle");
  const unsigned I = static_cast<unsigned>(K);
  return I < NumOracleKinds ? Names[I] : "unknown";
}

namespace {

/// Warning sets are compared by instruction id: renumbering makes ids
/// stable across parses of the same text, while instruction pointers are
/// only meaningful within one module.
std::set<uint32_t> warnIds(const std::vector<runtime::Warning> &Ws) {
  std::set<uint32_t> S;
  for (const runtime::Warning &W : Ws)
    S.insert(W.At->getId());
  return S;
}

std::string describeSetDiff(const std::set<uint32_t> &Tool,
                            const std::set<uint32_t> &Oracle) {
  for (uint32_t Id : Oracle)
    if (!Tool.count(Id))
      return "missed warning at inst#" + std::to_string(Id);
  for (uint32_t Id : Tool)
    if (!Oracle.count(Id))
      return "extra warning at inst#" + std::to_string(Id);
  return "";
}

/// Exact match, or Opt II's guarantee: it may only suppress dominated
/// duplicates (subset, non-empty iff). Returns "" when the guarantee holds.
std::string checkWarnings(bool Exact, const std::set<uint32_t> &Tool,
                          const std::set<uint32_t> &Oracle) {
  if (Exact)
    return describeSetDiff(Tool, Oracle);
  for (uint32_t Id : Tool)
    if (!Oracle.count(Id))
      return "false positive at inst#" + std::to_string(Id);
  return Tool.empty() && !Oracle.empty() ? "Opt II hid all real defects" : "";
}

/// One pipeline configuration run over its own freshly parsed module:
/// heap cloning mutates modules, so sharing one across configurations
/// would contaminate results.
struct PipelineRun {
  std::unique_ptr<ir::Module> M;
  core::UsherResult R;
  /// The interpreter's report on R.Plan (empty after analyze()).
  ExecutionReport Rep;
};

/// Parses \p Source afresh and runs the pipeline on it.
PipelineRun analyze(const std::string &Source,
                    const core::UsherOptions &UOpts) {
  std::unique_ptr<ir::Module> M = std::move(parser::parseModule(Source).M);
  core::UsherResult R = core::runUsher(*M, UOpts);
  return {std::move(M), std::move(R), ExecutionReport()};
}

/// analyze(), then interpret the plan under \p Limits.
PipelineRun runPipeline(const std::string &Source,
                        const core::UsherOptions &UOpts,
                        const ExecLimits &Limits) {
  PipelineRun X = analyze(Source, UOpts);
  X.Rep = Interpreter(*X.M, &X.R.Plan, runtime::CostModel(), Limits).run();
  return X;
}

/// One row of the plan table (oracles 1, 2 and 4): a pipeline
/// configuration whose plan must land on Rung and, when run, keep main's
/// result and report the ground-truth warnings.
struct PlanRow {
  OracleKind Oracle;
  std::string Tag; ///< Prefix of the row's divergence details.
  core::UsherOptions Opts;
  ToolVariant Rung;
  bool Exact; ///< False: Opt II's subset guarantee.
};

/// Oracle K's rows. Oracles 1 and 2 run every rung of the ladder
/// unbudgeted, with the optimized and with the naive Andersen solver;
/// oracle 4 injects exhaustion into one phase of a requested rung and
/// expects the documented landing rung. Its warnings are checked as that
/// rung's unfaulted row checks them: exact below USHER, Opt II's subset
/// on USHER (runUsher never strands a run on a half-applied Opt II).
std::vector<PlanRow> planRows(OracleKind K) {
  std::vector<PlanRow> Rows;
  auto Add = [&](std::string Tag, ToolVariant Requested, ToolVariant Rung,
                 bool Exact) -> core::UsherOptions & {
    Rows.push_back({K, std::move(Tag), {}, Rung, Exact});
    Rows.back().Opts.Variant = Requested;
    return Rows.back().Opts;
  };
  auto Fault = [&](BudgetPhase P, uint32_t MaxFires, ToolVariant Requested,
                   ToolVariant Rung) {
    std::string Tag = std::string("fault ") + budgetPhaseName(P);
    if (MaxFires)
      Tag += "@0:" + std::to_string(MaxFires);
    Add(Tag, Requested, Rung, Rung != ToolVariant::UsherFull).Fault =
        FaultPlan{P, 0, MaxFires};
  };
  using TV = ToolVariant;
  if (K == OracleKind::DegradationSoundness) {
    Fault(BudgetPhase::PointerAnalysis, 0, TV::UsherFull, TV::MSanFull);
    // One fire exhausts field-sensitive Andersen only: the
    // field-insensitive retry keeps the requested rung.
    Fault(BudgetPhase::PointerAnalysis, 1, TV::UsherFull, TV::UsherFull);
    Fault(BudgetPhase::Definedness, 0, TV::UsherFull, TV::UsherTLAT);
    Fault(BudgetPhase::OptII, 0, TV::UsherFull, TV::UsherOptI);
    Fault(BudgetPhase::OptI, 0, TV::UsherOptI, TV::UsherTLAT);
    return Rows;
  }
  const bool Naive = K == OracleKind::SolverEquivalence;
  for (TV V : {TV::MSanFull, TV::UsherTL, TV::UsherTLAT, TV::UsherOptI,
               TV::UsherFull}) {
    std::string Tag = core::toolVariantName(V);
    core::UsherOptions &O = Add(Naive ? Tag + " (naive)" : Tag, V, V,
                                V != TV::UsherFull);
    if (Naive)
      O.Pta.Solver = SolverKind::NaiveReference;
  }
  return Rows;
}

/// An instrumented run must finish and keep main's native result. Returns
/// false when it did not finish: nothing else about it can be checked.
bool checkFinished(OracleKind K, const std::string &Tag,
                   const ExecutionReport &Rep, int64_t MainResult,
                   std::vector<Divergence> &Out) {
  if (Rep.Reason != ExitReason::Finished) {
    Out.push_back({K, Tag + ": instrumented run did not finish (" +
                          Rep.TrapMessage + ")"});
    return false;
  }
  if (Rep.MainResult != MainResult)
    Out.push_back({K, Tag + ": instrumentation changed main's result"});
  return true;
}

/// The one check of a plan-table row against the native run's result and
/// ground-truth warnings.
void checkRow(const PlanRow &Row, const PipelineRun &X, int64_t MainResult,
              const std::set<uint32_t> &Oracle, std::vector<Divergence> &Out) {
  auto Diverge = [&](const std::string &What) {
    Out.push_back({Row.Oracle, Row.Tag + ": " + What});
  };
  const core::DegradationReport &DR = X.R.Degradation;
  if (Row.Opts.Fault && !DR.Degraded)
    return Diverge("injected exhaustion did not degrade");
  if (DR.Rung != Row.Rung)
    Diverge(std::string("landed on ") + core::toolVariantName(DR.Rung) +
            ", expected " + core::toolVariantName(Row.Rung));
  if (!checkFinished(Row.Oracle, Row.Tag, X.Rep, MainResult, Out))
    return;
  if (std::string Err =
          checkWarnings(Row.Exact, warnIds(X.Rep.ToolWarnings), Oracle);
      !Err.empty())
    Diverge(Err);
}

/// Loc-id-independent rendering of one variable's points-to set.
std::set<std::string> ptsNames(const PointerAnalysis &PA,
                               const ir::Variable *V) {
  std::set<std::string> S;
  for (uint32_t LocId : PA.pointsTo(V)) {
    const analysis::PtLoc &L = PA.location(LocId);
    S.insert(L.Obj->getName() + "#" + std::to_string(L.Field));
  }
  return S;
}

/// Oracle 2's solver check: the naive run's points-to sets must be the
/// optimized run's, variable by variable. Both modules are fresh parses of
/// one text, so their functions and variables pair up by index; a pair
/// whose names differ is a mismatch too.
void comparePointsTo(const PipelineRun &Opt, const PipelineRun &Ref,
                     std::vector<Divergence> &Out) {
  auto Diverge = [&Out](std::string Detail) {
    Out.push_back({OracleKind::SolverEquivalence, std::move(Detail)});
  };
  const PointerAnalysis *PAOpt = Opt.R.PA.get(), *PARef = Ref.R.PA.get();
  if (!PAOpt || !PARef)
    return Diverge("solver exhausted without a budget configured");
  if (PAOpt->numLocations() != PARef->numLocations())
    return Diverge("location count mismatch: optimized " +
                   std::to_string(PAOpt->numLocations()) + " vs naive " +
                   std::to_string(PARef->numLocations()));
  const auto &FsOpt = Opt.M->functions(), &FsRef = Ref.M->functions();
  if (FsOpt.size() != FsRef.size())
    return Diverge("function count mismatch: optimized " +
                   std::to_string(FsOpt.size()) + " vs naive " +
                   std::to_string(FsRef.size()));
  for (size_t FI = 0; FI != FsOpt.size(); ++FI) {
    const ir::Function &FOpt = *FsOpt[FI], &FRef = *FsRef[FI];
    const auto &VsOpt = FOpt.variables(), &VsRef = FRef.variables();
    if (FOpt.getName() != FRef.getName() || VsOpt.size() != VsRef.size()) {
      Diverge("points-to mismatch for " + FOpt.getName() +
              ": naive module has " + FRef.getName() + " with " +
              std::to_string(VsRef.size()) + " variables");
      continue;
    }
    for (size_t VI = 0; VI != VsOpt.size(); ++VI) {
      const ir::Variable *V = VsOpt[VI].get(), *VRef = VsRef[VI].get();
      if (V->getName() != VRef->getName() ||
          ptsNames(*PAOpt, V) != ptsNames(*PARef, VRef)) {
        Diverge("points-to mismatch for " + FOpt.getName() +
                "::" + V->getName());
        break;
      }
    }
  }
}

/// Coverage features of the analysis itself, from one pipeline result.
void addAnalysisFeatures(const core::UsherResult &R, FeatureSet &Features) {
  if (!R.G)
    return;
  uint32_t Mask = R.G->originMask();
  for (unsigned Bit = 0; Bit != 32; ++Bit)
    if (Mask & (1u << Bit))
      Features.add(FeatureDomain::Origin, Bit);
  if (R.G->numStrongStoreChis())
    Features.add(FeatureDomain::StoreKind, 0);
  if (R.G->numSemiStrongStoreChis())
    Features.add(FeatureDomain::StoreKind, 1);
  if (R.G->numWeakStoreChis())
    Features.add(FeatureDomain::StoreKind, 2);
  Features.add(FeatureDomain::OptCounter,
               (uint64_t(0) << 8) | countBucket(R.Stats.NumSimplifiedMFCs));
  Features.add(FeatureDomain::OptCounter,
               (uint64_t(1) << 8) | countBucket(R.Stats.NumRedirectedNodes));
  Features.add(FeatureDomain::Rung,
               static_cast<uint64_t>(R.Degradation.Rung));
}

} // namespace

OracleOutcome fuzz::runOracles(const std::string &Source,
                               const OracleOptions &Opts) {
  OracleOutcome Out;

  // -- Validity gate: parse, verify, run natively to completion ----------
  parser::ParseResult PR = parser::parseModule(Source);
  if (!PR.succeeded()) {
    Out.InvalidReason =
        "parse: " + (PR.Errors.empty() ? std::string("unknown error")
                                       : PR.Errors.front());
    return Out;
  }
  std::vector<std::string> VErrors;
  if (!ir::verifyModule(*PR.M, VErrors)) {
    Out.InvalidReason = "verify: " + VErrors.front();
    return Out;
  }

  ExecLimits NativeLimits;
  NativeLimits.MaxSteps = Opts.MaxSteps;
  NativeLimits.CollectCoverage = true;
  ExecutionReport Native =
      Interpreter(*PR.M, nullptr, runtime::CostModel(), NativeLimits).run();
  if (Native.Reason != ExitReason::Finished) {
    Out.InvalidReason = Native.Reason == ExitReason::Trap
                            ? "trap: " + Native.TrapMessage
                            : "step limit exceeded";
    return Out;
  }
  Out.Valid = true;
  Out.MainResult = Native.MainResult;
  Out.NumOracleWarnings = Native.OracleWarnings.size();
  const std::set<uint32_t> Oracle = warnIds(Native.OracleWarnings);

  // -- Interpreter edge coverage -----------------------------------------
  for (const auto &[Key, Hits] : Native.EdgeHits)
    Out.Features.add(FeatureDomain::Edge, (Key << 4) | countBucket(Hits));
  Out.Features.add(FeatureDomain::FrameDepth, Native.MaxFrameDepth);
  Out.Features.add(FeatureDomain::Warnings, countBucket(Oracle.size()));

  ExecLimits ToolLimits;
  ToolLimits.MaxSteps = Opts.MaxSteps;

  // True if oracle K is enabled; it is then recorded as checked.
  auto Enabled = [&Opts, &Out](OracleKind K) {
    bool On = !Opts.Only || *Opts.Only == K;
    Out.Checked[static_cast<unsigned>(K)] = On;
    return On;
  };
  auto Diverge = [&Out](OracleKind K, std::string Detail) {
    Out.Divergences.push_back({K, std::move(Detail)});
  };
  auto Check = [&](const PlanRow &Row, const PipelineRun &X) {
    checkRow(Row, X, Native.MainResult, Oracle, Out.Divergences);
  };

  // The default configuration (UsherFull, Andersen, no clients) is what
  // most oracles inspect: it runs at most once per program, when the
  // first enabled oracle asks for it.
  std::optional<PipelineRun> SharedRun;
  auto Shared = [&]() -> const PipelineRun & {
    if (!SharedRun)
      SharedRun.emplace(runPipeline(Source, core::UsherOptions(), ToolLimits));
    return *SharedRun;
  };

  // -- Oracle 1: variant equivalence vs the shadow interpreter -----------
  if (Enabled(OracleKind::VariantEquivalence)) {
    for (const PlanRow &Row : planRows(OracleKind::VariantEquivalence))
      if (Row.Rung == ToolVariant::UsherFull)
        Check(Row, Shared());
      else
        Check(Row, runPipeline(Source, Row.Opts, ToolLimits));
    addAnalysisFeatures(Shared().R, Out.Features);
  }

  // -- Oracle 2: fast vs naive constraint solver -------------------------
  if (Enabled(OracleKind::SolverEquivalence)) {
    // The naive USHER run's points-to sets must be the shared run's. Each
    // rung's guarantees with the naive solver underneath, like oracle 1's
    // with the optimized one, imply fast/naive warning equality per rung.
    std::vector<PlanRow> Rows = planRows(OracleKind::SolverEquivalence);
    std::vector<PipelineRun> Runs;
    for (const PlanRow &Row : Rows)
      Runs.push_back(runPipeline(Source, Row.Opts, ToolLimits));
    comparePointsTo(Shared(), Runs.back(), Out.Divergences);
    for (size_t I = 0; I != Rows.size(); ++I)
      Check(Rows[I], Runs[I]);
  }

  // -- Oracle 3: static diagnosis soundness and must-precision -----------
  if (Enabled(OracleKind::DiagnosisSoundness)) {
    const core::UsherResult &R = Shared().R;
    // Conservative posture: no anchor hypotheses, so DEFINITE provably
    // fires on every terminating run — required on arbitrary mutants,
    // which need not exercise both directions of every branch.
    core::DiagnosisOptions DOpts;
    DOpts.Conservative = true;
    core::StaticDiagnosis Diag(*R.PA, *R.CG, *R.G, DOpts);

    std::map<uint32_t, core::Verdict> ByInst;
    const auto &Uses = R.G->criticalUses();
    const auto &Vs = Diag.report().UseVerdicts;
    for (size_t Idx = 0; Idx != Uses.size(); ++Idx) {
      auto [It, New] = ByInst.emplace(Uses[Idx].I->getId(), Vs[Idx]);
      if (!New && static_cast<int>(Vs[Idx]) > static_cast<int>(It->second))
        It->second = Vs[Idx];
    }
    for (uint32_t Id : Oracle) {
      const std::string At = "oracle warning at inst#" + std::to_string(Id);
      auto It = ByInst.find(Id);
      if (It == ByInst.end())
        Diverge(OracleKind::DiagnosisSoundness, At + " is not a critical use");
      else if (It->second == core::Verdict::Clean)
        Diverge(OracleKind::DiagnosisSoundness, At + " classified CLEAN");
    }
    for (const core::Finding &F : Diag.report().Findings) {
      if (F.V != core::Verdict::Definite)
        continue;
      const std::string At = "DEFINITE at inst#" + std::to_string(F.I->getId());
      if (!Oracle.count(F.I->getId()))
        Diverge(OracleKind::DiagnosisSoundness, At + " never fired");
      std::string WErr;
      if (F.Witness.empty())
        Diverge(OracleKind::DiagnosisSoundness, At + " has no witness path");
      else if (!analysis::validateQueryWitness(
                   *R.G, vfg::VFG::RootF, F.UseNode, F.Witness,
                   core::StaticDiagnosis::ContextK, &WErr))
        Diverge(OracleKind::DiagnosisSoundness,
                At + " witness does not replay: " + WErr);
    }
  }

  // -- Oracle 4: degradation-ladder soundness under injected faults ------
  if (Enabled(OracleKind::DegradationSoundness))
    for (const PlanRow &Row : planRows(OracleKind::DegradationSoundness))
      Check(Row, runPipeline(Source, Row.Opts, ToolLimits));

  // -- Oracle 5: analysis service equivalence ----------------------------
  if (Enabled(OracleKind::ServeEquivalence)) {
    // One in-process Session with an in-memory snapshot store; every
    // request goes through the full wire encoding round trip so the
    // protocol layer is part of the differential surface.
    serve::SessionOptions SOpts;
    serve::Session Sess(SOpts);
    auto RoundTrip = [&Sess, &Diverge](serve::Request Rq,
                                       serve::Reply &Rp) -> bool {
      std::string Wire = serve::frame(serve::encodeRequest(Rq));
      serve::FrameReader Reader;
      // Split the feed so the incremental reassembly path is exercised.
      Reader.append(Wire.data(), Wire.size() / 2);
      Reader.append(Wire.data() + Wire.size() / 2,
                    Wire.size() - Wire.size() / 2);
      std::string Body, Err;
      auto Lost = [&](const char *What) {
        Diverge(OracleKind::ServeEquivalence, What + Err);
        return false;
      };
      if (Reader.next(Body, &Err) != serve::FrameReader::Result::Frame)
        return Lost("request frame lost: ");
      serve::Request Decoded;
      if (!serve::decodeRequest(Body, Decoded, &Err))
        return Lost("request did not survive encoding: ");
      serve::Reply Raw = Sess.handle(Decoded);
      if (!serve::decodeReply(serve::encodeReply(Raw), Rp, &Err))
        return Lost("reply did not survive encoding: ");
      return true;
    };

    auto Req = [&Source](serve::Op O, uint64_t Id) {
      serve::Request Rq;
      Rq.Kind = O;
      Rq.Id = Id;
      Rq.Source = Source;
      return Rq;
    };
    for (serve::Op O : {serve::Op::Analyze, serve::Op::Diagnose}) {
      serve::Request Rq = Req(O, static_cast<uint64_t>(O) + 1);
      serve::Reply Cold, Warm;
      if (!RoundTrip(Rq, Cold) || !RoundTrip(Rq, Warm))
        continue;
      const char *Name = serve::opName(O);
      if (Cold.Status != serve::ReplyStatus::Ok)
        Diverge(OracleKind::ServeEquivalence,
                std::string(Name) + ": unbudgeted request not OK: " +
                    Cold.Payload);
      if (Warm.Payload != Cold.Payload ||
          Warm.Status != Cold.Status)
        Diverge(OracleKind::ServeEquivalence,
                std::string(Name) + ": warm reply differs from cold");
    }
    // Both ops must have warm-started from their snapshots.
    if (Sess.servedWarm() != 2)
      Diverge(OracleKind::ServeEquivalence,
              "expected 2 warm replies, got " +
                  std::to_string(Sess.servedWarm()));

    // Cross-check the service's totals against the shared pipeline run:
    // the module line carries the plan's check count.
    const core::UsherResult &R = Shared().R;
    serve::Reply Rp;
    if (RoundTrip(Req(serve::Op::Analyze, 99), Rp)) {
      const std::string Needle =
          "module: variant=" +
          std::string(core::toolVariantName(R.Degradation.Rung)) +
          " checks=" + std::to_string(R.Plan.countChecks()) + " ";
      if (Rp.Payload.find(Needle) == std::string::npos)
        Diverge(OracleKind::ServeEquivalence,
                "service check total disagrees with in-process pipeline "
                "(expected" +
                    Needle + ")");
    }
  }

  // -- Oracle 6: demand query vs whole-program VFG reachability ----------
  if (Enabled(OracleKind::QueryEquivalence)) {
    const core::UsherResult &R = Shared().R;
    if (R.G && R.G->numNodes() != 0) {
      const vfg::VFG &G = *R.G;
      const uint32_t N = G.numNodes();
      const unsigned K = core::UsherOptions().ContextK;

      // Independent reference: an exhaustive DFS over (node, context)
      // states with the same k-limited CFL transitions, projecting out
      // the set of reachable *nodes* from one source. It shares the
      // ContextStack encoding with cflReachable but none of its traversal
      // or witness machinery, and keeps its own copy of the context step.
      auto ReachableFrom = [&](uint32_t Src) {
        std::vector<bool> NodeReached(N, false);
        std::set<std::pair<uint32_t, uint64_t>> SeenStates;
        std::vector<std::pair<uint32_t, uint64_t>> Stack;
        Stack.push_back({Src, core::ContextStack::empty().raw()});
        SeenStates.insert(Stack.back());
        NodeReached[Src] = true;
        while (!Stack.empty()) {
          auto [Node, Raw] = Stack.back();
          Stack.pop_back();
          core::ContextStack Ctx = core::ContextStack::fromRaw(Raw);
          for (const vfg::Edge &E : G.users(Node)) {
            core::ContextStack Next = Ctx;
            if (E.Kind == vfg::EdgeKind::Call) {
              if (K != 0)
                Next = Ctx.pushed(E.CallSite, K);
            } else if (E.Kind == vfg::EdgeKind::Ret) {
              if (K != 0) {
                core::ContextStack Popped = core::ContextStack::empty();
                if (!Ctx.popped(E.CallSite, Popped))
                  continue; // unrealizable return
                Next = Popped;
              }
            }
            std::pair<uint32_t, uint64_t> S{E.Node, Next.raw()};
            if (SeenStates.insert(S).second) {
              NodeReached[E.Node] = true;
              Stack.push_back(S);
            }
          }
        }
        return NodeReached;
      };

      // Sample deterministically: sinks favor critical-use nodes (the
      // queries a client would ask); sources and the other sinks are
      // hash-derived ids, so interior nodes are exercised too. The stride
      // walks are capped: when N shares a factor with the stride, the
      // orbit of Step*stride % N misses ids (stride 40503 on a 6-node
      // graph yields {0, 3} forever), and an uncapped loop would not end.
      std::set<uint32_t> Srcs, Sinks;
      for (const vfg::VFG::CriticalUse &U : G.criticalUses()) {
        Sinks.insert(U.Node);
        if (Sinks.size() >= 4)
          break;
      }
      for (uint32_t Step = 1; Srcs.size() < 3 && Step <= 64; ++Step)
        Srcs.insert(static_cast<uint32_t>((Step * 2654435761ull) % N));
      for (uint32_t Step = 7; Sinks.size() < 5 && Step <= 70; ++Step)
        Sinks.insert(static_cast<uint32_t>((Step * 40503ull) % N));

      for (uint32_t Src : Srcs) {
        std::vector<bool> Ref = ReachableFrom(Src);
        for (uint32_t Sink : Sinks) {
          const std::string Tag =
              "query " + std::to_string(Src) + " -> " + std::to_string(Sink);
          analysis::QueryResult Q = analysis::cflReachable(G, Src, Sink, K);
          if (Q.Exhausted) {
            Diverge(OracleKind::QueryEquivalence,
                    Tag + ": exhausted without a budget configured");
            continue;
          }
          if (Q.Reachable != Ref[Sink]) {
            Diverge(OracleKind::QueryEquivalence,
                    Tag + ": demand engine says " +
                        (Q.Reachable ? "reachable" : "unreachable") +
                        ", whole-program traversal says " +
                        (Ref[Sink] ? "reachable" : "unreachable"));
            continue;
          }
          if (Q.Reachable) {
            std::string WErr;
            if (!analysis::validateQueryWitness(G, Src, Sink, Q.Witness, K,
                                                &WErr))
              Diverge(OracleKind::QueryEquivalence,
                      Tag + ": witness does not replay: " + WErr);
          }
        }
      }
    }
  }

  // -- Oracle 7: sanitizer-client consistency ----------------------------
  if (Enabled(OracleKind::ClientConsistency)) {
    // A plan covers a warning when the warned instruction carries one of
    // the plan's own check ops.
    auto PlanChecksAt = [](const core::InstrumentationPlan &P,
                           const ir::Instruction *I) {
      for (const std::vector<core::ShadowOp> *Ops : {&P.before(I), &P.after(I)})
        for (const core::ShadowOp &Op : *Ops)
          if (Op.K == core::ShadowOp::Kind::Check ||
              Op.K == core::ShadowOp::Kind::CheckBounds)
            return true;
      return false;
    };

    // Each client's individual run, in plane order: its warnings and
    // dynamic check count. The UUV client's is the shared run (the legacy
    // single-plan entry point).
    const core::ClientKind Kinds[] = {core::ClientKind::UUV,
                                      core::ClientKind::AddrLeak,
                                      core::ClientKind::Bounds};
    const ExecutionReport &UuvRep = Shared().Rep;
    bool SoloOk = UuvRep.Reason == ExitReason::Finished;
    std::vector<std::pair<std::set<uint32_t>, uint64_t>> Solo{
        {warnIds(UuvRep.ToolWarnings), UuvRep.DynChecks}};
    for (core::ClientKind K : {Kinds[1], Kinds[2]}) {
      const std::string Tag = std::string("client ") + core::clientName(K);
      core::UsherOptions UOpts;
      UOpts.Clients = {K};
      const PipelineRun X = analyze(Source, UOpts);
      const core::UsherResult &R = X.R;
      if (R.ClientPlans.size() != 1) {
        Diverge(OracleKind::ClientConsistency,
                Tag + ": pipeline produced " +
                    std::to_string(R.ClientPlans.size()) +
                    " client plans, expected 1");
        SoloOk = false;
        continue;
      }
      // The client's MSan analog: full statement-by-statement shadowing
      // with the same PA-refined sink set, no taint analysis, no budgeted
      // placement. Both plans execute in ONE interpreter pass, which also
      // pits the multi-plan shadow planes against each other.
      core::ClientBuildInputs FullIn(*X.M);
      FullIn.PA = R.PA.get();
      core::ClientPlanInfo Full = core::buildClientFullPlan(K, FullIn);
      std::vector<runtime::PlanExec> Plans{
          {&R.ClientPlans[0].Plan, core::clientShadowSemantics(K)},
          {&Full.Plan, core::clientShadowSemantics(K)}};
      ExecutionReport Rep =
          Interpreter(*X.M, Plans, runtime::CostModel(), ToolLimits).run();
      if (!checkFinished(OracleKind::ClientConsistency, Tag, Rep,
                         Native.MainResult, Out.Divergences)) {
        SoloOk = false;
        continue;
      }
      const std::set<uint32_t> GuidedW =
          warnIds(Rep.PlanResults[0].ToolWarnings);
      const std::set<uint32_t> FullW = warnIds(Rep.PlanResults[1].ToolWarnings);
      if (GuidedW != FullW)
        Diverge(OracleKind::ClientConsistency,
                Tag + ": guided vs full: " + describeSetDiff(GuidedW, FullW));
      for (const runtime::Warning &W : Rep.PlanResults[0].ToolWarnings)
        if (!PlanChecksAt(R.ClientPlans[0].Plan, W.At)) {
          Diverge(OracleKind::ClientConsistency,
                  Tag + ": warning at inst#" + std::to_string(W.At->getId()) +
                      " has no check in the client's plan");
          break;
        }
      Solo.push_back({GuidedW, Rep.PlanResults[0].DynChecks});
    }

    // Multi-client single pass: one pipeline, one interpreter, one plan
    // per client. Each client's plane must reproduce its individual run.
    if (SoloOk) {
      core::UsherOptions UOpts;
      UOpts.Clients.assign(std::begin(Kinds), std::end(Kinds));
      const PipelineRun X = analyze(Source, UOpts);
      const core::UsherResult &R = X.R;
      std::vector<runtime::PlanExec> Plans{{&R.Plan, core::ShadowSemantics()}};
      for (const core::ClientPlanInfo &CP : R.ClientPlans)
        Plans.push_back({&CP.Plan, core::clientShadowSemantics(CP.Kind)});
      ExecutionReport Rep =
          Interpreter(*X.M, Plans, runtime::CostModel(), ToolLimits).run();
      if (R.ClientPlans.size() != 2)
        Diverge(OracleKind::ClientConsistency,
                "multi-client: pipeline produced " +
                    std::to_string(R.ClientPlans.size()) +
                    " client plans, expected 2");
      else if (checkFinished(OracleKind::ClientConsistency, "multi-client",
                             Rep, Native.MainResult, Out.Divergences))
        for (size_t P = 0; P != 3; ++P) {
          const auto &[Warns, Checks] = Solo[P];
          const runtime::PlanReport &Got = Rep.PlanResults[P];
          const std::string Tag = std::string("multi-client ") +
                                  core::clientName(Kinds[P]) + ": ";
          if (warnIds(Got.ToolWarnings) != Warns)
            Diverge(OracleKind::ClientConsistency,
                    Tag + "single-pass vs individual run: " +
                        describeSetDiff(warnIds(Got.ToolWarnings), Warns));
          if (Got.DynChecks != Checks)
            Diverge(OracleKind::ClientConsistency,
                    Tag + "dynamic check count " +
                        std::to_string(Got.DynChecks) +
                        " vs individual run's " + std::to_string(Checks));
        }
    }
  }

  return Out;
}
