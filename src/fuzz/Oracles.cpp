//===- fuzz/Oracles.cpp - Differential oracles over one program -----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "analysis/CallGraph.h"
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

#include <map>
#include <set>
#include <string>

using namespace usher;
using namespace usher::fuzz;
using analysis::CallGraph;
using analysis::PointerAnalysis;
using analysis::PtaOptions;
using analysis::SolverKind;
using core::ToolVariant;
using runtime::ExecLimits;
using runtime::ExecutionReport;
using runtime::ExitReason;
using runtime::Interpreter;

const char *fuzz::oracleKindName(OracleKind K) {
  switch (K) {
  case OracleKind::VariantEquivalence:
    return "variant-equivalence";
  case OracleKind::SolverEquivalence:
    return "solver-equivalence";
  case OracleKind::DiagnosisSoundness:
    return "diagnosis-soundness";
  case OracleKind::DegradationSoundness:
    return "degradation-soundness";
  case OracleKind::ServeEquivalence:
    return "serve-equivalence";
  case OracleKind::QueryEquivalence:
    return "query-equivalence";
  case OracleKind::ClientConsistency:
    return "client-consistency";
  }
  return "unknown";
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

/// Exact-match semantics for MSan/TL/TLAT/OptI rungs; Opt II may only
/// suppress dominated duplicates (subset, non-empty iff). Returns "" when
/// the guarantee holds.
std::string checkWarnings(ToolVariant V, const std::set<uint32_t> &Tool,
                          const std::set<uint32_t> &Oracle) {
  if (V != ToolVariant::UsherFull) {
    if (Tool != Oracle)
      return describeSetDiff(Tool, Oracle);
    return "";
  }
  for (uint32_t Id : Tool)
    if (!Oracle.count(Id))
      return "false positive at inst#" + std::to_string(Id);
  if (Tool.empty() != Oracle.empty())
    return Tool.empty() ? "Opt II hid all real defects" : "";
  return "";
}

/// Every pipeline run gets a fresh module: heap cloning mutates modules,
/// so sharing one across engines or variants would contaminate results.
std::unique_ptr<ir::Module> parseFresh(const std::string &Source) {
  parser::ParseResult PR = parser::parseModule(Source);
  return PR.succeeded() ? std::move(PR.M) : nullptr;
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

struct VariantSemantics {
  ToolVariant V;
  const char *Name;
};

const VariantSemantics AllVariants[] = {
    {ToolVariant::MSanFull, "MSAN"},
    {ToolVariant::UsherTL, "USHER-TL"},
    {ToolVariant::UsherTLAT, "USHER-TL+AT"},
    {ToolVariant::UsherOptI, "USHER-OPTI"},
    {ToolVariant::UsherFull, "USHER"},
};

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

  // -- Oracle 1: variant equivalence vs the shadow interpreter -----------
  if (Enabled(OracleKind::VariantEquivalence)) {
    for (const VariantSemantics &VS : AllVariants) {
      auto M = parseFresh(Source);
      core::UsherOptions UOpts;
      UOpts.Variant = VS.V;
      core::UsherResult R = core::runUsher(*M, UOpts);
      ExecutionReport Rep =
          Interpreter(*M, &R.Plan, runtime::CostModel(), ToolLimits).run();
      if (Rep.Reason != ExitReason::Finished) {
        Diverge(OracleKind::VariantEquivalence,
                std::string(VS.Name) + ": instrumented run did not finish (" +
                    Rep.TrapMessage + ")");
        continue;
      }
      if (Rep.MainResult != Native.MainResult)
        Diverge(OracleKind::VariantEquivalence,
                std::string(VS.Name) + ": instrumentation changed main's "
                                       "result");
      std::string Err = checkWarnings(VS.V, warnIds(Rep.ToolWarnings), Oracle);
      if (!Err.empty())
        Diverge(OracleKind::VariantEquivalence,
                std::string(VS.Name) + ": " + Err);

      // Analysis-feature coverage comes from the full pipeline run.
      if (VS.V == ToolVariant::UsherFull && R.G) {
        uint32_t Mask = R.G->originMask();
        for (unsigned Bit = 0; Bit != 32; ++Bit)
          if (Mask & (1u << Bit))
            Out.Features.add(FeatureDomain::Origin, Bit);
        if (R.G->numStrongStoreChis())
          Out.Features.add(FeatureDomain::StoreKind, 0);
        if (R.G->numSemiStrongStoreChis())
          Out.Features.add(FeatureDomain::StoreKind, 1);
        if (R.G->numWeakStoreChis())
          Out.Features.add(FeatureDomain::StoreKind, 2);
        Out.Features.add(FeatureDomain::OptCounter,
                         (uint64_t(0) << 8) |
                             countBucket(R.Stats.NumSimplifiedMFCs));
        Out.Features.add(FeatureDomain::OptCounter,
                         (uint64_t(1) << 8) |
                             countBucket(R.Stats.NumRedirectedNodes));
        Out.Features.add(FeatureDomain::Rung,
                         static_cast<uint64_t>(R.Degradation.Rung));
      }
    }
  }

  // -- Oracle 2: fast vs naive constraint solver -------------------------
  if (Enabled(OracleKind::SolverEquivalence)) {
    auto MOpt = parseFresh(Source);
    auto MRef = parseFresh(Source);
    CallGraph CGOpt(*MOpt);
    PtaOptions POpt;
    POpt.Solver = SolverKind::Optimized;
    PointerAnalysis PAOpt(*MOpt, CGOpt, POpt);
    CallGraph CGRef(*MRef);
    PtaOptions PRef;
    PRef.Solver = SolverKind::NaiveReference;
    PointerAnalysis PARef(*MRef, CGRef, PRef);
    if (PAOpt.exhausted() || PARef.exhausted()) {
      Diverge(OracleKind::SolverEquivalence,
              "solver exhausted without a budget configured");
    } else if (PAOpt.numLocations() != PARef.numLocations()) {
      Diverge(OracleKind::SolverEquivalence,
              "location count mismatch: optimized " +
                  std::to_string(PAOpt.numLocations()) + " vs naive " +
                  std::to_string(PARef.numLocations()));
    } else {
      for (const auto &FOpt : MOpt->functions()) {
        const ir::Function *FRef = MRef->findFunction(FOpt->getName());
        for (const auto &V : FOpt->variables()) {
          const ir::Variable *VRef = FRef->findVariable(V->getName());
          if (ptsNames(PAOpt, V.get()) != ptsNames(PARef, VRef)) {
            Diverge(OracleKind::SolverEquivalence,
                    "points-to mismatch for " + FOpt->getName() +
                        "::" + V->getName());
            break;
          }
        }
      }
    }

    // Per-rung warning guarantees with the naive solver underneath. The
    // optimized side already holds these via oracle 1, so agreement with
    // the oracle here implies fast/naive warning equality per rung.
    for (const VariantSemantics &VS : AllVariants) {
      auto M = parseFresh(Source);
      core::UsherOptions UOpts;
      UOpts.Variant = VS.V;
      UOpts.Pta.Solver = SolverKind::NaiveReference;
      core::UsherResult R = core::runUsher(*M, UOpts);
      ExecutionReport Rep =
          Interpreter(*M, &R.Plan, runtime::CostModel(), ToolLimits).run();
      if (Rep.Reason != ExitReason::Finished) {
        Diverge(OracleKind::SolverEquivalence,
                std::string(VS.Name) +
                    " (naive): instrumented run did not finish");
        continue;
      }
      std::string Err = checkWarnings(VS.V, warnIds(Rep.ToolWarnings), Oracle);
      if (!Err.empty())
        Diverge(OracleKind::SolverEquivalence,
                std::string(VS.Name) + " (naive): " + Err);
    }
  }

  // -- Oracle 3: static diagnosis soundness and must-precision -----------
  if (Enabled(OracleKind::DiagnosisSoundness)) {
    auto M = parseFresh(Source);
    core::UsherOptions UOpts;
    UOpts.Variant = ToolVariant::UsherFull;
    core::UsherResult R = core::runUsher(*M, UOpts);
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
      auto It = ByInst.find(Id);
      if (It == ByInst.end())
        Diverge(OracleKind::DiagnosisSoundness,
                "oracle warning at inst#" + std::to_string(Id) +
                    " is not a critical use");
      else if (It->second == core::Verdict::Clean)
        Diverge(OracleKind::DiagnosisSoundness,
                "oracle warning at inst#" + std::to_string(Id) +
                    " classified CLEAN");
    }
    for (const core::Finding &F : Diag.report().Findings) {
      if (F.V != core::Verdict::Definite)
        continue;
      if (!Oracle.count(F.I->getId()))
        Diverge(OracleKind::DiagnosisSoundness,
                "DEFINITE at inst#" + std::to_string(F.I->getId()) +
                    " never fired");
      std::string WErr;
      if (F.Witness.empty())
        Diverge(OracleKind::DiagnosisSoundness,
                "DEFINITE at inst#" + std::to_string(F.I->getId()) +
                    " has no witness path");
      else if (!analysis::validateQueryWitness(
                   *R.G, vfg::VFG::RootF, F.UseNode, F.Witness,
                   core::StaticDiagnosis::ContextK, &WErr))
        Diverge(OracleKind::DiagnosisSoundness,
                "DEFINITE at inst#" + std::to_string(F.I->getId()) +
                    " witness does not replay: " + WErr);
    }
  }

  // -- Oracle 4: degradation-ladder soundness under injected faults ------
  if (Enabled(OracleKind::DegradationSoundness)) {
    struct FaultCase {
      BudgetPhase Phase;
      ToolVariant Requested;
      ToolVariant ExpectedRung;
    };
    const FaultCase Cases[] = {
        {BudgetPhase::PointerAnalysis, ToolVariant::UsherFull,
         ToolVariant::MSanFull},
        {BudgetPhase::Definedness, ToolVariant::UsherFull,
         ToolVariant::UsherTLAT},
        {BudgetPhase::OptII, ToolVariant::UsherFull, ToolVariant::UsherOptI},
        {BudgetPhase::OptI, ToolVariant::UsherOptI, ToolVariant::UsherTLAT},
    };
    for (const FaultCase &C : Cases) {
      auto M = parseFresh(Source);
      core::UsherOptions UOpts;
      UOpts.Variant = C.Requested;
      FaultPlan F;
      F.Phase = C.Phase;
      F.AtStep = 0;
      UOpts.Fault = F;
      core::UsherResult R = core::runUsher(*M, UOpts);
      std::string Tag = std::string("fault ") + budgetPhaseName(C.Phase);
      if (!R.Degradation.Degraded) {
        Diverge(OracleKind::DegradationSoundness,
                Tag + ": injected exhaustion did not degrade");
        continue;
      }
      if (R.Degradation.Rung != C.ExpectedRung)
        Diverge(OracleKind::DegradationSoundness,
                Tag + ": landed on " +
                    core::toolVariantName(R.Degradation.Rung) +
                    ", expected " + core::toolVariantName(C.ExpectedRung));
      ExecutionReport Rep =
          Interpreter(*M, &R.Plan, runtime::CostModel(), ToolLimits).run();
      if (Rep.Reason != ExitReason::Finished) {
        Diverge(OracleKind::DegradationSoundness,
                Tag + ": degraded run did not finish");
        continue;
      }
      if (Rep.MainResult != Native.MainResult)
        Diverge(OracleKind::DegradationSoundness,
                Tag + ": degraded instrumentation changed main's result");
      // Every landing rung has exact-match semantics: the driver never
      // strands a run on a half-applied Opt II.
      if (warnIds(Rep.ToolWarnings) != Oracle)
        Diverge(OracleKind::DegradationSoundness,
                Tag + ": " +
                    describeSetDiff(warnIds(Rep.ToolWarnings), Oracle));
    }
  }

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
      if (Reader.next(Body, &Err) != serve::FrameReader::Result::Frame) {
        Diverge(OracleKind::ServeEquivalence, "request frame lost: " + Err);
        return false;
      }
      serve::Request Decoded;
      if (!serve::decodeRequest(Body, Decoded, &Err)) {
        Diverge(OracleKind::ServeEquivalence,
                "request did not survive encoding: " + Err);
        return false;
      }
      serve::Reply Raw = Sess.handle(Decoded);
      if (!serve::decodeReply(serve::encodeReply(Raw), Rp, &Err)) {
        Diverge(OracleKind::ServeEquivalence,
                "reply did not survive encoding: " + Err);
        return false;
      }
      return true;
    };

    for (serve::Op O : {serve::Op::Analyze, serve::Op::Diagnose}) {
      serve::Request Rq;
      Rq.Kind = O;
      Rq.Id = static_cast<uint64_t>(O) + 1;
      Rq.Source = Source;
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

    // Cross-check the service's totals against a direct pipeline run: the
    // module line carries the plan's check count.
    auto M = parseFresh(Source);
    core::UsherOptions UOpts;
    core::UsherResult R = core::runUsher(*M, UOpts);
    serve::Request Rq;
    Rq.Kind = serve::Op::Analyze;
    Rq.Id = 99;
    Rq.Source = Source;
    serve::Reply Rp;
    if (RoundTrip(Rq, Rp)) {
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
    auto M = parseFresh(Source);
    core::UsherOptions UOpts;
    UOpts.Variant = ToolVariant::UsherFull;
    core::UsherResult R = core::runUsher(*M, UOpts);
    if (R.G && R.G->numNodes() != 0) {
      const vfg::VFG &G = *R.G;
      const uint32_t N = G.numNodes();
      const unsigned K = UOpts.ContextK;

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
      // queries a client would actually ask), sources and the remainder
      // come from hash-derived ids so arbitrary interior nodes are
      // exercised too. The stride walks carry a hard step cap: when N
      // shares a factor with the stride, the orbit of Step*stride % N
      // covers only a subset of the ids (e.g. stride 40503 on a 6-node
      // graph yields {0, 3} forever), so an uncapped grow-until-size
      // loop would never terminate. Short collections just mean fewer
      // sampled pairs.
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

    const core::ClientKind NewClients[] = {core::ClientKind::AddrLeak,
                                           core::ClientKind::Bounds};
    std::map<core::ClientKind, std::set<uint32_t>> SoloWarns;
    std::map<core::ClientKind, uint64_t> SoloChecks;
    bool SoloOk = true;
    for (core::ClientKind K : NewClients) {
      const std::string Tag = std::string("client ") + core::clientName(K);
      auto M = parseFresh(Source);
      core::UsherOptions UOpts;
      UOpts.Variant = ToolVariant::UsherFull;
      UOpts.Clients = {K};
      core::UsherResult R = core::runUsher(*M, UOpts);
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
      core::ClientBuildInputs FullIn(*M);
      FullIn.PA = R.PA.get();
      core::ClientPlanInfo Full = core::buildClientFullPlan(K, FullIn);
      std::vector<runtime::PlanExec> Plans{
          {&R.ClientPlans[0].Plan, core::clientShadowSemantics(K)},
          {&Full.Plan, core::clientShadowSemantics(K)}};
      ExecutionReport Rep =
          Interpreter(*M, Plans, runtime::CostModel(), ToolLimits).run();
      if (Rep.Reason != ExitReason::Finished) {
        Diverge(OracleKind::ClientConsistency,
                Tag + ": instrumented run did not finish (" +
                    Rep.TrapMessage + ")");
        SoloOk = false;
        continue;
      }
      if (Rep.MainResult != Native.MainResult)
        Diverge(OracleKind::ClientConsistency,
                Tag + ": instrumentation changed main's result");
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
      SoloWarns[K] = GuidedW;
      SoloChecks[K] = Rep.PlanResults[0].DynChecks;
    }

    // The UUV client's own individual run, via the legacy single-plan
    // entry point — the third row of the comparison matrix.
    std::set<uint32_t> UuvWarns;
    uint64_t UuvChecks = 0;
    {
      auto M = parseFresh(Source);
      core::UsherOptions UOpts;
      UOpts.Variant = ToolVariant::UsherFull;
      core::UsherResult R = core::runUsher(*M, UOpts);
      ExecutionReport Rep =
          Interpreter(*M, &R.Plan, runtime::CostModel(), ToolLimits).run();
      if (Rep.Reason != ExitReason::Finished)
        SoloOk = false;
      else {
        UuvWarns = warnIds(Rep.ToolWarnings);
        UuvChecks = Rep.DynChecks;
      }
    }

    // Multi-client single pass: one pipeline, one interpreter, one plan
    // per client. Each client's plane must reproduce its individual run.
    if (SoloOk) {
      auto M = parseFresh(Source);
      core::UsherOptions UOpts;
      UOpts.Variant = ToolVariant::UsherFull;
      UOpts.Clients = {core::ClientKind::UUV, core::ClientKind::AddrLeak,
                       core::ClientKind::Bounds};
      core::UsherResult R = core::runUsher(*M, UOpts);
      std::vector<runtime::PlanExec> Plans{{&R.Plan, core::ShadowSemantics()}};
      for (const core::ClientPlanInfo &CP : R.ClientPlans)
        Plans.push_back({&CP.Plan, core::clientShadowSemantics(CP.Kind)});
      ExecutionReport Rep =
          Interpreter(*M, Plans, runtime::CostModel(), ToolLimits).run();
      if (Rep.Reason != ExitReason::Finished) {
        Diverge(OracleKind::ClientConsistency,
                "multi-client: run did not finish (" + Rep.TrapMessage + ")");
      } else if (R.ClientPlans.size() != 2) {
        Diverge(OracleKind::ClientConsistency,
                "multi-client: pipeline produced " +
                    std::to_string(R.ClientPlans.size()) +
                    " client plans, expected 2");
      } else {
        struct Row {
          const char *Name;
          const std::set<uint32_t> &Warns;
          uint64_t Checks;
        };
        const Row Rows[] = {
            {"uuv", UuvWarns, UuvChecks},
            {"addrleak", SoloWarns[core::ClientKind::AddrLeak],
             SoloChecks[core::ClientKind::AddrLeak]},
            {"bounds", SoloWarns[core::ClientKind::Bounds],
             SoloChecks[core::ClientKind::Bounds]},
        };
        for (size_t P = 0; P != 3; ++P) {
          const Row &Want = Rows[P];
          const std::string Tag =
              std::string("multi-client ") + Want.Name + ": ";
          if (warnIds(Rep.PlanResults[P].ToolWarnings) != Want.Warns)
            Diverge(OracleKind::ClientConsistency,
                    Tag + "single-pass vs individual run: " +
                        describeSetDiff(warnIds(Rep.PlanResults[P].ToolWarnings),
                                        Want.Warns));
          if (Rep.PlanResults[P].DynChecks != Want.Checks)
            Diverge(OracleKind::ClientConsistency,
                    Tag + "dynamic check count " +
                        std::to_string(Rep.PlanResults[P].DynChecks) +
                        " vs individual run's " +
                        std::to_string(Want.Checks));
        }
      }
    }
  }

  return Out;
}
