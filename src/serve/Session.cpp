//===- serve/Session.cpp - Analysis service request handling ---------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "serve/Session.h"

#include "core/StaticDiagnosis.h"
#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "support/FaultInjection.h"
#include "support/RawStream.h"

#include <exception>
#include <utility>

using namespace usher;
using namespace usher::serve;

Session::Session(SessionOptions O)
    : Opts(std::move(O)), Store(Opts.SnapshotDir) {}

namespace {

/// Key derivation. The module key folds the canonical printed module text
/// and the operation, so any textual change — or asking for diagnosis
/// instead of analysis — lands on disjoint entries. Per-function and
/// module-section entries are derived from it; they are per-function
/// *files*, not per-function validity (ROADMAP item 2 covers true
/// incremental invalidation).
uint64_t moduleKey(const ir::Module &M, Op Kind, const std::string &Clients) {
  std::string Text;
  raw_string_ostream OS(Text);
  M.print(OS);
  uint64_t Key = SnapshotStore::mix(SnapshotStore::hashBytes(opName(Kind)),
                                    SnapshotStore::hashBytes(Text));
  // The client list changes the reply, so it must change the key; the
  // empty (UUV-only) list keeps the pre-framework key values, so old
  // snapshot stores stay warm.
  if (!Clients.empty())
    Key = SnapshotStore::mix(Key, SnapshotStore::hashBytes(Clients));
  return Key;
}

uint64_t functionKey(uint64_t ModuleKey, const ir::Function &F) {
  return SnapshotStore::mix(ModuleKey, SnapshotStore::hashBytes(F.getName()));
}

uint64_t moduleSectionKey(uint64_t ModuleKey) {
  return SnapshotStore::mix(ModuleKey, SnapshotStore::hashBytes("#module"));
}

/// Renders the analyze section for one function: static plan counts
/// derived from the instrumentation plan, deterministic in module order.
std::string renderAnalyzeFunction(const core::InstrumentationPlan &Plan,
                                  const ir::Function &F) {
  uint64_t Checks = 0, ShadowOps = 0, Reads = 0;
  auto Count = [&](const std::vector<core::ShadowOp> &Ops) {
    for (const core::ShadowOp &Op : Ops) {
      if (Op.K == core::ShadowOp::Kind::Check)
        ++Checks;
      else
        ++ShadowOps;
      Reads += Op.reads();
    }
  };
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      Count(Plan.before(I.get()));
      Count(Plan.after(I.get()));
    }
  const uint64_t EntryOps = Plan.entry(&F).size();
  ShadowOps += EntryOps;
  for (const core::ShadowOp &Op : Plan.entry(&F))
    Reads += Op.reads();

  std::string Out;
  raw_string_ostream OS(Out);
  OS << "function " << F.getName() << ": checks=" << Checks
     << " shadow-ops=" << ShadowOps << " entry-ops=" << EntryOps
     << " reads=" << Reads << "\n";
  return Out;
}

std::string renderAnalyzeModule(const core::UsherResult &R) {
  std::string Out;
  raw_string_ostream OS(Out);
  OS << "module: variant=" << core::toolVariantName(R.Degradation.Rung)
     << " checks=" << R.Plan.countChecks()
     << " shadow-ops=" << R.Plan.countShadowOps()
     << " propagations=" << R.Plan.countPropagationReads() << "\n";
  for (const core::ClientPlanInfo &CP : R.ClientPlans)
    OS << "client " << core::clientName(CP.Kind)
       << ": checks=" << CP.Plan.countChecks()
       << " shadow-ops=" << CP.Plan.countShadowOps()
       << " sinks=" << CP.SinkCandidates << " unsafe=" << CP.UnsafeSinks
       << "\n";
  if (R.Degradation.Degraded)
    OS << "degraded: " << R.Degradation.summary() << "\n";
  return Out;
}

/// Renders the diagnose section for one function: its non-CLEAN findings
/// in instruction-id order (the report is already so ordered).
std::string renderDiagnoseFunction(const core::DiagnosisReport &Report,
                                   const ir::Function &F) {
  std::string Out;
  raw_string_ostream OS(Out);
  uint64_t N = 0;
  std::string Body;
  raw_string_ostream BodyOS(Body);
  for (const core::Finding &Fd : Report.Findings) {
    if (Fd.I->getParent()->getParent() != &F)
      continue;
    ++N;
    BodyOS << "  " << core::verdictName(Fd.V) << " use of "
           << Fd.Var->getName() << " at #" << Fd.I->getId()
           << " witness-steps=" << Fd.Witness.size() << "\n";
  }
  OS << "function " << F.getName() << ": findings=" << N << "\n" << Body;
  return Out;
}

std::string renderDiagnoseModule(const core::DiagnosisReport &Report) {
  std::string Out;
  raw_string_ostream OS(Out);
  OS << "module: critical-uses="
     << (Report.NumClean + Report.NumMay + Report.NumDefinite)
     << " clean=" << Report.NumClean << " may=" << Report.NumMay
     << " definite=" << Report.NumDefinite << "\n";
  return Out;
}

} // namespace

Reply Session::handleAnalysis(const Request &Rq) {
  Reply Rp;
  Rp.Id = Rq.Id;

  parser::ParseResult PR = parser::parseModule(Rq.Source);
  if (!PR.succeeded()) {
    Rp.Status = ReplyStatus::Error;
    std::string Msg;
    raw_string_ostream OS(Msg);
    OS << "parse error";
    for (const std::string &E : PR.Errors)
      OS << "\n  " << E;
    Rp.Payload = std::move(Msg);
    return Rp;
  }
  ir::Module &M = *PR.M;

  // Sanitizer-client selection (analyze only; diagnose is UUV by nature).
  std::vector<core::ClientKind> Clients;
  if (Rq.Kind == Op::Analyze && !Rq.Clients.empty()) {
    std::string_view List = Rq.Clients;
    for (;;) {
      size_t Comma = List.find(',');
      core::ClientKind K;
      if (!core::parseClientName(std::string(List.substr(0, Comma)), K)) {
        Rp.Status = ReplyStatus::Error;
        Rp.Payload = "unknown sanitizer client in list: " + Rq.Clients;
        return Rp;
      }
      Clients.push_back(K);
      if (Comma == std::string_view::npos)
        break;
      List.remove_prefix(Comma + 1);
    }
  }

  // Budgeted requests bypass the snapshot store in both directions: their
  // results may be degraded (weaker than what a later unbudgeted request
  // deserves) and an unbudgeted snapshot must never mask the degradation
  // the caller asked to observe. Warm therefore always equals cold.
  const bool Cacheable =
      Rq.DeadlineMs == 0 && Rq.BudgetSteps == 0 && Rq.FaultSpec.empty();

  const uint64_t MK =
      moduleKey(M, Rq.Kind, Rq.Kind == Op::Analyze ? Rq.Clients : "");
  const uint64_t SectionKey = moduleSectionKey(MK);

  if (Cacheable) {
    // Warm path: every per-function entry plus the module section must
    // validate; any miss or discarded corruption falls through to a full
    // recompute (which re-saves, healing the store).
    std::string Assembled;
    bool Complete = true;
    for (const auto &F : M.functions()) {
      std::optional<std::string> E = Store.load(functionKey(MK, *F));
      if (!E) {
        Complete = false;
        break;
      }
      Assembled += *E;
    }
    if (Complete) {
      if (std::optional<std::string> E = Store.load(SectionKey)) {
        Rp.Status = ReplyStatus::Ok;
        Rp.Payload = Assembled + *E;
        ServedWarm.fetch_add(1, std::memory_order_relaxed);
        return Rp;
      }
    }
  }

  core::UsherOptions UO;
  UO.Clients = Clients;
  UO.Limits.PhaseDeadlineMs = Rq.DeadlineMs;
  UO.Limits.MaxStepsPerPhase = Rq.BudgetSteps;
  if (!Rq.FaultSpec.empty()) {
    std::string Err;
    std::optional<FaultPlan> FP = parseFaultSpec(Rq.FaultSpec, &Err);
    if (!FP) {
      Rp.Status = ReplyStatus::Error;
      Rp.Payload = "bad fault spec: " + Err;
      return Rp;
    }
    UO.Fault = *FP;
  }

  core::UsherResult R = core::runUsher(M, UO);

  std::vector<std::string> Sections;
  std::string ModuleSection;
  if (Rq.Kind == Op::Analyze) {
    for (const auto &F : M.functions())
      Sections.push_back(renderAnalyzeFunction(R.Plan, *F));
    ModuleSection = renderAnalyzeModule(R);
  } else {
    // Diagnosis needs the static analyses; rungs that discarded them
    // (terminal MSan fallback) cannot answer, and say so explicitly
    // rather than silently reporting zero findings.
    if (!R.PA || !R.CG || !R.G) {
      Rp.Status = ReplyStatus::Degraded;
      Rp.Rung = core::toolVariantName(R.Degradation.Rung);
      Rp.Payload = "diagnosis unavailable at rung " + Rp.Rung + "\n";
      return Rp;
    }
    core::DiagnosisOptions DO;
    core::StaticDiagnosis Diag(*R.PA, *R.CG, *R.G, DO);
    for (const auto &F : M.functions())
      Sections.push_back(renderDiagnoseFunction(Diag.report(), *F));
    ModuleSection = renderDiagnoseModule(Diag.report());
  }

  for (const std::string &S : Sections)
    Rp.Payload += S;
  Rp.Payload += ModuleSection;

  if (R.Degradation.Degraded) {
    Rp.Status = ReplyStatus::Degraded;
    Rp.Rung = core::toolVariantName(R.Degradation.Rung);
    return Rp; // Degraded results are never snapshotted.
  }

  Rp.Status = ReplyStatus::Ok;
  if (Cacheable) {
    // Failures here cost warm-start only; the reply is already complete.
    for (size_t I = 0; I != Sections.size(); ++I)
      Store.save(functionKey(MK, *M.functions()[I]), Sections[I]);
    Store.save(SectionKey, ModuleSection);
  }
  return Rp;
}

Reply Session::handleQuery(const Request &Rq) {
  Reply Rp;
  Rp.Id = Rq.Id;

  parser::ParseResult PR = parser::parseModule(Rq.Source);
  if (!PR.succeeded()) {
    Rp.Status = ReplyStatus::Error;
    std::string Msg;
    raw_string_ostream OS(Msg);
    OS << "parse error";
    for (const std::string &E : PR.Errors)
      OS << "\n  " << E;
    Rp.Payload = std::move(Msg);
    return Rp;
  }

  core::UsherOptions UO;
  // The demand fast lane: the unification solver backs the VFG so a
  // single-pair question never pays for whole-program Andersen solving.
  UO.Pta.Solver = analysis::SolverKind::Unify;
  UO.Limits.PhaseDeadlineMs = Rq.DeadlineMs;
  UO.Limits.MaxStepsPerPhase = Rq.BudgetSteps;
  if (!Rq.FaultSpec.empty()) {
    std::string Err;
    std::optional<FaultPlan> FP = parseFaultSpec(Rq.FaultSpec, &Err);
    if (!FP) {
      Rp.Status = ReplyStatus::Error;
      Rp.Payload = "bad fault spec: " + Err;
      return Rp;
    }
    UO.Fault = *FP;
  }

  core::QueryOutcome Q =
      core::runUsherQuery(*PR.M, UO, Rq.QuerySrc, Rq.QuerySink);
  if (!Q.Valid) {
    Rp.Status = ReplyStatus::Error;
    Rp.Payload = Q.Error;
    return Rp;
  }

  std::string Payload;
  raw_string_ostream OS(Payload);
  OS << "query " << Rq.QuerySrc << " -> " << Rq.QuerySink << ": "
     << (Q.Exhausted    ? "inconclusive"
         : Q.Reachable  ? "reachable"
                        : "unreachable")
     << "\n"
     << "engine: " << analysis::solverKindName(Q.Solver.Engine) << "\n"
     << "states: " << Q.StatesVisited << "\n";
  if (Q.Reachable && !Q.Witness.empty()) {
    OS << "witness: " << Q.Witness.front().Node;
    for (size_t I = 1; I != Q.Witness.size(); ++I) {
      const analysis::QueryStep &S = Q.Witness[I];
      switch (S.Kind) {
      case vfg::EdgeKind::Direct:
        OS << " -> ";
        break;
      case vfg::EdgeKind::Call:
        OS << " -call@" << S.CallSite << "-> ";
        break;
      case vfg::EdgeKind::Ret:
        OS << " -ret@" << S.CallSite << "-> ";
        break;
      }
      OS << S.Node;
    }
    OS << "\n";
  }
  Rp.Payload = std::move(Payload);

  if (Q.Exhausted) {
    // The verdict is unknown, not wrong; the caller can retry with a
    // bigger budget. Query results are never snapshotted either way.
    Rp.Status = ReplyStatus::Degraded;
    Rp.Rung = "INCONCLUSIVE";
    return Rp;
  }
  Rp.Status = ReplyStatus::Ok;
  return Rp;
}

Reply Session::handle(const Request &Rq, const DaemonStatus *DS) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  const unsigned KindIdx = static_cast<unsigned>(Rq.Kind);
  if (KindIdx < NumOps)
    OpCount[KindIdx].fetch_add(1, std::memory_order_relaxed);

  Reply Rp;
  Rp.Id = Rq.Id;
  try {
    switch (Rq.Kind) {
    case Op::Ping:
      Rp.Status = ReplyStatus::Ok;
      Rp.Payload = "pong";
      break;
    case Op::Shutdown:
      Rp.Status = ReplyStatus::Ok;
      Rp.Payload = "bye";
      break;
    case Op::Status: {
      std::string Json;
      raw_string_ostream OS(Json);
      printStatusJson(OS, DS ? *DS : DaemonStatus());
      Rp.Status = ReplyStatus::Ok;
      Rp.Payload = std::move(Json);
      break;
    }
    case Op::Analyze:
    case Op::Diagnose:
      Rp = handleAnalysis(Rq);
      break;
    case Op::Query:
      Rp = handleQuery(Rq);
      break;
    }
  } catch (const std::exception &E) {
    // Isolation: whatever this request did to itself, the session and
    // every other request are unaffected — the caller gets a structured
    // error and the daemon keeps serving.
    Rp = Reply();
    Rp.Id = Rq.Id;
    Rp.Status = ReplyStatus::Error;
    Rp.Payload = std::string("internal error: ") + E.what();
  } catch (...) {
    Rp = Reply();
    Rp.Id = Rq.Id;
    Rp.Status = ReplyStatus::Error;
    Rp.Payload = "internal error: unknown exception";
  }

  switch (Rp.Status) {
  case ReplyStatus::Ok:
    RepliesOk.fetch_add(1, std::memory_order_relaxed);
    break;
  case ReplyStatus::Degraded:
    RepliesDegraded.fetch_add(1, std::memory_order_relaxed);
    break;
  case ReplyStatus::Error:
    RepliesError.fetch_add(1, std::memory_order_relaxed);
    break;
  case ReplyStatus::RetryAfter:
    break; // Issued by the daemon's admission control, not by sessions.
  }
  return Rp;
}

void Session::printStatusJson(raw_ostream &OS, const DaemonStatus &DS) const {
  const SnapshotStore::Stats SS = Store.stats();
  auto Ld = [](const std::atomic<uint64_t> &A) {
    return A.load(std::memory_order_relaxed);
  };
  OS << "{\n";
  OS << "  \"schema\": \"usher-serve-v1\",\n";
  OS << "  \"kind\": \"status\",\n";
  OS << "  \"requests\": {";
  OS << "\"total\": " << Ld(Requests);
  for (unsigned I = 0; I != NumOps; ++I)
    OS << ", \"" << opName(static_cast<Op>(I)) << "\": " << Ld(OpCount[I]);
  OS << "},\n";
  OS << "  \"replies\": {\"ok\": " << Ld(RepliesOk)
     << ", \"degraded\": " << Ld(RepliesDegraded)
     << ", \"error\": " << Ld(RepliesError)
     << ", \"served_warm\": " << Ld(ServedWarm) << "},\n";
  OS << "  \"snapshot\": {\"in_memory\": " << Store.inMemory()
     << ", \"hits\": " << SS.Hits << ", \"misses\": " << SS.Misses
     << ", \"corrupt_discarded\": " << SS.CorruptDiscarded
     << ", \"write_failures\": " << SS.WriteFailures << "},\n";
  OS << "  \"daemon\": {\"queue_depth\": " << DS.QueueDepth
     << ", \"queue_limit\": " << DS.QueueLimit << ", \"shed\": " << DS.Shed
     << ", \"dropped_replies\": " << DS.DroppedReplies
     << ", \"protocol_errors\": " << DS.ProtocolErrors
     << ", \"workers\": " << DS.Workers << "}\n";
  OS << "}\n";
}
