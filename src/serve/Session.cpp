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
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "support/FaultInjection.h"
#include "support/JsonWriter.h"

#include <exception>
#include <utility>

using namespace usher;
using namespace usher::serve;

Session::Session(SessionOptions O)
    : Opts(std::move(O)), Store(Opts.SnapshotDir) {}

namespace {

/// The snapshot key: the operation, the canonical printed module text and
/// the client list (it changes the reply), so any textual change — or
/// asking for diagnosis instead of analysis — lands on a disjoint record.
uint64_t moduleKey(const ir::Module &M, Op Kind, const std::string &Clients) {
  HashingStream Text;
  M.print(Text);
  return SnapshotStore::mix(
      SnapshotStore::mix(SnapshotStore::hashBytes(opName(Kind)), Text.hash()),
      SnapshotStore::hashBytes(Clients));
}

/// Renders an error reply: \p Head plus one indented line per message.
Reply errorReply(uint64_t Id, const char *Head,
                 const std::vector<std::string> &Lines) {
  Reply Rp;
  Rp.Id = Id;
  Rp.Status = ReplyStatus::Error;
  Rp.Payload = Head;
  for (const std::string &L : Lines)
    Rp.Payload += "\n  " + L;
  return Rp;
}

/// Arms \p UO with the request's deadline, step budget and fault plan.
/// A malformed fault spec turns \p Rp into an error reply and returns
/// false.
bool applyRequestLimits(const Request &Rq, core::UsherOptions &UO,
                        Reply &Rp) {
  UO.Limits.PhaseDeadlineMs = Rq.DeadlineMs;
  UO.Limits.MaxStepsPerPhase = Rq.BudgetSteps;
  if (Rq.FaultSpec.empty())
    return true;
  std::string Err;
  std::optional<FaultPlan> FP = parseFaultSpec(Rq.FaultSpec, &Err);
  if (!FP) {
    Rp.Status = ReplyStatus::Error;
    Rp.Payload = "bad fault spec: " + Err;
    return false;
  }
  UO.Fault = *FP;
  return true;
}

/// Renders the analyze line for one function: static plan counts derived
/// from the instrumentation plan, deterministic in module order.
void renderAnalyzeFunction(raw_ostream &OS,
                           const core::InstrumentationPlan &Plan,
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

  OS << "function " << F.getName() << ": checks=" << Checks
     << " shadow-ops=" << ShadowOps << " entry-ops=" << EntryOps
     << " reads=" << Reads << "\n";
}

void renderAnalyzeModule(raw_ostream &OS, const core::UsherResult &R) {
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
}

/// Renders the diagnose lines for one function: its non-CLEAN findings
/// in instruction-id order (the report is already so ordered).
void renderDiagnoseFunction(raw_ostream &OS,
                            const core::DiagnosisReport &Report,
                            const ir::Function &F) {
  auto InF = [&](const core::Finding &Fd) {
    return Fd.I->getParent()->getParent() == &F;
  };
  uint64_t N = 0;
  for (const core::Finding &Fd : Report.Findings)
    N += InF(Fd);
  OS << "function " << F.getName() << ": findings=" << N << "\n";
  for (const core::Finding &Fd : Report.Findings)
    if (InF(Fd))
      OS << "  " << core::verdictName(Fd.V) << " use of "
         << Fd.Var->getName() << " at #" << Fd.I->getId()
         << " witness-steps=" << Fd.Witness.size() << "\n";
}

void renderDiagnoseModule(raw_ostream &OS,
                          const core::DiagnosisReport &Report) {
  OS << "module: critical-uses="
     << (Report.NumClean + Report.NumMay + Report.NumDefinite)
     << " clean=" << Report.NumClean << " may=" << Report.NumMay
     << " definite=" << Report.NumDefinite << "\n";
}

} // namespace

Reply Session::handleAnalysis(const Request &Rq) {
  parser::ParseResult PR = parser::parseModule(Rq.Source);
  if (!PR.succeeded())
    return errorReply(Rq.Id, "parse error", PR.Errors);
  ir::Module &M = *PR.M;

  Reply Rp;
  Rp.Id = Rq.Id;

  // Sanitizer-client selection (analyze only; diagnose is UUV by nature).
  core::UsherOptions UO;
  if (Rq.Kind == Op::Analyze && !Rq.Clients.empty() &&
      !core::parseClientList(Rq.Clients, UO.Clients)) {
    Rp.Status = ReplyStatus::Error;
    Rp.Payload = "unknown sanitizer client in list: " + Rq.Clients;
    return Rp;
  }
  if (!applyRequestLimits(Rq, UO, Rp))
    return Rp;

  // Budgeted requests bypass the snapshot store in both directions: their
  // results may be degraded (weaker than what a later unbudgeted request
  // deserves) and an unbudgeted snapshot must never mask the degradation
  // the caller asked to observe. Warm therefore always equals cold.
  const bool Cacheable =
      Rq.DeadlineMs == 0 && Rq.BudgetSteps == 0 && Rq.FaultSpec.empty();

  const uint64_t MK =
      moduleKey(M, Rq.Kind, Rq.Kind == Op::Analyze ? Rq.Clients : "");

  // Warm path: one validated record is the whole payload. A miss or a
  // discarded corrupt record falls through to a full recompute, whose
  // save heals the store.
  if (Cacheable) {
    if (std::optional<std::string> E = Store.load(MK)) {
      Rp.Status = ReplyStatus::Ok;
      Rp.Payload = std::move(*E);
      ServedWarm.fetch_add(1, std::memory_order_relaxed);
      return Rp;
    }
  }

  // A module that parses but fails verification has no analysis; it
  // never reaches the store, so warm replies skip this check.
  std::vector<std::string> VerifyErrors;
  if (!ir::verifyModule(M, VerifyErrors))
    return errorReply(Rq.Id, "invalid module", VerifyErrors);

  core::UsherResult R = core::runUsher(M, UO);

  raw_string_ostream OS(Rp.Payload);
  if (Rq.Kind == Op::Analyze) {
    for (const auto &F : M.functions())
      renderAnalyzeFunction(OS, R.Plan, *F);
    renderAnalyzeModule(OS, R);
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
      renderDiagnoseFunction(OS, Diag.report(), *F);
    renderDiagnoseModule(OS, Diag.report());
  }

  if (R.Degradation.Degraded) {
    Rp.Status = ReplyStatus::Degraded;
    Rp.Rung = core::toolVariantName(R.Degradation.Rung);
    return Rp; // Degraded results are never snapshotted.
  }

  Rp.Status = ReplyStatus::Ok;
  // A failed save costs warm-start only; the reply is already complete.
  if (Cacheable)
    Store.save(MK, Rp.Payload);
  return Rp;
}

Reply Session::handleQuery(const Request &Rq) {
  parser::ParseResult PR = parser::parseModule(Rq.Source);
  if (!PR.succeeded())
    return errorReply(Rq.Id, "parse error", PR.Errors);
  std::vector<std::string> VerifyErrors;
  if (!ir::verifyModule(*PR.M, VerifyErrors))
    return errorReply(Rq.Id, "invalid module", VerifyErrors);

  Reply Rp;
  Rp.Id = Rq.Id;
  core::UsherOptions UO;
  // The demand fast lane: the unification solver backs the VFG so a
  // single-pair question never pays for whole-program Andersen solving.
  UO.Pta.Solver = analysis::SolverKind::Unify;
  if (!applyRequestLimits(Rq, UO, Rp))
    return Rp;

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
  analysis::printQueryWitness(OS, Q.Witness);
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
  using Layout = JsonWriter::Layout;
  const SnapshotStore::Stats SS = Store.stats();
  auto Ld = [](const std::atomic<uint64_t> &A) {
    return A.load(std::memory_order_relaxed);
  };
  JsonWriter W(OS);
  W.beginObject().members("schema", "usher-serve-v1", "kind", "status");
  W.key("requests").beginObject(Layout::Inline).members("total", Ld(Requests));
  for (unsigned I = 0; I != NumOps; ++I)
    W.members(opName(static_cast<Op>(I)), Ld(OpCount[I]));
  W.end().key("replies").beginObject(Layout::Inline);
  W.members("ok", Ld(RepliesOk), "degraded", Ld(RepliesDegraded),
            "error", Ld(RepliesError), "served_warm", Ld(ServedWarm));
  W.end().key("snapshot").beginObject(Layout::Inline);
  W.members("in_memory", Store.inMemory(), "hits", SS.Hits,
            "misses", SS.Misses, "corrupt_discarded", SS.CorruptDiscarded,
            "write_failures", SS.WriteFailures);
  W.end().key("daemon").beginObject(Layout::Inline);
  W.members("queue_depth", DS.QueueDepth, "queue_limit", DS.QueueLimit,
            "shed", DS.Shed, "dropped_replies", DS.DroppedReplies,
            "protocol_errors", DS.ProtocolErrors, "workers", DS.Workers);
  W.end().end();
}
