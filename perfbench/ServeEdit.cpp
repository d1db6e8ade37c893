//===- perfbench/ServeEdit.cpp - The analysis service under edits ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-edit: one closed-loop ServeClient drives an in-process
/// serve::Daemon (2 workers, snapshot directory on disk) over a few
/// synthesized programs of about 10k VFG nodes. After one cold analyze per
/// program, requests come in rounds of four, in a seeded order:
///
///   3 x warm  an unchanged program is re-requested; the reply is
///             assembled from snapshot reads;
///   1 x edit  one integer literal in one function of one program changes
///             (instruction and function counts stay the same), so the
///             whole-module key misses: a full recompute plus one fsync'd
///             snapshot write per function and one for the module.
///
/// Checks: every warm payload is byte-equal to the last payload of that
/// program version and was served warm; every edit payload equals the
/// reply of an in-process Session on an in-memory store.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "serve/Client.h"
#include "serve/Daemon.h"
#include "serve/Session.h"
#include "support/RNG.h"
#include "workload/Synthesizer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include <unistd.h>

using namespace perfbench;
using namespace usher;
using namespace usher::serve;

namespace {

/// Position of N in a line "  X = X + N;" or "  X = X ^ N;", or npos.
size_t literalPos(const std::string &L) {
  constexpr size_t npos = std::string::npos;
  if (L.compare(0, 2, "  ") != 0)
    return npos;
  const size_t Eq = L.find(" = ", 2);
  if (Eq == npos || L.find(' ', 2) != Eq)
    return npos;
  const std::string X = L.substr(2, Eq - 2);
  for (const char *Op : {" + ", " ^ "}) {
    const std::string Pre = X + Op;
    if (L.compare(Eq + 3, Pre.size(), Pre) != 0)
      continue;
    const size_t Num = Eq + 3 + Pre.size();
    if (Num + 1 >= L.size() || L.back() != ';')
      return npos;
    for (size_t I = Num; I + 1 != L.size(); ++I)
      if (L[I] < '0' || L[I] > '9')
        return npos;
    return Num;
  }
  return npos;
}

/// One program as the editor user sees it: its text, split into lines,
/// with the editable lines of each function indexed.
struct Program {
  std::vector<std::string> Lines;
  std::vector<std::vector<size_t>> EditableByFn;
  std::string Source;
  std::string Payload; ///< Reply for the current Source.

  explicit Program(const std::string &Text) {
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t End = Text.find('\n', Pos);
      if (End == std::string::npos)
        End = Text.size();
      Lines.push_back(Text.substr(Pos, End - Pos));
      Pos = End + 1;
    }
    for (size_t I = 0; I != Lines.size(); ++I) {
      if (Lines[I].rfind("func ", 0) == 0)
        EditableByFn.emplace_back();
      else if (!EditableByFn.empty() &&
               literalPos(Lines[I]) != std::string::npos)
        EditableByFn.back().push_back(I);
    }
    std::erase_if(EditableByFn, [](const auto &V) { return V.empty(); });
    rebuild();
  }

  void rebuild() {
    Source.clear();
    for (const std::string &L : Lines)
      Source += L + "\n";
  }
};

/// One edit, replayable on a fresh copy of the programs.
struct Edit {
  size_t Prog;
  size_t Line;
  std::string NewText;
  std::string Payload; ///< What the daemon replied.
};

Edit makeEdit(std::vector<Program> &Ps, size_t K, RNG &R) {
  Program &P = Ps[K];
  const auto &Fn = P.EditableByFn[R.below(P.EditableByFn.size())];
  const size_t Line = Fn[R.below(Fn.size())];
  std::string L = P.Lines[Line];
  const size_t Num = literalPos(L);
  const unsigned long N = std::stoul(L.substr(Num, L.size() - 1 - Num));
  L = L.substr(0, Num) + std::to_string(N % 9 + 1) + ";";
  P.Lines[Line] = L;
  P.rebuild();
  return {K, Line, L, ""};
}

/// A daemon on its own event-loop thread; stopped and joined on
/// destruction.
class LiveDaemon {
public:
  explicit LiveDaemon(DaemonOptions DO) : D(std::make_unique<Daemon>(DO)) {
    if (D->listen())
      Loop = std::thread([this] { D->run(); });
  }
  ~LiveDaemon() {
    if (Loop.joinable()) {
      D->requestStop();
      Loop.join();
    }
  }
  LiveDaemon(const LiveDaemon &) = delete;
  LiveDaemon &operator=(const LiveDaemon &) = delete;

  bool running() const { return Loop.joinable(); }
  Session &session() { return D->session(); }

private:
  std::unique_ptr<Daemon> D;
  std::thread Loop;
};

struct Phase {
  std::vector<double> Warm, Edits, All; ///< Client-timed replies, ms.
  std::vector<Edit> EditLog;
  uint64_t WarmServed = 0;
  double WallMs = 0;
  Calibrator Cal;
  std::vector<double> AllCal, WarmCal, EditsCal; ///< Replies in cal units.
  double SumCal = 0;
};

class ServeEdit {
public:
  ServeEdit(const Options &O, Outcome &Out) : O(O), Out(Out) {}
  ~ServeEdit() { tearDown(); }

  void setUp();
  Phase measure(double Seconds, uint64_t Salt);
  /// Replays every edit on an in-process Session (memory store) and
  /// compares payloads; returns the per-edit analysis times.
  std::vector<double> verify(const std::vector<const Phase *> &Phases);

  double SetupS = 0;
  std::vector<double> ColdMs;
  std::vector<Program> Progs;
  /// verify()'s per-edit analysis times in cal units.
  std::vector<double> AnalyzeCal;

private:
  CallResult call(const std::string &Source, double &Ms);
  void tearDown();

  const Options &O;
  Outcome &Out;
  std::string Dir;
  std::unique_ptr<LiveDaemon> Live;
  std::unique_ptr<ServeClient> Client;
  std::vector<Program> Initial;
  uint64_t NextId = 1;
};

void ServeEdit::tearDown() {
  Client.reset();
  Live.reset();
  if (!Dir.empty())
    std::filesystem::remove_all(Dir);
  Dir.clear();
}

CallResult ServeEdit::call(const std::string &Source, double &Ms) {
  Request Rq;
  Rq.Kind = Op::Analyze;
  Rq.Id = NextId++;
  Rq.Source = Source;
  trace::Scope S("request");
  trace::RequestScope RS(Rq.Id, /*IsRoot=*/true);
  auto T0 = Clock::now();
  CallResult CR = Client->call(Rq);
  Ms = msSince(T0);
  return CR;
}

void ServeEdit::setUp() {
  const unsigned Reps = O.Tiny ? 1 : 5;
  // A fixed corpus of programs; the seed drives the request stream (which
  // program, which edit, in what order). Drawing the programs from the
  // seed too made the median analysis time follow the draw of sizes.
  const unsigned NumProgs = O.Tiny ? 2 : 8;
  std::vector<double> Times;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    tearDown(); // The previous repetition's daemon; not timed.
    Progs.clear();
    ColdMs.clear();
    auto T0 = Clock::now();
    Dir = O.OutDir + "/serve-" + std::to_string(::getpid()) + "-" +
          std::to_string(Rep);
    std::filesystem::create_directories(Dir + "/snap");
    for (unsigned K = 0; K != NumProgs; ++K) {
      workload::ShapeSpec S;
      S.Seed = K + 1;
      S.TargetNodes = 10'000;
      Progs.emplace_back(workload::synthesizeProgram(S));
      if (Progs.back().EditableByFn.empty()) {
        Out.check(false, "synthesized program has no editable literal");
        return;
      }
    }
    DaemonOptions DO;
    DO.SocketPath = Dir + "/serve.sock";
    DO.SnapshotDir = Dir + "/snap";
    DO.Workers = 2;
    Live = std::make_unique<LiveDaemon>(DO);
    if (!Live->running()) {
      Out.check(false, "daemon did not start on " + DO.SocketPath);
      return;
    }
    ClientOptions CO;
    CO.SocketPath = DO.SocketPath;
    Client = std::make_unique<ServeClient>(CO);
    for (Program &P : Progs) {
      double Ms;
      CallResult CR = call(P.Source, Ms);
      P.Payload = CR.Rp.Payload;
      ColdMs.push_back(Ms);
      if (Rep + 1 == Reps)
        Out.check(CR.Outcome == CallOutcome::Ok &&
                      CR.Rp.Status == ReplyStatus::Ok,
                  "cold analyze failed: " + CR.Error);
    }
    Times.push_back(msSince(T0) / 1000.0);
  }
  SetupS = median(Times);
  Initial = Progs;
}

Phase ServeEdit::measure(double Seconds, uint64_t Salt) {
  Phase Ph;
  RNG R(O.Seed * 1000003 + Salt);
  const auto T0 = Clock::now();
  while (msSince(T0) < Seconds * 1000.0 || Ph.Edits.empty()) {
    Ph.Cal.tick();
    const uint64_t EditSlot = R.below(4);
    for (uint64_t Slot = 0; Slot != 4; ++Slot) {
      const size_t K = R.below(Progs.size());
      const bool IsEdit = Slot == EditSlot;
      std::optional<Edit> E;
      if (IsEdit)
        E = makeEdit(Progs, K, R);
      const uint64_t WarmBefore = Live->session().servedWarm();
      double Ms;
      CallResult CR = call(Progs[K].Source, Ms);
      const bool Warm = Live->session().servedWarm() != WarmBefore;
      const bool Ok = CR.Outcome == CallOutcome::Ok &&
                      CR.Rp.Status == ReplyStatus::Ok;
      Ph.All.push_back(Ms);
      Ph.AllCal.push_back(Ph.Cal.cal(Ms));
      Ph.SumCal += Ph.AllCal.back();
      if (IsEdit) {
        Out.check(Ok && !Warm, "edit request failed or was served warm");
        Progs[K].Payload = CR.Rp.Payload;
        E->Payload = std::move(CR.Rp.Payload);
        Ph.EditLog.push_back(std::move(*E));
        Ph.Edits.push_back(Ms);
        Ph.EditsCal.push_back(Ph.AllCal.back());
      } else {
        Out.check(Ok && Warm && CR.Rp.Payload == Progs[K].Payload,
                  "warm reply missed the store or differs from cold");
        Ph.Warm.push_back(Ms);
        Ph.WarmCal.push_back(Ph.AllCal.back());
        ++Ph.WarmServed;
      }
    }
  }
  Ph.WallMs = msSince(T0);
  return Ph;
}

std::vector<double>
ServeEdit::verify(const std::vector<const Phase *> &Phases) {
  Session Ref(SessionOptions{});
  Calibrator Cal;
  std::vector<double> AnalyzeMs;
  std::vector<Program> Ps = Initial;
  auto Check = [&](const std::string &Source, const std::string &Payload,
                   const char *What) {
    Request Rq;
    Rq.Kind = Op::Analyze;
    Rq.Id = 1;
    Rq.Source = Source;
    Cal.tick();
    auto T0 = Clock::now();
    Reply Rp = Ref.handle(Rq);
    AnalyzeMs.push_back(msSince(T0));
    AnalyzeCal.push_back(Cal.cal(AnalyzeMs.back()));
    Out.check(Rp.Status == ReplyStatus::Ok && Rp.Payload == Payload,
              std::string(What) + " payload differs from in-process Session");
  };
  for (const Program &P : Ps)
    Check(P.Source, P.Payload, "cold");
  AnalyzeMs.clear(); // Only edits count as analysis samples.
  AnalyzeCal.clear();
  for (const Phase *Ph : Phases)
    for (const Edit &E : Ph->EditLog) {
      Ps[E.Prog].Lines[E.Line] = E.NewText;
      Ps[E.Prog].rebuild();
      Check(Ps[E.Prog].Source, E.Payload, "edit");
    }
  return AnalyzeMs;
}

/// checks + shadow ops from the reply's module line.
double planOps(const std::string &Payload) {
  const size_t M = Payload.find("module: ");
  if (M == std::string::npos)
    return 0;
  auto Field = [&](const char *Key) {
    size_t P = Payload.find(Key, M);
    return P == std::string::npos
               ? 0.0
               : std::strtod(Payload.c_str() + P + std::strlen(Key), nullptr);
  };
  return Field(" checks=") + Field(" shadow-ops=");
}

} // namespace

Outcome perfbench::runServeEdit(const Options &O) {
  Outcome Out;
  ServeEdit S(O, Out);
  S.setUp();
  if (Out.Failed)
    return Out;
  std::printf("perfbench serve-edit seed=%llu: %zu programs, cold replies",
              static_cast<unsigned long long>(O.Seed), S.Progs.size());
  for (double Ms : S.ColdMs)
    std::printf(" %.2f", Ms);
  std::printf(" ms\n");

  Phase Ph = S.measure(O.Trace ? O.Seconds / 2 : O.Seconds, 0);
  Phase Tr;
  if (O.Trace) {
    trace::reset();
    trace::setEnabled(true);
    Tr = S.measure(O.Seconds / 2, 7919);
    trace::setEnabled(false);
  }
  std::vector<double> Analyze = S.verify({&Ph, &Tr});

  std::vector<double> PlanOps;
  for (const Edit &E : Ph.EditLog)
    PlanOps.push_back(planOps(E.Payload));
  const double Rps = 1000.0 * Ph.All.size() / (Ph.WallMs - Ph.Cal.totalMs());
  std::printf("untraced: %zu requests (%zu warm, %zu edits) in %.2f s\n",
              Ph.All.size(), Ph.Warm.size(), Ph.Edits.size(),
              Ph.WallMs / 1000);
  const std::string NW = "n=" + std::to_string(Ph.Warm.size());
  const std::string NE = "n=" + std::to_string(Ph.Edits.size());
  const std::string NA = "n=" + std::to_string(Ph.All.size());
  report("analyze_ms.p50", median(Analyze), "ms",
         "in-process Session, n=" + std::to_string(Analyze.size()));
  report("analyze_ms.p90", percentile(Analyze, 0.9), "ms");
  report("warm_reply_ms.p50", median(Ph.Warm), "ms", NW);
  report("warm_reply_ms.p90", percentile(Ph.Warm, 0.9), "ms", NW);
  report("edit_reply_ms.p50", median(Ph.Edits), "ms", NE);
  report("edit_reply_ms.p90", percentile(Ph.Edits, 0.9), "ms", NE);
  report("turnaround_ms.p50", median(Ph.All), "ms", "all replies, " + NA);
  report("turnaround_ms.p90", percentile(Ph.All, 0.9), "ms", NA);
  report("serve_rps", Rps, "req/s", "closed loop, one client");
  report("plan_ops", median(PlanOps), "count", "median over edits");
  report("calibration_ms", Ph.Cal.medianMs(), "ms", "median kernel time");

  Out.EndToEnd = {
      {"setup_s", S.SetupS, "s"},
      {"analyze_cal.p50", median(S.AnalyzeCal), "cal"},
      {"turnaround_cal.p50", median(Ph.AllCal), "cal"},
      {"throughput_per_cal", Ph.All.size() / Ph.SumCal, "1/cal"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
  };
  for (const Metric &M : Out.EndToEnd)
    report(M.Name.c_str(), M.Value, M.Unit.c_str());
  if (!O.Trace)
    return Out;

  const std::vector<trace::Span> Spans = trace::spans();
  std::printf("traced: %zu requests (%zu warm, %zu edits) in %.2f s\n",
              Tr.All.size(), Tr.Warm.size(), Tr.Edits.size(),
              Tr.WallMs / 1000);
  std::printf("tracing overhead (traced - untraced mean):\n");
  reportOverhead("warm_reply", mean(Ph.WarmCal), mean(Tr.WarmCal));
  reportOverhead("edit_reply", mean(Ph.EditsCal), mean(Tr.EditsCal));

  // Per request kind: the client span's self time is the wire (protocol,
  // socket, daemon queueing); the session subtree partitions the rest.
  std::vector<Metric> Extra = {
      {"serve.warm_hit_ratio",
       Tr.All.empty() ? 0.0 : double(Tr.WarmServed) / Tr.All.size(),
       "ratio"}};
  addLayerMetrics(Out, Tr.All.size(), Extra);

  const auto Counters = trace::counters();
  auto Counter = [&](const char *Name) {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0.0 : It->second;
  };
  std::printf("stress: snapshot.hits %.0f, snapshot.writes %.0f (want both "
              "> 0)\n",
              Counter("snapshot.hits"), Counter("snapshot.writes"));

  const auto Self = trace::selfTimes(Spans);
  std::vector<std::pair<double, std::string>> Top;
  for (const auto &[Name, T] : Self)
    if (Name != "request")
      Top.push_back({T.SelfMs, Name});
  std::sort(Top.rbegin(), Top.rend());
  std::printf("shape {\"vfg_nodes\": %.0f, \"top_layers\": [",
              Tr.Edits.empty() ? 0.0
                               : Counter("vfg.nodes") / Tr.Edits.size());
  for (size_t I = 0; I != std::min<size_t>(3, Top.size()); ++I)
    std::printf("%s\"%s\"", I ? ", " : "", Top[I].second.c_str());
  std::printf("]}\n");

  const std::string Path = O.OutDir + "/trace-serve-edit-seed" +
                           std::to_string(O.Seed) + ".json";
  if (trace::writeChromeTrace(Path, Spans))
    std::printf("chrome trace: %s (%zu spans)\n", Path.c_str(), Spans.size());
  else
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  return Out;
}
