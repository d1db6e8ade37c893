//===- tools/usher-serve.cpp - Analysis service daemon + client ------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-isolated analysis service. Daemon mode serves analyze /
/// diagnose / status / ping / shutdown requests over a unix socket;
/// client mode issues one request and prints the reply (honoring the
/// daemon's overload protocol with backoff-and-retry).
///
///   usher-serve --socket=/tmp/u.sock --snapshot-dir=/tmp/snap
///   usher-serve --client --socket=/tmp/u.sock --op=analyze prog.tc
///   usher-serve --client --socket=/tmp/u.sock --op=status
///   usher-serve --list-fault-sites
///
/// Daemon exit codes: 0 clean shutdown (SIGINT/SIGTERM or a shutdown
/// request, after in-flight work is flushed), 2 usage error, 1 socket /
/// event-loop failure.
///
/// Client exit codes: 0 reply received with status OK or DEGRADED,
/// 2 usage/input error, 3 reply received with status ERROR, 4 the daemon
/// shed the request on every retry, 5 transport failure (cannot connect,
/// connection dropped mid-reply, malformed reply, receive timeout).
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Daemon.h"
#include "support/Decimal.h"
#include "support/FaultInjection.h"
#include "support/RawStream.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/stat.h>

using namespace usher;
using namespace usher::serve;

namespace {

constexpr int ExitOk = 0;
constexpr int ExitFailure = 1;      // Daemon could not start or crashed.
constexpr int ExitUsage = 2;        // Bad flags or unreadable input.
constexpr int ExitErrorReply = 3;   // Client: daemon answered ERROR.
constexpr int ExitShed = 4;         // Client: shed on every attempt.
constexpr int ExitTransport = 5;    // Client: transport-level failure.

struct ServeOptions {
  bool Client = false;
  bool ListFaultSites = false;
  std::string SocketPath;
  std::string SnapshotDir;
  uint64_t Workers = 2;
  uint64_t QueueLimit = 8;
  uint64_t RetryAfterMs = 50;
  // Client-side.
  std::string OpName = "ping";
  std::string InputPath;
  uint64_t DeadlineMs = 0;
  uint64_t BudgetSteps = 0;
  std::string FaultSpec;
  uint64_t Id = 1;
  uint64_t MaxRetries = 6;
  uint64_t TimeoutMs = 0;
  bool QueryGiven = false;
  uint64_t QuerySrc = 0;
  uint64_t QuerySink = 0;
  /// --client-list= selection for analyze requests; forwarded verbatim on
  /// the wire (the daemon parses and validates the names).
  std::string Clients;
};

int usage(const char *Argv0) {
  errs() << "usage: " << Argv0
         << " --socket=<path> [--snapshot-dir=<dir>] [--workers=<N>]\n"
            "         [--queue-limit=<N>] [--retry-after-ms=<N>]\n"
            "       " << Argv0
         << " --client --socket=<path> --op=<op> [<program.tc>]\n"
            "         [--deadline-ms=<N>] [--budget-steps=<N>]\n"
            "         [--inject-fault=<phase>@<step>[:once|:<n>]] [--id=<N>]\n"
            "         [--max-retries=<N>] [--timeout-ms=<N>]\n"
            "         [--query=<srcId>,<sinkId>]\n"
            "         [--client-list=<c>[,<c>...]]\n"
            "       " << Argv0 << " --list-fault-sites\n"
            "\n"
            "ops: analyze diagnose status ping shutdown query (analyze,\n"
            "diagnose and query read TinyC source from <program.tc>;\n"
            "query also needs --query=<srcId>,<sinkId> and answers the\n"
            "single VFG reachability question demand-driven, without a\n"
            "whole-program analysis)\n"
            "\n"
            "--client-list=uuv,addrleak,bounds asks analyze to plan the\n"
            "named sanitizer clients over one shared VFG (default: uuv)\n"
            "\n"
            "daemon exit codes: 0 clean shutdown, 1 socket/loop failure,\n"
            "2 usage error\n"
            "client exit codes: 0 OK or DEGRADED reply, 2 usage/input\n"
            "error, 3 ERROR reply, 4 shed on every retry, 5 transport\n"
            "failure\n";
  return ExitUsage;
}

bool parseArgs(int Argc, char **Argv, ServeOptions &Opts) {
  for (int I = 1; I != Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg == "--client")
      Opts.Client = true;
    else if (Arg == "--list-fault-sites")
      Opts.ListFaultSites = true;
    else if (Arg.rfind("--socket=", 0) == 0)
      Opts.SocketPath = std::string(Arg.substr(9));
    else if (Arg.rfind("--snapshot-dir=", 0) == 0)
      Opts.SnapshotDir = std::string(Arg.substr(15));
    else if (Arg.rfind("--workers=", 0) == 0) {
      if (!parseDecimal(Arg.substr(10), 64, Opts.Workers) ||
          Opts.Workers == 0)
        return false;
    } else if (Arg.rfind("--queue-limit=", 0) == 0) {
      if (!parseDecimal(Arg.substr(14), UINT64_MAX, Opts.QueueLimit))
        return false;
    } else if (Arg.rfind("--retry-after-ms=", 0) == 0) {
      if (!parseDecimal(Arg.substr(17), UINT32_MAX, Opts.RetryAfterMs))
        return false;
    } else if (Arg.rfind("--op=", 0) == 0) {
      Opts.OpName = std::string(Arg.substr(5));
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseDecimal(Arg.substr(14), UINT32_MAX, Opts.DeadlineMs))
        return false;
    } else if (Arg.rfind("--budget-steps=", 0) == 0) {
      if (!parseDecimal(Arg.substr(15), UINT64_MAX, Opts.BudgetSteps))
        return false;
    } else if (Arg.rfind("--inject-fault=", 0) == 0) {
      Opts.FaultSpec = std::string(Arg.substr(15));
    } else if (Arg.rfind("--query=", 0) == 0) {
      std::string_view Pair = Arg.substr(8);
      size_t Comma = Pair.find(',');
      if (Comma == std::string_view::npos ||
          !parseDecimal(Pair.substr(0, Comma), UINT32_MAX, Opts.QuerySrc) ||
          !parseDecimal(Pair.substr(Comma + 1), UINT32_MAX, Opts.QuerySink))
        return false;
      Opts.QueryGiven = true;
    } else if (Arg.rfind("--client-list=", 0) == 0) {
      Opts.Clients = std::string(Arg.substr(14));
      if (Opts.Clients.empty())
        return false;
    } else if (Arg.rfind("--id=", 0) == 0) {
      if (!parseDecimal(Arg.substr(5), UINT64_MAX, Opts.Id))
        return false;
    } else if (Arg.rfind("--max-retries=", 0) == 0) {
      if (!parseDecimal(Arg.substr(14), UINT32_MAX, Opts.MaxRetries))
        return false;
    } else if (Arg.rfind("--timeout-ms=", 0) == 0) {
      if (!parseDecimal(Arg.substr(13), UINT32_MAX, Opts.TimeoutMs))
        return false;
    } else if (!Arg.empty() && Arg[0] != '-' && Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      return false;
    }
  }
  return true;
}

Daemon *ActiveDaemon = nullptr;

void onSignal(int) {
  // Async-signal-safe: requestStop only writes one byte to a pipe. The
  // event loop finishes in-flight work, flushes replies, and exits 0.
  if (ActiveDaemon)
    ActiveDaemon->requestStop();
}

int runDaemon(const ServeOptions &Opts) {
  if (!Opts.SnapshotDir.empty())
    ::mkdir(Opts.SnapshotDir.c_str(), 0755); // Best effort; may exist.

  DaemonOptions DO;
  DO.SocketPath = Opts.SocketPath;
  DO.SnapshotDir = Opts.SnapshotDir;
  DO.Workers = static_cast<unsigned>(Opts.Workers);
  DO.QueueLimit = Opts.QueueLimit;
  DO.RetryAfterMs = static_cast<uint32_t>(Opts.RetryAfterMs);

  Daemon D(DO);
  if (!D.listen())
    return ExitFailure;

  ActiveDaemon = &D;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  outs() << "usher-serve: listening on " << Opts.SocketPath << "\n";
  outs().flush();
  int RC = D.run();
  ActiveDaemon = nullptr;
  return RC == 0 ? ExitOk : ExitFailure;
}

int runClient(const ServeOptions &Opts) {
  Request Rq;
  if (!parseOpName(Opts.OpName, Rq.Kind)) {
    errs() << "error: unknown op '" << Opts.OpName << "'\n";
    return ExitUsage;
  }
  Rq.Id = Opts.Id;
  Rq.DeadlineMs = static_cast<uint32_t>(Opts.DeadlineMs);
  Rq.BudgetSteps = Opts.BudgetSteps;
  Rq.FaultSpec = Opts.FaultSpec;
  if (Rq.Kind == Op::Analyze || Rq.Kind == Op::Diagnose ||
      Rq.Kind == Op::Query) {
    if (Opts.InputPath.empty()) {
      errs() << "error: --op=" << Opts.OpName << " needs a <program.tc>\n";
      return ExitUsage;
    }
    if (!readFile(Opts.InputPath, Rq.Source)) {
      errs() << Opts.InputPath << ": error: cannot open file\n";
      return ExitUsage;
    }
  }
  if (Rq.Kind == Op::Query) {
    if (!Opts.QueryGiven) {
      errs() << "error: --op=query needs --query=<srcId>,<sinkId>\n";
      return ExitUsage;
    }
    Rq.QuerySrc = static_cast<uint32_t>(Opts.QuerySrc);
    Rq.QuerySink = static_cast<uint32_t>(Opts.QuerySink);
  }
  if (!Opts.Clients.empty()) {
    if (Rq.Kind != Op::Analyze) {
      errs() << "error: --client-list= only applies to --op=analyze\n";
      return ExitUsage;
    }
    Rq.Clients = Opts.Clients;
  }

  ClientOptions CO;
  CO.SocketPath = Opts.SocketPath;
  CO.MaxRetries = static_cast<unsigned>(Opts.MaxRetries);
  CO.ReceiveTimeoutMs = static_cast<uint32_t>(Opts.TimeoutMs);
  ServeClient C(CO);
  CallResult Res = C.call(Rq);

  switch (Res.Outcome) {
  case CallOutcome::Ok:
    break;
  case CallOutcome::ShedExhausted:
    errs() << "usher-serve: shed after " << Res.Attempts << " attempts ("
           << Res.BackoffWaitedMs << " ms backed off)\n";
    return ExitShed;
  case CallOutcome::ConnectError:
  case CallOutcome::ProtocolError:
  case CallOutcome::Dropped:
  case CallOutcome::Timeout:
    errs() << "usher-serve: " << callOutcomeName(Res.Outcome) << ": "
           << Res.Error << "\n";
    return ExitTransport;
  }

  raw_ostream &OS = outs();
  OS << replyStatusName(Res.Rp.Status) << " id=" << Res.Rp.Id;
  if (!Res.Rp.Rung.empty())
    OS << " rung=" << Res.Rp.Rung;
  if (Res.Attempts > 1)
    OS << " attempts=" << Res.Attempts;
  OS << "\n" << Res.Rp.Payload;
  OS.flush();
  return Res.Rp.Status == ReplyStatus::Error ? ExitErrorReply : ExitOk;
}

} // namespace

int main(int Argc, char **Argv) {
  ServeOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);

  if (Opts.ListFaultSites) {
    for (const std::string &Name : allFaultSiteNames())
      outs() << Name << "\n";
    return ExitOk;
  }
  if (Opts.SocketPath.empty())
    return usage(Argv[0]);

  // The I/O fault plane is armed from the environment so test campaigns
  // can inject snapshot/socket/parse failures into an otherwise stock
  // daemon invocation.
  if (std::optional<IoFaultSpec> Spec = ioFaultSpecFromEnv())
    armIoFault(*Spec);

  return Opts.Client ? runClient(Opts) : runDaemon(Opts);
}
