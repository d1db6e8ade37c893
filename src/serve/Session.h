//===- serve/Session.h - Analysis service request handling ------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent core of usher-serve: a Session maps one
/// decoded Request to one Reply. The daemon drives it from pool workers;
/// the fuzzer's serve-equivalence oracle and the unit tests drive it
/// directly, so every robustness property is testable without a socket.
///
/// Contracts:
///
///  - *Isolation*: handle() never throws and never mutates state shared
///    with other requests on failure. A poisoned input (parse error,
///    injected allocation failure, any internal exception) produces a
///    structured Error reply for that request only.
///
///  - *Deadlines degrade, never hang*: the request's DeadlineMs /
///    BudgetSteps / FaultSpec fields arm a PR 1 Budget token; exhaustion
///    walks the existing degradation ladder and the reply comes back
///    DEGRADED(<rung>) with the partial result — the sound plan the rung
///    guarantees — as its payload.
///
///  - *Warm == cold, byte for byte*: a full-fidelity reply (no budget
///    configured, no degradation) is written to the content-hashed
///    SnapshotStore as one atomically-written record per request, keyed
///    by the operation, module text and client list. A warm request
///    serves that record's validated payload as is; a missing or corrupt
///    record falls back to a full recompute. Budgeted or degraded results
///    never touch the store, so a warm reply can never encode a weaker
///    rung than cold analysis would produce.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SERVE_SESSION_H
#define USHER_SERVE_SESSION_H

#include "core/Usher.h"
#include "serve/Protocol.h"
#include "serve/SnapshotStore.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace usher {

class raw_ostream;

namespace serve {

struct SessionOptions {
  /// Snapshot directory; empty = in-memory store (tests, fuzz oracle).
  std::string SnapshotDir;
};

/// Daemon-side counters injected into the status JSON. A standalone
/// Session (no daemon) reports zeros.
struct DaemonStatus {
  uint64_t QueueDepth = 0;
  uint64_t QueueLimit = 0;
  uint64_t Shed = 0;
  uint64_t DroppedReplies = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t Workers = 0;
};

class Session {
public:
  explicit Session(SessionOptions Opts);

  /// Handles one request. Never throws. Safe to call concurrently from
  /// several workers. \p DS, when non-null, is folded into Status
  /// replies.
  Reply handle(const Request &Rq, const DaemonStatus *DS = nullptr);

  /// Renders the usher-serve-v1 status JSON (kind "status").
  void printStatusJson(raw_ostream &OS, const DaemonStatus &DS) const;

  SnapshotStore &store() { return Store; }
  const SnapshotStore &store() const { return Store; }

  /// Requests whose replies were served from a snapshot record.
  uint64_t servedWarm() const {
    return ServedWarm.load(std::memory_order_relaxed);
  }

private:
  Reply handleAnalysis(const Request &Rq);
  /// Op::Query: demand CFL-reachability over the request source's VFG,
  /// backed by the unification solver (never whole-program Andersen).
  /// Query replies are cheap and never snapshotted; an exhausted budget
  /// comes back DEGRADED(INCONCLUSIVE) rather than a wrong verdict.
  Reply handleQuery(const Request &Rq);

  SessionOptions Opts;
  SnapshotStore Store;

  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> OpCount[NumOps]{};
  std::atomic<uint64_t> RepliesOk{0};
  std::atomic<uint64_t> RepliesDegraded{0};
  std::atomic<uint64_t> RepliesError{0};
  std::atomic<uint64_t> ServedWarm{0};
};

} // namespace serve
} // namespace usher

#endif // USHER_SERVE_SESSION_H
