//===- serve/Daemon.h - usher-serve event loop ------------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket-facing half of usher-serve: a poll()-based event loop over
/// an AF_UNIX listening socket, with analysis requests dispatched onto
/// support/ThreadPool's FIFO workers. The loop owns all connection state;
/// workers only run Session::handle and post the finished reply to an
/// outbox the loop drains through a self-pipe wakeup, so no fd is ever
/// touched from two threads.
///
/// Robustness properties (each one is exercised by a tier-1 or
/// serve_fault test):
///
///  - *Overload shedding*: at most QueueLimit analysis requests are
///    admitted concurrently; past the watermark the daemon replies
///    RETRY_AFTER with a backoff hint instead of queueing without bound.
///    Status/Ping/Shutdown bypass admission, so an overloaded daemon
///    stays observable and stoppable.
///
///  - *Request isolation*: a malformed body is answered with an Error
///    reply; a framing violation closes only that connection; an
///    injected parse-allocation failure is caught and answered. The loop
///    itself never dies on peer input.
///
///  - *Graceful shutdown*: SIGINT/SIGTERM (via requestStop(), which is
///    async-signal-safe) or a Shutdown request stop admission, let
///    in-flight work finish, flush pending replies, and return 0.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SERVE_DAEMON_H
#define USHER_SERVE_DAEMON_H

#include "serve/Protocol.h"
#include "serve/Session.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace usher {

class ThreadPool;

namespace serve {

struct DaemonOptions {
  std::string SocketPath;
  std::string SnapshotDir; ///< Empty = in-memory snapshots.
  unsigned Workers = 2;    ///< Analysis worker threads.
  /// Admission watermark: analysis requests in flight (queued or running)
  /// before the daemon sheds. 0 sheds every analysis request — used by
  /// the overload tests.
  uint64_t QueueLimit = 8;
  /// Backoff hint carried in RETRY_AFTER replies.
  uint32_t RetryAfterMs = 50;
};

class Daemon {
public:
  explicit Daemon(DaemonOptions Opts);
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds and listens. Returns false (with a message on stderr) when the
  /// socket cannot be created.
  bool listen();

  /// Runs the event loop until a Shutdown request or requestStop().
  /// Returns 0 on clean shutdown.
  int run();

  /// Requests a graceful stop. Async-signal-safe: only writes one byte
  /// to the self-pipe.
  void requestStop();

  Session &session() { return *Sess; }

private:
  struct Conn;

  void acceptReady();
  void connReadable(Conn &C);
  void connWritable(Conn &C);
  /// Queues \p Bytes on \p C and flushes what the socket accepts now.
  void sendBytes(Conn &C, std::string Bytes);
  /// Handles one decoded frame body from \p C; returns false when the
  /// connection must be closed (framing violation).
  bool handleFrame(Conn &C, const std::string &Body);
  /// Dispatches an admitted analysis request onto the pool.
  void dispatch(Conn &C, Request Rq);
  void drainOutbox();
  void closeConn(Conn &C);
  DaemonStatus daemonStatus() const;

  DaemonOptions Opts;
  std::unique_ptr<Session> Sess;
  std::unique_ptr<ThreadPool> Pool;

  int ListenFd = -1;
  int WakePipe[2] = {-1, -1};
  std::vector<std::unique_ptr<Conn>> Conns;
  bool Stopping = false;      ///< Stop accepted; draining in-flight work.
  uint64_t NextConnId = 1;

  /// Finished replies posted by workers, drained by the loop.
  struct Done {
    uint64_t ConnId;
    std::string Bytes;  ///< Already framed.
    bool FaultEligible; ///< Subject to the socket-drop-reply fault site.
  };
  std::mutex OutboxMtx;
  std::vector<Done> Outbox;

  std::atomic<uint64_t> InFlight{0};
  std::atomic<uint64_t> Shed{0};
  std::atomic<uint64_t> DroppedReplies{0};
  std::atomic<uint64_t> ProtocolErrors{0};
};

} // namespace serve
} // namespace usher

#endif // USHER_SERVE_DAEMON_H
