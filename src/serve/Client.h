//===- serve/Client.h - usher-serve client library --------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Blocking client for the analysis service. One call() is one request:
/// connect, send, wait for the reply, close. The client honors the
/// daemon's overload protocol — a RETRY_AFTER reply triggers exponential
/// backoff with deterministic (seeded) jitter, waiting at least the
/// server's hint, up to MaxRetries attempts. Transient transport
/// failures (connect refusal while the daemon restarts, a connection
/// dropped mid-reply) retry on the same backoff schedule; malformed
/// reply bytes and a blown receive deadline are final. All outcomes are
/// typed, never exceptions.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SERVE_CLIENT_H
#define USHER_SERVE_CLIENT_H

#include "serve/Protocol.h"
#include "support/RNG.h"

#include <cstdint>
#include <string>

namespace usher {
namespace serve {

struct ClientOptions {
  std::string SocketPath;
  /// Attempts per call() when the daemon sheds: the first try plus up to
  /// MaxRetries backoff-and-retry rounds.
  unsigned MaxRetries = 6;
  /// recv() timeout per attempt; 0 = wait forever.
  uint32_t ReceiveTimeoutMs = 0;
};

/// How one call() ended.
enum class CallOutcome {
  Ok,            ///< Reply received (any ReplyStatus except RetryAfter).
  ConnectError,  ///< Could not connect to the socket.
  ProtocolError, ///< Malformed reply bytes.
  Dropped,       ///< Connection closed before a full reply arrived.
  ShedExhausted, ///< RETRY_AFTER on every attempt.
  Timeout,       ///< ReceiveTimeoutMs elapsed waiting for the reply.
};
const char *callOutcomeName(CallOutcome O);

struct CallResult {
  CallOutcome Outcome = CallOutcome::ConnectError;
  Reply Rp;           ///< Valid when Outcome == Ok.
  unsigned Attempts = 0;
  uint64_t BackoffWaitedMs = 0; ///< Total shed backoff slept.
  std::string Error;  ///< Diagnostic for non-Ok outcomes.
};

class ServeClient {
public:
  explicit ServeClient(ClientOptions Opts);

  /// Issues \p Rq and waits for its reply, retrying shed replies with
  /// backoff. Never throws.
  CallResult call(const Request &Rq);

private:
  /// One connect-send-receive round. Fills \p Out on success.
  CallOutcome attempt(const Request &Rq, Reply &Out, std::string &Err);

  ClientOptions Opts;
  RNG Jitter;
};

} // namespace serve
} // namespace usher

#endif // USHER_SERVE_CLIENT_H
