//===- serve/Client.cpp - usher-serve client library -----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace usher;
using namespace usher::serve;

namespace {
/// Backoff schedule: the delay starts at InitialBackoffMs and doubles per
/// retry, capped at MaxBackoffMs; each delay is jittered into [d/2, d] and
/// never waits less than the server's RetryAfterMs hint.
constexpr uint32_t InitialBackoffMs = 10;
constexpr uint32_t MaxBackoffMs = 1000;
/// Jitter seed; fixed so tests replay identical schedules.
constexpr uint64_t JitterSeed = 0x7573686572ull;
} // namespace

const char *serve::callOutcomeName(CallOutcome O) {
  switch (O) {
  case CallOutcome::Ok:
    return "ok";
  case CallOutcome::ConnectError:
    return "connect-error";
  case CallOutcome::ProtocolError:
    return "protocol-error";
  case CallOutcome::Dropped:
    return "dropped";
  case CallOutcome::ShedExhausted:
    return "shed-exhausted";
  case CallOutcome::Timeout:
    return "timeout";
  }
  return "unknown";
}

ServeClient::ServeClient(ClientOptions O)
    : Opts(std::move(O)), Jitter(JitterSeed) {}

namespace {

struct FdCloser {
  int Fd;
  ~FdCloser() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

} // namespace

CallOutcome ServeClient::attempt(const Request &Rq, Reply &Out,
                                 std::string &Err) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::strerror(errno);
    return CallOutcome::ConnectError;
  }
  FdCloser Closer{Fd};
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long";
    return CallOutcome::ConnectError;
  }
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = std::strerror(errno);
    return CallOutcome::ConnectError;
  }

  const std::string Framed = frame(encodeRequest(Rq));
  size_t Off = 0;
  while (Off < Framed.size()) {
    ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0) {
      Err = "send failed";
      return CallOutcome::Dropped;
    }
    Off += static_cast<size_t>(N);
  }

  FrameReader Reader;
  std::string Body;
  char Buf[16384];
  const auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(Opts.ReceiveTimeoutMs);
  for (;;) {
    if (Opts.ReceiveTimeoutMs) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
      if (Left <= 0) {
        Err = "timed out waiting for reply";
        return CallOutcome::Timeout;
      }
      pollfd P{Fd, POLLIN, 0};
      int PR = ::poll(&P, 1, static_cast<int>(Left));
      if (PR == 0) {
        Err = "timed out waiting for reply";
        return CallOutcome::Timeout;
      }
      if (PR < 0 && errno != EINTR) {
        Err = std::strerror(errno);
        return CallOutcome::Dropped;
      }
    }
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N == 0) {
      // The daemon (or an injected socket-drop fault) closed before the
      // reply was complete.
      Err = "connection closed before reply";
      return CallOutcome::Dropped;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::strerror(errno);
      return CallOutcome::Dropped;
    }
    Reader.append(Buf, static_cast<size_t>(N));
    FrameReader::Result R = Reader.next(Body, &Err);
    if (R == FrameReader::Result::Corrupt)
      return CallOutcome::ProtocolError;
    if (R == FrameReader::Result::Frame)
      break;
  }
  if (!decodeReply(Body, Out, &Err))
    return CallOutcome::ProtocolError;
  return CallOutcome::Ok;
}

CallResult ServeClient::call(const Request &Rq) {
  CallResult Res;
  uint32_t BackoffMs = InitialBackoffMs;
  for (unsigned Attempt = 0; Attempt <= Opts.MaxRetries; ++Attempt) {
    ++Res.Attempts;
    Reply Rp;
    std::string Err;
    CallOutcome O = attempt(Rq, Rp, Err);
    // Transient transport failures — the daemon restarting (connect
    // refused) or a connection dying mid-reply — are retried with the
    // same backoff as shedding. Protocol corruption and a blown receive
    // deadline are final: retrying cannot fix an incompatible peer, and
    // the deadline exists precisely to bound total wait.
    bool Transient = O == CallOutcome::Dropped || O == CallOutcome::ConnectError;
    if (O != CallOutcome::Ok && !Transient) {
      Res.Outcome = O;
      Res.Error = std::move(Err);
      return Res;
    }
    if (O == CallOutcome::Ok && Rp.Status != ReplyStatus::RetryAfter) {
      Res.Outcome = CallOutcome::Ok;
      Res.Rp = std::move(Rp);
      return Res;
    }
    if (Attempt == Opts.MaxRetries) {
      if (Transient) {
        Res.Outcome = O;
        Res.Error = std::move(Err);
        return Res;
      }
      break;
    }
    // Back off at least as long as the server asked (zero for transport
    // failures), doubling per round, jittered into [d/2, d] so a herd of
    // shed clients desyncs.
    uint64_t Hint = O == CallOutcome::Ok ? Rp.RetryAfterMs : 0;
    uint64_t DelayMs = std::max<uint64_t>(BackoffMs, Hint);
    DelayMs = DelayMs / 2 + Jitter.below(DelayMs / 2 + 1);
    Res.BackoffWaitedMs += DelayMs;
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    BackoffMs = std::min<uint32_t>(MaxBackoffMs, BackoffMs * 2);
  }
  Res.Outcome = CallOutcome::ShedExhausted;
  Res.Error = "daemon shed the request on every attempt";
  return Res;
}
