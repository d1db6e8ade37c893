//===- serve/Daemon.cpp - usher-serve event loop ---------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "serve/Daemon.h"

#include "support/FaultInjection.h"
#include "support/RawStream.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace usher;
using namespace usher::serve;

/// Per-connection state. Only the event-loop thread touches it.
struct Daemon::Conn {
  uint64_t Id = 0;
  int Fd = -1;
  FrameReader Reader;
  std::string WriteBuf;
  size_t WriteOff = 0;

  bool open() const { return Fd >= 0; }
  bool hasPendingWrite() const { return WriteOff < WriteBuf.size(); }
};

namespace {

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

} // namespace

Daemon::Daemon(DaemonOptions O) : Opts(std::move(O)) {
  SessionOptions SO;
  SO.SnapshotDir = Opts.SnapshotDir;
  Sess = std::make_unique<Session>(SO);
  Pool = std::make_unique<ThreadPool>(std::max(1u, Opts.Workers));
}

Daemon::~Daemon() {
  for (auto &C : Conns)
    if (C->open())
      ::close(C->Fd);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Opts.SocketPath.c_str());
  }
  for (int Fd : WakePipe)
    if (Fd >= 0)
      ::close(Fd);
}

bool Daemon::listen() {
  if (Opts.SocketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    errs() << "usher-serve: socket path too long: " << Opts.SocketPath << "\n";
    return false;
  }
  if (::pipe(WakePipe) != 0 || !setNonBlocking(WakePipe[0]) ||
      !setNonBlocking(WakePipe[1])) {
    errs() << "usher-serve: cannot create wakeup pipe\n";
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    errs() << "usher-serve: socket: " << std::strerror(errno) << "\n";
    return false;
  }
  ::unlink(Opts.SocketPath.c_str()); // Stale socket from a crashed daemon.
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    errs() << "usher-serve: bind " << Opts.SocketPath << ": "
           << std::strerror(errno) << "\n";
    return false;
  }
  if (::listen(ListenFd, 64) != 0) {
    errs() << "usher-serve: listen: " << std::strerror(errno) << "\n";
    return false;
  }
  return setNonBlocking(ListenFd);
}

void Daemon::requestStop() {
  // Only an async-signal-safe write; the loop does the actual stopping.
  char B = 'S';
  [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &B, 1);
}

DaemonStatus Daemon::daemonStatus() const {
  DaemonStatus DS;
  DS.QueueDepth = InFlight.load(std::memory_order_relaxed);
  DS.QueueLimit = Opts.QueueLimit;
  DS.Shed = Shed.load(std::memory_order_relaxed);
  DS.DroppedReplies = DroppedReplies.load(std::memory_order_relaxed);
  DS.ProtocolErrors = ProtocolErrors.load(std::memory_order_relaxed);
  DS.Workers = std::max(1u, Opts.Workers);
  return DS;
}

void Daemon::closeConn(Conn &C) {
  if (!C.open())
    return;
  ::close(C.Fd);
  C.Fd = -1;
  C.WriteBuf.clear();
  C.WriteOff = 0;
}

void Daemon::sendBytes(Conn &C, std::string Bytes) {
  if (!C.open())
    return;
  if (C.hasPendingWrite())
    C.WriteBuf.append(Bytes);
  else {
    C.WriteBuf = std::move(Bytes);
    C.WriteOff = 0;
  }
  connWritable(C);
}

void Daemon::connWritable(Conn &C) {
  while (C.open() && C.hasPendingWrite()) {
    ssize_t N = ::send(C.Fd, C.WriteBuf.data() + C.WriteOff,
                       C.WriteBuf.size() - C.WriteOff, MSG_NOSIGNAL);
    if (N > 0) {
      C.WriteOff += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return; // poll() will tell us when the socket drains.
    closeConn(C); // Peer is gone; the reply is undeliverable.
    return;
  }
  if (C.open() && !C.hasPendingWrite()) {
    C.WriteBuf.clear();
    C.WriteOff = 0;
  }
}

void Daemon::dispatch(Conn &C, Request Rq) {
  InFlight.fetch_add(1, std::memory_order_relaxed);
  const uint64_t ConnId = C.Id;
  Session *S = Sess.get();
  Pool->async([this, S, ConnId, Rq = std::move(Rq)] {
    // Pool tasks must not throw; Session::handle already guarantees it,
    // the belt-and-braces catch keeps a future regression from taking
    // the whole pool down.
    Reply Rp;
    try {
      Rp = S->handle(Rq);
    } catch (...) {
      Rp.Id = Rq.Id;
      Rp.Status = ReplyStatus::Error;
      Rp.Payload = "internal error: handler exception";
    }
    std::string Framed = frame(encodeReply(Rp));
    {
      std::lock_guard<std::mutex> L(OutboxMtx);
      Outbox.push_back(Done{ConnId, std::move(Framed), /*FaultEligible=*/true});
    }
    InFlight.fetch_sub(1, std::memory_order_relaxed);
    char B = 'W';
    [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &B, 1);
  });
}

void Daemon::drainOutbox() {
  std::vector<Done> Ready;
  {
    std::lock_guard<std::mutex> L(OutboxMtx);
    Ready.swap(Outbox);
  }
  for (Done &D : Ready) {
    Conn *C = nullptr;
    for (auto &Candidate : Conns)
      if (Candidate->Id == D.ConnId && Candidate->open()) {
        C = Candidate.get();
        break;
      }
    if (!C) {
      // The client hung up before its reply was ready. The work is not
      // wasted — cacheable results are already snapshotted.
      DroppedReplies.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (D.FaultEligible && ioFaultShouldFail(IoFaultSite::SocketDropReply)) {
      // Deterministic mid-reply connection loss: the peer sees EOF
      // instead of its reply and must treat it as a transport error.
      DroppedReplies.fetch_add(1, std::memory_order_relaxed);
      closeConn(*C);
      continue;
    }
    sendBytes(*C, std::move(D.Bytes));
  }
}

bool Daemon::handleFrame(Conn &C, const std::string &Body) {
  Request Rq;
  std::string Err;
  bool Decoded = false;
  try {
    Decoded = decodeRequest(Body, Rq, &Err);
  } catch (const std::bad_alloc &) {
    // Allocation failure while parsing one request must not leak past
    // that request (exercised via the parse-alloc fault site).
    Err = "out of memory parsing request";
    Decoded = false;
  }
  if (!Decoded) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    Reply Rp;
    Rp.Id = Rq.Id; // Whatever prefix decoded; 0 if the id never arrived.
    Rp.Status = ReplyStatus::Error;
    Rp.Payload = "bad request: " + Err;
    sendBytes(C, frame(encodeReply(Rp)));
    return true; // The frame itself was well-formed; keep the connection.
  }

  switch (Rq.Kind) {
  case Op::Ping:
  case Op::Status: {
    // Control ops bypass admission: an overloaded daemon must stay
    // observable.
    DaemonStatus DS = daemonStatus();
    sendBytes(C, frame(encodeReply(Sess->handle(Rq, &DS))));
    return true;
  }
  case Op::Shutdown: {
    sendBytes(C, frame(encodeReply(Sess->handle(Rq))));
    Stopping = true;
    return true;
  }
  case Op::Analyze:
  case Op::Diagnose:
  case Op::Query:
    break;
  }

  if (Stopping ||
      InFlight.load(std::memory_order_relaxed) >= Opts.QueueLimit) {
    // Admission control: shed instead of queueing without bound. The
    // client library turns this into backoff-and-retry.
    Shed.fetch_add(1, std::memory_order_relaxed);
    Reply Rp;
    Rp.Id = Rq.Id;
    Rp.Status = ReplyStatus::RetryAfter;
    Rp.RetryAfterMs = Opts.RetryAfterMs;
    sendBytes(C, frame(encodeReply(Rp)));
    return true;
  }
  dispatch(C, std::move(Rq));
  return true;
}

void Daemon::connReadable(Conn &C) {
  char Buf[16384];
  while (C.open()) {
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.Reader.append(Buf, static_cast<size_t>(N));
      if (static_cast<size_t>(N) == sizeof(Buf))
        continue;
      break;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    closeConn(C); // EOF or hard error.
    return;
  }
  std::string Body;
  std::string Err;
  while (C.open()) {
    FrameReader::Result R = C.Reader.next(Body, &Err);
    if (R == FrameReader::Result::NeedMore)
      break;
    if (R == FrameReader::Result::Corrupt) {
      // Framing violations poison the byte stream; the only safe
      // recovery is closing this connection. Others are unaffected.
      ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      closeConn(C);
      return;
    }
    if (!handleFrame(C, Body)) {
      closeConn(C);
      return;
    }
  }
}

void Daemon::acceptReady() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN or transient error; poll() retries.
    if (!setNonBlocking(Fd)) {
      ::close(Fd);
      continue;
    }
    auto C = std::make_unique<Conn>();
    C->Id = NextConnId++;
    C->Fd = Fd;
    Conns.push_back(std::move(C));
  }
}

int Daemon::run() {
  std::vector<pollfd> Fds;
  while (true) {
    drainOutbox();

    // Reap closed connections.
    Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                               [](const std::unique_ptr<Conn> &C) {
                                 return !C->open();
                               }),
                Conns.end());

    if (Stopping) {
      bool PendingWrites = false;
      for (auto &C : Conns)
        if (C->hasPendingWrite())
          PendingWrites = true;
      bool OutboxEmpty;
      {
        std::lock_guard<std::mutex> L(OutboxMtx);
        OutboxEmpty = Outbox.empty();
      }
      if (!PendingWrites && OutboxEmpty &&
          InFlight.load(std::memory_order_relaxed) == 0)
        break; // In-flight work finished and every reply is flushed.
    }

    Fds.clear();
    if (!Stopping)
      Fds.push_back({ListenFd, POLLIN, 0});
    Fds.push_back({WakePipe[0], POLLIN, 0});
    const size_t ConnBase = Fds.size();
    for (auto &C : Conns) {
      short Events = POLLIN;
      if (C->hasPendingWrite())
        Events |= POLLOUT;
      Fds.push_back({C->Fd, Events, 0});
    }

    // A finite timeout backstops any lost wakeup; correctness never
    // depends on it.
    if (::poll(Fds.data(), Fds.size(), 100) < 0) {
      if (errno == EINTR)
        continue;
      errs() << "usher-serve: poll: " << std::strerror(errno) << "\n";
      return 1;
    }

    size_t Idx = 0;
    if (!Stopping) {
      if (Fds[Idx].revents & POLLIN)
        acceptReady();
      ++Idx;
    }
    if (Fds[Idx].revents & POLLIN) {
      char Buf[256];
      ssize_t N;
      while ((N = ::read(WakePipe[0], Buf, sizeof(Buf))) > 0)
        for (ssize_t I = 0; I != N; ++I)
          if (Buf[I] == 'S')
            Stopping = true;
    }
    ++Idx;
    // Bound by the pollfd count: acceptReady() above may have appended
    // connections that have no pollfd entry this iteration.
    for (size_t CI = 0; ConnBase + CI < Fds.size() && CI < Conns.size();
         ++CI) {
      const pollfd &P = Fds[ConnBase + CI];
      Conn &C = *Conns[CI];
      if (!C.open() || P.fd != C.Fd)
        continue;
      if (P.revents & POLLOUT)
        connWritable(C);
      if (C.open() && (P.revents & (POLLIN | POLLHUP | POLLERR)))
        connReadable(C);
    }
  }
  return 0;
}
