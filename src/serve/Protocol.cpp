//===- serve/Protocol.cpp - usher-serve wire protocol ----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/FaultInjection.h"

#include <new>

using namespace usher;
using namespace usher::serve;

uint32_t serve::crc32(const void *Data, size_t Size) {
  static const auto Table = [] {
    struct {
      uint32_t T[256];
    } Tab;
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      Tab.T[I] = C;
    }
    return Tab;
  }();
  uint32_t C = 0xFFFFFFFFu;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I)
    C = Table.T[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

const char *serve::opName(Op O) {
  switch (O) {
  case Op::Analyze:
    return "analyze";
  case Op::Diagnose:
    return "diagnose";
  case Op::Status:
    return "status";
  case Op::Ping:
    return "ping";
  case Op::Shutdown:
    return "shutdown";
  case Op::Query:
    return "query";
  }
  return "unknown";
}

bool serve::parseOpName(std::string_view Name, Op &Out) {
  for (unsigned I = 0; I != NumOps; ++I) {
    Op O = static_cast<Op>(I);
    if (Name == opName(O)) {
      Out = O;
      return true;
    }
  }
  return false;
}

const char *serve::replyStatusName(ReplyStatus S) {
  switch (S) {
  case ReplyStatus::Ok:
    return "OK";
  case ReplyStatus::Degraded:
    return "DEGRADED";
  case ReplyStatus::Error:
    return "ERROR";
  case ReplyStatus::RetryAfter:
    return "RETRY_AFTER";
  }
  return "UNKNOWN";
}

void serve::putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

void serve::putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

uint32_t serve::u32At(std::string_view B, size_t Off) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(B[Off + I])) << (8 * I);
  return V;
}

uint64_t serve::u64At(std::string_view B, size_t Off) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(B[Off + I])) << (8 * I);
  return V;
}

namespace {

void putU8(std::string &Out, uint8_t V) { Out.push_back(static_cast<char>(V)); }

void putStr(std::string &Out, std::string_view S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

/// Bounds-checked little-endian reader over one body.
struct Cursor {
  std::string_view Body;
  size_t Pos = 0;

  bool getU8(uint8_t &V) {
    if (Body.size() - Pos < 1)
      return false;
    V = static_cast<uint8_t>(Body[Pos++]);
    return true;
  }
  bool getU32(uint32_t &V) {
    if (Body.size() - Pos < 4)
      return false;
    V = u32At(Body, Pos);
    Pos += 4;
    return true;
  }
  bool getU64(uint64_t &V) {
    if (Body.size() - Pos < 8)
      return false;
    V = u64At(Body, Pos);
    Pos += 8;
    return true;
  }
  bool getStr(std::string &S) {
    uint32_t N = 0;
    if (!getU32(N) || Body.size() - Pos < N)
      return false;
    S.assign(Body.data() + Pos, N);
    Pos += N;
    return true;
  }
  bool atEnd() const { return Pos == Body.size(); }
};

bool fail(std::string *Err, const char *Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

} // namespace

std::string serve::encodeRequest(const Request &Rq) {
  std::string Out;
  putU8(Out, ProtocolVersion);
  putU8(Out, static_cast<uint8_t>(Rq.Kind));
  putU64(Out, Rq.Id);
  putU32(Out, Rq.DeadlineMs);
  putU64(Out, Rq.BudgetSteps);
  putStr(Out, Rq.FaultSpec);
  putStr(Out, Rq.Source);
  putU32(Out, Rq.QuerySrc);
  putU32(Out, Rq.QuerySink);
  putStr(Out, Rq.Clients);
  return Out;
}

bool serve::decodeRequest(std::string_view Body, Request &Out,
                          std::string *Err) {
  Cursor C{Body};
  uint8_t Version = 0, Kind = 0;
  if (!C.getU8(Version))
    return fail(Err, "truncated request: missing version");
  if (Version != ProtocolVersion)
    return fail(Err, "unsupported protocol version");
  if (!C.getU8(Kind))
    return fail(Err, "truncated request: missing op");
  if (Kind >= NumOps)
    return fail(Err, "unknown request op");
  Out.Kind = static_cast<Op>(Kind);
  if (!C.getU64(Out.Id))
    return fail(Err, "truncated request: missing id");
  // The deterministic allocation-failure site: from here on the parser
  // allocates for the variable-length fields, which is where a real
  // std::bad_alloc would surface. Id is already decoded, so the daemon's
  // isolation layer can still correlate its Error reply.
  if (ioFaultShouldFail(IoFaultSite::ParseAlloc))
    throw std::bad_alloc();
  if (!C.getU32(Out.DeadlineMs))
    return fail(Err, "truncated request: missing deadline");
  if (!C.getU64(Out.BudgetSteps))
    return fail(Err, "truncated request: missing step budget");
  if (!C.getStr(Out.FaultSpec))
    return fail(Err, "truncated request: bad fault spec field");
  if (!C.getStr(Out.Source))
    return fail(Err, "truncated request: bad source field");
  if (!C.getU32(Out.QuerySrc))
    return fail(Err, "truncated request: missing query source node");
  if (!C.getU32(Out.QuerySink))
    return fail(Err, "truncated request: missing query sink node");
  if (!C.getStr(Out.Clients))
    return fail(Err, "truncated request: bad client list field");
  if (!C.atEnd())
    return fail(Err, "trailing bytes after request");
  return true;
}

std::string serve::encodeReply(const Reply &Rp) {
  std::string Out;
  putU8(Out, ProtocolVersion);
  putU8(Out, static_cast<uint8_t>(Rp.Status));
  putU64(Out, Rp.Id);
  putU32(Out, Rp.RetryAfterMs);
  putStr(Out, Rp.Rung);
  putStr(Out, Rp.Payload);
  return Out;
}

bool serve::decodeReply(std::string_view Body, Reply &Out, std::string *Err) {
  Cursor C{Body};
  uint8_t Version = 0, Status = 0;
  if (!C.getU8(Version))
    return fail(Err, "truncated reply: missing version");
  if (Version != ProtocolVersion)
    return fail(Err, "unsupported protocol version");
  if (!C.getU8(Status))
    return fail(Err, "truncated reply: missing status");
  if (Status > static_cast<uint8_t>(ReplyStatus::RetryAfter))
    return fail(Err, "unknown reply status");
  Out.Status = static_cast<ReplyStatus>(Status);
  if (!C.getU64(Out.Id))
    return fail(Err, "truncated reply: missing id");
  if (!C.getU32(Out.RetryAfterMs))
    return fail(Err, "truncated reply: missing retry hint");
  if (!C.getStr(Out.Rung))
    return fail(Err, "truncated reply: bad rung field");
  if (!C.getStr(Out.Payload))
    return fail(Err, "truncated reply: bad payload field");
  if (!C.atEnd())
    return fail(Err, "trailing bytes after reply");
  return true;
}

std::string serve::frame(std::string_view Body) {
  std::string Out;
  Out.reserve(Body.size() + 8);
  putU32(Out, static_cast<uint32_t>(Body.size()));
  putU32(Out, crc32(Body.data(), Body.size()));
  Out.append(Body);
  return Out;
}

FrameReader::Result FrameReader::next(std::string &Body, std::string *Err) {
  // Compact once the consumed prefix dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (Pos > 4096 && Pos * 2 > Buf.size()) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  const size_t Avail = Buf.size() - Pos;
  if (Avail < 8)
    return Result::NeedMore;
  const uint32_t Len = u32At(Buf, Pos);
  if (Len > MaxFrameBytes) {
    if (Err)
      *Err = "frame length exceeds limit";
    return Result::Corrupt;
  }
  if (Avail < 8 + static_cast<size_t>(Len))
    return Result::NeedMore;
  const uint32_t Crc = u32At(Buf, Pos + 4);
  if (crc32(Buf.data() + Pos + 8, Len) != Crc) {
    if (Err)
      *Err = "frame CRC mismatch";
    return Result::Corrupt;
  }
  Body.assign(Buf, Pos + 8, Len);
  Pos += 8 + Len;
  return Result::Frame;
}
