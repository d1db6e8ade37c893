//===- serve/Protocol.h - usher-serve wire protocol -------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed protocol the analysis service speaks over its unix
/// socket. A frame is
///
///   u32le body-length | u32le crc32(body) | body
///
/// and a body is a versioned, little-endian encoded Request or Reply.
/// Framing errors (oversized length, CRC mismatch, truncated body) are
/// protocol errors: the peer that detects one closes the connection —
/// request state never leaks across a corrupt frame. Every multi-byte
/// integer is little-endian regardless of host order, so captures replay
/// across machines.
///
/// The request parser is a deterministic fault site (IoFaultSite::
/// ParseAlloc): with that site armed, decodeRequest throws std::bad_alloc
/// exactly as a real allocation failure would, and the daemon's request
/// isolation must convert it into a structured Error reply.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SERVE_PROTOCOL_H
#define USHER_SERVE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace usher {
namespace serve {

/// Wire protocol version carried in every body. Version 2 added the
/// demand-query op and the query src/sink request fields; version 3 the
/// sanitizer-client list on analyze requests.
constexpr uint8_t ProtocolVersion = 3;

/// Hard cap on one frame's body. A length field above this is a framing
/// error, not an allocation request — a corrupt peer cannot make the
/// daemon reserve gigabytes.
constexpr uint32_t MaxFrameBytes = 16u << 20;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of \p Size bytes at \p Data.
uint32_t crc32(const void *Data, size_t Size);

/// Little-endian integer encoding, shared by the wire format and the
/// snapshot record format. The readers take the integer at byte \p Off
/// of \p B; the caller checks the bounds.
void putU32(std::string &Out, uint32_t V);
void putU64(std::string &Out, uint64_t V);
uint32_t u32At(std::string_view B, size_t Off);
uint64_t u64At(std::string_view B, size_t Off);

/// Request operations.
enum class Op : uint8_t {
  Analyze = 0,  ///< Run the instrumentation pipeline on Source.
  Diagnose = 1, ///< Run static UUV diagnosis on Source.
  Status = 2,   ///< Fetch the daemon's usher-serve-v1 status JSON.
  Ping = 3,     ///< Liveness probe.
  Shutdown = 4, ///< Clean daemon shutdown after the reply is delivered.
  Query = 5,    ///< Demand CFL-reachability query on Source's VFG
                ///< (QuerySrc -> QuerySink), answered by the demand
                ///< engine over unification-backed points-to — no
                ///< whole-program analysis.
};
constexpr unsigned NumOps = 6;

/// Stable lower-case op name ("analyze", "diagnose", ...).
const char *opName(Op O);

/// Inverse of opName(). Returns false on an unknown name.
bool parseOpName(std::string_view Name, Op &Out);

/// Reply statuses.
enum class ReplyStatus : uint8_t {
  Ok = 0,         ///< Full-fidelity result in Payload.
  Degraded = 1,   ///< Budget ran out; partial result at rung Rung.
  Error = 2,      ///< This request failed; Payload holds the diagnostic.
  RetryAfter = 3, ///< Shed by admission control; retry after RetryAfterMs.
};

/// Stable upper-case status name ("OK", "DEGRADED", "ERROR",
/// "RETRY_AFTER") used in client output and tests.
const char *replyStatusName(ReplyStatus S);

/// One request. Analyze/Diagnose carry TinyC source; the budget fields
/// map onto the PR 1 Budget token (0 = unlimited) and FaultSpec onto a
/// budget-phase fault plan, so a request can be deadlined or
/// deterministically degraded without daemon-side configuration.
struct Request {
  Op Kind = Op::Ping;
  uint64_t Id = 0;
  uint32_t DeadlineMs = 0;  ///< Per-phase wall-clock deadline.
  uint64_t BudgetSteps = 0; ///< Per-phase worklist-step budget.
  std::string FaultSpec;    ///< "<phase>@<step>[:once|:<n>]" or empty.
  std::string Source;       ///< TinyC program text.
  uint32_t QuerySrc = 0;    ///< Op::Query: source VFG node id.
  uint32_t QuerySink = 0;   ///< Op::Query: sink VFG node id.
  /// Op::Analyze: comma-separated sanitizer client list ("uuv,bounds");
  /// empty means UUV only, exactly the version-2 behavior.
  std::string Clients;
};

/// One reply. Id always echoes the request's.
struct Reply {
  ReplyStatus Status = ReplyStatus::Ok;
  uint64_t Id = 0;
  std::string Rung;         ///< Degradation rung name when Degraded.
  uint32_t RetryAfterMs = 0;///< Backoff hint when RetryAfter.
  std::string Payload;
};

/// Encodes a request/reply body (no frame header).
std::string encodeRequest(const Request &Rq);
std::string encodeReply(const Reply &Rp);

/// Decodes a body. Returns false (with a diagnostic in \p Err) on a
/// malformed body; fields decoded before the malformation — notably Id —
/// are left in \p Out so an error reply can still be correlated.
/// decodeRequest throws std::bad_alloc when IoFaultSite::ParseAlloc is
/// armed and fires.
bool decodeRequest(std::string_view Body, Request &Out,
                   std::string *Err = nullptr);
bool decodeReply(std::string_view Body, Reply &Out,
                 std::string *Err = nullptr);

/// Wraps \p Body in a frame header.
std::string frame(std::string_view Body);

/// Incremental frame extractor over a byte stream.
class FrameReader {
public:
  enum class Result {
    Frame,    ///< One complete body extracted.
    NeedMore, ///< Not enough buffered bytes yet.
    Corrupt,  ///< Framing violation; the connection must be closed.
  };

  /// Appends \p Size received bytes.
  void append(const char *Data, size_t Size) { Buf.append(Data, Size); }

  /// Extracts the next complete frame body into \p Body.
  Result next(std::string &Body, std::string *Err = nullptr);

  /// Buffered bytes not yet consumed (tests).
  size_t pending() const { return Buf.size() - Pos; }

private:
  std::string Buf;
  size_t Pos = 0;
};

} // namespace serve
} // namespace usher

#endif // USHER_SERVE_PROTOCOL_H
