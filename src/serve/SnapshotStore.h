//===- serve/SnapshotStore.h - Crash-safe content-hashed store --*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's persistent result cache: 64-bit content keys mapped to
/// byte blobs, one file per entry. The store's whole contract is crash
/// safety, enforced by two mechanisms:
///
///  - *Atomic visibility*: save() writes the full record to a temporary
///    name in the same directory, fsyncs, then rename()s onto the final
///    name. A reader never observes a half-written entry under its final
///    name on a POSIX filesystem; a crash leaves at worst an orphaned
///    temporary that is ignored (and may be garbage-collected later).
///
///  - *Validated load*: every record carries magic, version, its own key,
///    payload length and a CRC-32 of the payload. load() discards (and
///    unlinks) anything that fails any check — a torn write that somehow
///    reached the final name (reordering filesystem, truncated disk) is
///    detected and treated as a miss, so the daemon silently recomputes
///    instead of serving garbage. ServeTest corrupts a record at every
///    byte boundary and asserts exactly this.
///
/// With an empty directory path the store keeps records in memory (the
/// fuzz oracle and unit tests use this); records go through the same
/// encoder and validator, so the two modes exercise identical logic.
///
/// The snapshot-read / snapshot-write / snapshot-torn-write I/O fault
/// sites (support/FaultInjection.h) are consulted on every load/save, so
/// campaigns can deterministically exercise every failure path.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SERVE_SNAPSHOTSTORE_H
#define USHER_SERVE_SNAPSHOTSTORE_H

#include "support/RawStream.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace usher {
namespace serve {

class SnapshotStore {
public:
  /// Counters surfaced in the daemon's status JSON.
  struct Stats {
    uint64_t Hits = 0;             ///< Valid record served.
    uint64_t Misses = 0;           ///< No record (includes read faults).
    uint64_t CorruptDiscarded = 0; ///< Invalid record dropped on load.
    uint64_t WriteFailures = 0;    ///< save() could not persist.
  };

  /// \p Dir empty = in-memory mode. The directory must already exist (the
  /// daemon creates it at startup).
  explicit SnapshotStore(std::string Dir) : Dir(std::move(Dir)) {}

  bool inMemory() const { return Dir.empty(); }

  /// Fetches the payload stored under \p Key, or nullopt on miss, read
  /// failure, or corruption (corrupt entries are unlinked so the next
  /// save is clean). Thread-safe.
  std::optional<std::string> load(uint64_t Key);

  /// Persists \p Payload under \p Key atomically. Returns false when the
  /// entry could not be persisted — never fatal, the daemon just loses
  /// warm-start for this entry. Thread-safe.
  bool save(uint64_t Key, std::string_view Payload);

  Stats stats() const {
    std::lock_guard<std::mutex> L(Mtx);
    return S;
  }

  /// FNV-1a 64 over \p Bytes, chained from \p Seed.
  static uint64_t hashBytes(std::string_view Bytes,
                            uint64_t Seed = 0xcbf29ce484222325ull);

  /// Order-dependent combination of two 64-bit hashes.
  static uint64_t mix(uint64_t A, uint64_t B);

  /// Record encoder/validator, shared by both modes and by ServeTest's
  /// torn-write sweep: encode produces the exact on-disk bytes, validate
  /// returns the payload iff the record is intact and carries \p Key.
  static std::string encodeRecord(uint64_t Key, std::string_view Payload);
  static std::optional<std::string> validateRecord(std::string_view Record,
                                                   uint64_t Key);

  /// The on-disk path of \p Key's record (tests corrupt it directly).
  std::string pathFor(uint64_t Key) const;

private:
  std::string Dir;
  mutable std::mutex Mtx;
  std::unordered_map<uint64_t, std::string> Mem; ///< Raw records.
  Stats S;
};

/// A stream that hashes the bytes written to it as they arrive: hash()
/// equals SnapshotStore::hashBytes of everything written, since FNV-1a is
/// bytewise. Keys a module by printing it, without holding the text.
class HashingStream : public raw_ostream {
public:
  void write(const char *Ptr, size_t Size) override {
    H = SnapshotStore::hashBytes(std::string_view(Ptr, Size), H);
  }
  uint64_t hash() const { return H; }

private:
  uint64_t H = SnapshotStore::hashBytes("");
};

} // namespace serve
} // namespace usher

#endif // USHER_SERVE_SNAPSHOTSTORE_H
