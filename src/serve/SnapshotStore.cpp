//===- serve/SnapshotStore.cpp - Crash-safe content-hashed store -----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "serve/SnapshotStore.h"

#include "serve/Protocol.h"
#include "support/FaultInjection.h"
#include "support/RawStream.h"

#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

using namespace usher;
using namespace usher::serve;

namespace {

constexpr uint32_t RecordMagic = 0x504E5355u; // "USNP" little-endian.
constexpr uint32_t RecordVersion = 1;
constexpr size_t HeaderBytes = 4 + 4 + 8 + 4 + 4;

/// Writes \p Size bytes of \p Data to \p Path and fsyncs. Returns false
/// on any short write or I/O error.
bool writeFileSynced(const std::string &Path, const char *Data, size_t Size) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  size_t Off = 0;
  while (Off < Size) {
    ssize_t W = ::write(Fd, Data + Off, Size - Off);
    if (W <= 0) {
      ::close(Fd);
      ::unlink(Path.c_str());
      return false;
    }
    Off += static_cast<size_t>(W);
  }
  bool Ok = ::fsync(Fd) == 0;
  ::close(Fd);
  return Ok;
}

} // namespace

uint64_t SnapshotStore::hashBytes(std::string_view Bytes, uint64_t Seed) {
  uint64_t H = Seed;
  for (char C : Bytes) {
    H ^= static_cast<uint8_t>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t SnapshotStore::mix(uint64_t A, uint64_t B) {
  // SplitMix64 finalizer over the pair; order-dependent by design.
  uint64_t Z = A + 0x9E3779B97F4A7C15ull * (B | 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::string SnapshotStore::encodeRecord(uint64_t Key,
                                        std::string_view Payload) {
  std::string Out;
  Out.reserve(HeaderBytes + Payload.size());
  putU32(Out, RecordMagic);
  putU32(Out, RecordVersion);
  putU64(Out, Key);
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  putU32(Out, crc32(Payload.data(), Payload.size()));
  Out.append(Payload);
  return Out;
}

std::optional<std::string>
SnapshotStore::validateRecord(std::string_view Record, uint64_t Key) {
  if (Record.size() < HeaderBytes)
    return std::nullopt;
  if (u32At(Record, 0) != RecordMagic || u32At(Record, 4) != RecordVersion)
    return std::nullopt;
  if (u64At(Record, 8) != Key)
    return std::nullopt;
  const uint32_t Len = u32At(Record, 16);
  if (Record.size() != HeaderBytes + Len)
    return std::nullopt;
  std::string_view Payload = Record.substr(HeaderBytes, Len);
  if (crc32(Payload.data(), Payload.size()) != u32At(Record, 20))
    return std::nullopt;
  return std::string(Payload);
}

std::string SnapshotStore::pathFor(uint64_t Key) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.snap",
                static_cast<unsigned long long>(Key));
  return Dir + "/" + Name;
}

std::optional<std::string> SnapshotStore::load(uint64_t Key) {
  std::lock_guard<std::mutex> L(Mtx);
  if (ioFaultShouldFail(IoFaultSite::SnapshotRead)) {
    ++S.Misses;
    return std::nullopt;
  }
  std::string Record;
  if (inMemory()) {
    auto It = Mem.find(Key);
    if (It == Mem.end()) {
      ++S.Misses;
      return std::nullopt;
    }
    Record = It->second;
  } else if (!readFile(pathFor(Key), Record)) {
    ++S.Misses;
    return std::nullopt;
  }
  std::optional<std::string> Payload = validateRecord(Record, Key);
  if (!Payload) {
    // Corrupt (torn write, bit rot, key collision): discard so the next
    // save starts clean, and let the caller recompute.
    ++S.CorruptDiscarded;
    if (inMemory())
      Mem.erase(Key);
    else
      ::unlink(pathFor(Key).c_str());
    return std::nullopt;
  }
  ++S.Hits;
  return Payload;
}

bool SnapshotStore::save(uint64_t Key, std::string_view Payload) {
  std::lock_guard<std::mutex> L(Mtx);
  if (ioFaultShouldFail(IoFaultSite::SnapshotWrite)) {
    ++S.WriteFailures;
    return false;
  }
  std::string Record = encodeRecord(Key, Payload);
  // The torn-write site persists a truncated record *under the final
  // name*, simulating a crash mid-write on a filesystem that reordered
  // the rename. load() must detect and discard it.
  const bool Torn = ioFaultShouldFail(IoFaultSite::SnapshotTornWrite);
  if (Torn)
    Record.resize(Record.size() / 2);
  if (inMemory()) {
    Mem[Key] = std::move(Record);
    if (Torn)
      ++S.WriteFailures;
    return !Torn;
  }
  const std::string Final = pathFor(Key);
  if (Torn) {
    writeFileSynced(Final, Record.data(), Record.size());
    ++S.WriteFailures;
    return false;
  }
  const std::string Tmp = Final + ".tmp";
  if (!writeFileSynced(Tmp, Record.data(), Record.size())) {
    ++S.WriteFailures;
    return false;
  }
  if (::rename(Tmp.c_str(), Final.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    ++S.WriteFailures;
    return false;
  }
  return true;
}
