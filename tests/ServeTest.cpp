//===- tests/ServeTest.cpp - Analysis service unit tests -------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the usher-serve subsystem below the socket: the wire
/// protocol (encode/decode round trips, incremental reassembly, framing
/// corruption), the crash-safe snapshot store (atomic visibility,
/// validated load, a corruption sweep over every byte of a record), and
/// the Session request core (warm == cold byte-for-byte, error
/// isolation, degradation, never-cache-degraded).
///
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Session.h"
#include "serve/SnapshotStore.h"
#include "support/FaultInjection.h"

#include "gtest/gtest.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace usher;
using namespace usher::serve;

namespace {

const char *SmokeProgram = "func main() {\n"
                           "  x = 1;\n"
                           "  y = x + 2;\n"
                           "  ret y;\n"
                           "}\n";

const char *UndefProgram = "func main() {\n"
                           "  p = alloc stack 1 uninit;\n"
                           "  x = *p;\n"
                           "  ret x;\n"
                           "}\n";

// A three-function module (g -> f -> main, which branches on the result)
// and a one-function edit of it that makes g add an uninitialized stack
// cell, so the edited reply plans checks the base reply does not.
const char *EditBase = "func g(a, b) {\n"
                       "  t = a + b;\n"
                       "  ret t;\n"
                       "}\n"
                       "func f(x) {\n"
                       "  r = g(x, x);\n"
                       "  ret r;\n"
                       "}\n"
                       "func main() {\n"
                       "  w = 1;\n"
                       "  v = f(w);\n"
                       "  if v goto t;\n"
                       "  ret 0;\n"
                       "t:\n"
                       "  ret v;\n"
                       "}\n";

const char *EditedProgram = "func g(a, b) {\n"
                            "  p = alloc stack 1 uninit;\n"
                            "  u = *p;\n"
                            "  t = a + u;\n"
                            "  ret t;\n"
                            "}\n"
                            "func f(x) {\n"
                            "  r = g(x, x);\n"
                            "  ret r;\n"
                            "}\n"
                            "func main() {\n"
                            "  w = 1;\n"
                            "  v = f(w);\n"
                            "  if v goto t;\n"
                            "  ret 0;\n"
                            "t:\n"
                            "  ret v;\n"
                            "}\n";

/// A scratch directory wiped per test, plus guaranteed fault disarm (the
/// I/O fault plane is process-global and gtest shares one process).
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    disarmIoFaults();
    Dir = std::filesystem::temp_directory_path() /
          ("usher-serve-test-" +
           std::to_string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->line()));
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  void TearDown() override {
    disarmIoFaults();
    std::filesystem::remove_all(Dir);
  }

  std::filesystem::path Dir;
};

Request analyzeReq(const char *Source, uint64_t Id = 1) {
  Request Rq;
  Rq.Kind = Op::Analyze;
  Rq.Id = Id;
  Rq.Source = Source;
  return Rq;
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, RequestRoundTrip) {
  Request Rq;
  Rq.Kind = Op::Diagnose;
  Rq.Id = 0xDEADBEEFCAFEull;
  Rq.DeadlineMs = 250;
  Rq.BudgetSteps = 1u << 20;
  Rq.FaultSpec = "pta@3:once";
  Rq.Source = SmokeProgram;

  Request Out;
  std::string Err;
  ASSERT_TRUE(decodeRequest(encodeRequest(Rq), Out, &Err)) << Err;
  EXPECT_EQ(Out.Kind, Rq.Kind);
  EXPECT_EQ(Out.Id, Rq.Id);
  EXPECT_EQ(Out.DeadlineMs, Rq.DeadlineMs);
  EXPECT_EQ(Out.BudgetSteps, Rq.BudgetSteps);
  EXPECT_EQ(Out.FaultSpec, Rq.FaultSpec);
  EXPECT_EQ(Out.Source, Rq.Source);
}

TEST_F(ServeTest, ReplyRoundTrip) {
  Reply Rp;
  Rp.Status = ReplyStatus::Degraded;
  Rp.Id = 42;
  Rp.Rung = "USHER-TL+AT";
  Rp.RetryAfterMs = 75;
  Rp.Payload = "module: variant=USHER-TL+AT checks=3\n";

  Reply Out;
  std::string Err;
  ASSERT_TRUE(decodeReply(encodeReply(Rp), Out, &Err)) << Err;
  EXPECT_EQ(Out.Status, Rp.Status);
  EXPECT_EQ(Out.Id, Rp.Id);
  EXPECT_EQ(Out.Rung, Rp.Rung);
  EXPECT_EQ(Out.RetryAfterMs, Rp.RetryAfterMs);
  EXPECT_EQ(Out.Payload, Rp.Payload);
}

TEST_F(ServeTest, OpNamesRoundTrip) {
  for (unsigned I = 0; I != NumOps; ++I) {
    Op K = static_cast<Op>(I), Parsed;
    ASSERT_TRUE(parseOpName(opName(K), Parsed)) << opName(K);
    EXPECT_EQ(Parsed, K);
  }
  Op Ignored;
  EXPECT_FALSE(parseOpName("frobnicate", Ignored));
}

TEST_F(ServeTest, TruncatedRequestBodyNeverDecodes) {
  const std::string Body = encodeRequest(analyzeReq(SmokeProgram, 7));
  for (size_t Len = 0; Len != Body.size(); ++Len) {
    Request Out;
    EXPECT_FALSE(decodeRequest(std::string_view(Body.data(), Len), Out))
        << "truncation at " << Len << " decoded";
  }
}

TEST_F(ServeTest, FrameReaderReassemblesByteAtATime) {
  const std::string A = frame(encodeRequest(analyzeReq(SmokeProgram, 1)));
  const std::string B = frame(encodeRequest(analyzeReq(UndefProgram, 2)));
  const std::string Stream = A + B;

  FrameReader Reader;
  std::vector<std::string> Bodies;
  for (char C : Stream) {
    Reader.append(&C, 1);
    std::string Body;
    while (Reader.next(Body) == FrameReader::Result::Frame)
      Bodies.push_back(Body);
  }
  ASSERT_EQ(Bodies.size(), 2u);
  Request R1, R2;
  ASSERT_TRUE(decodeRequest(Bodies[0], R1));
  ASSERT_TRUE(decodeRequest(Bodies[1], R2));
  EXPECT_EQ(R1.Id, 1u);
  EXPECT_EQ(R2.Id, 2u);
  EXPECT_EQ(Reader.pending(), 0u);
}

TEST_F(ServeTest, FrameReaderRejectsCrcMismatch) {
  std::string Framed = frame(encodeRequest(analyzeReq(SmokeProgram)));
  Framed.back() ^= 0x01; // Corrupt the last body byte; CRC now lies.
  FrameReader Reader;
  Reader.append(Framed.data(), Framed.size());
  std::string Body, Err;
  EXPECT_EQ(Reader.next(Body, &Err), FrameReader::Result::Corrupt) << Err;
}

TEST_F(ServeTest, FrameReaderRejectsOversizedLength) {
  // A length field above MaxFrameBytes must be a framing error up front,
  // not a 4GiB allocation attempt.
  std::string Framed(8, '\0');
  const uint32_t Huge = MaxFrameBytes + 1;
  std::memcpy(Framed.data(), &Huge, 4);
  FrameReader Reader;
  Reader.append(Framed.data(), Framed.size());
  std::string Body;
  EXPECT_EQ(Reader.next(Body), FrameReader::Result::Corrupt);
}

TEST_F(ServeTest, FrameReaderWantsMoreOnPartialFrame) {
  const std::string Framed = frame(encodeRequest(analyzeReq(SmokeProgram)));
  FrameReader Reader;
  Reader.append(Framed.data(), Framed.size() - 1);
  std::string Body;
  EXPECT_EQ(Reader.next(Body), FrameReader::Result::NeedMore);
  Reader.append(Framed.data() + Framed.size() - 1, 1);
  EXPECT_EQ(Reader.next(Body), FrameReader::Result::Frame);
}

//===----------------------------------------------------------------------===//
// SnapshotStore
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, StoreInMemoryRoundTrip) {
  SnapshotStore Store("");
  EXPECT_TRUE(Store.inMemory());
  EXPECT_FALSE(Store.load(1).has_value());
  ASSERT_TRUE(Store.save(1, "payload"));
  std::optional<std::string> Got = Store.load(1);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "payload");
  SnapshotStore::Stats St = Store.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 1u);
}

TEST_F(ServeTest, StorePersistsAcrossInstances) {
  const uint64_t Key = SnapshotStore::hashBytes("some section");
  {
    SnapshotStore Store(Dir.string());
    ASSERT_TRUE(Store.save(Key, "persisted bytes"));
  }
  SnapshotStore Store(Dir.string());
  std::optional<std::string> Got = Store.load(Key);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "persisted bytes");
}

TEST_F(ServeTest, StoreRecordValidatorAcceptsOnlyExactRecord) {
  const std::string Rec = SnapshotStore::encodeRecord(99, "abc");
  ASSERT_TRUE(SnapshotStore::validateRecord(Rec, 99).has_value());
  EXPECT_EQ(*SnapshotStore::validateRecord(Rec, 99), "abc");
  // Wrong key: an entry renamed onto another key's path must not serve.
  EXPECT_FALSE(SnapshotStore::validateRecord(Rec, 98).has_value());
  // Trailing garbage is corruption, not slack.
  EXPECT_FALSE(SnapshotStore::validateRecord(Rec + "x", 99).has_value());
}

/// The crash-safety sweep: a record truncated at EVERY byte boundary and
/// flipped at EVERY byte offset must be rejected by the validator, and a
/// store loading such a record must discard it (miss + unlink), never
/// serve it.
TEST_F(ServeTest, StoreDetectsCorruptionAtEveryByteBoundary) {
  const uint64_t Key = 0x1234567890ABCDEFull;
  const std::string Payload = "function main: checks=2 shadow-ops=5\n";
  const std::string Rec = SnapshotStore::encodeRecord(Key, Payload);

  for (size_t Len = 0; Len != Rec.size(); ++Len)
    EXPECT_FALSE(
        SnapshotStore::validateRecord(std::string_view(Rec.data(), Len), Key)
            .has_value())
        << "truncation at byte " << Len << " validated";

  for (size_t Off = 0; Off != Rec.size(); ++Off) {
    for (unsigned Bit = 0; Bit != 8; ++Bit) {
      std::string Bad = Rec;
      Bad[Off] ^= static_cast<char>(1u << Bit);
      EXPECT_FALSE(SnapshotStore::validateRecord(Bad, Key).has_value())
          << "flip of bit " << Bit << " at byte " << Off << " validated";
    }
  }

  // On-disk: every truncated prefix written under the final name must be
  // discarded on load and unlinked so the next save is clean.
  SnapshotStore Store(Dir.string());
  const std::string Path = Store.pathFor(Key);
  for (size_t Len = 0; Len != Rec.size(); ++Len) {
    {
      std::ofstream F(Path, std::ios::binary | std::ios::trunc);
      F.write(Rec.data(), static_cast<std::streamsize>(Len));
    }
    EXPECT_FALSE(Store.load(Key).has_value())
        << "torn record of " << Len << " bytes served";
    EXPECT_FALSE(std::filesystem::exists(Path))
        << "torn record of " << Len << " bytes not unlinked";
  }
  EXPECT_EQ(Store.stats().CorruptDiscarded, Rec.size());
}

TEST_F(ServeTest, StoreTornWriteFaultLeavesNoServableRecord) {
  SnapshotStore Store(Dir.string());
  armIoFault({IoFaultSite::SnapshotTornWrite, 1, false});
  EXPECT_FALSE(Store.save(5, "this write is torn mid-record"));
  disarmIoFaults();
  // The torn record reached the final name (that is the fault being
  // modeled), but the validated load refuses to serve it.
  EXPECT_FALSE(Store.load(5).has_value());
  ASSERT_TRUE(Store.save(5, "intact"));
  std::optional<std::string> Got = Store.load(5);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "intact");
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, SessionWarmEqualsColdByteForByte) {
  SessionOptions SO;
  SO.SnapshotDir = Dir.string();
  Session Sess(SO);

  Reply Cold = Sess.handle(analyzeReq(UndefProgram, 1));
  ASSERT_EQ(Cold.Status, ReplyStatus::Ok);
  EXPECT_NE(Cold.Payload.find("module: variant="), std::string::npos);

  Reply Warm = Sess.handle(analyzeReq(UndefProgram, 2));
  ASSERT_EQ(Warm.Status, ReplyStatus::Ok);
  EXPECT_EQ(Warm.Payload, Cold.Payload);
  EXPECT_EQ(Sess.servedWarm(), 1u);
}

TEST_F(ServeTest, SessionEditReplyEqualsFreshSession) {
  SessionOptions SO;
  SO.SnapshotDir = Dir.string();
  Session Warm(SO);

  Reply Base = Warm.handle(analyzeReq(EditBase, 1));
  ASSERT_EQ(Base.Status, ReplyStatus::Ok) << Base.Payload;
  const SnapshotStore::Stats Primed = Warm.store().stats();
  ASSERT_EQ(Primed.WriteFailures, 0u);

  // The edited module misses the store the base request filled and is
  // recomputed; its reply must be what a fresh session computes.
  Reply Edited = Warm.handle(analyzeReq(EditedProgram, 2));
  ASSERT_EQ(Edited.Status, ReplyStatus::Ok) << Edited.Payload;
  EXPECT_EQ(Warm.servedWarm(), 0u);
  EXPECT_GT(Warm.store().stats().Misses, Primed.Misses);
  EXPECT_EQ(Warm.store().stats().CorruptDiscarded, 0u);

  Session Fresh(SessionOptions{});
  Reply FreshEdited = Fresh.handle(analyzeReq(EditedProgram, 3));
  ASSERT_EQ(FreshEdited.Status, ReplyStatus::Ok);
  EXPECT_EQ(Edited.Payload, FreshEdited.Payload);
  EXPECT_NE(Edited.Payload, Base.Payload);

  // The on-disk store now carries both versions: each is served warm, a
  // later session over the same directory included, byte for byte.
  Reply BaseAgain = Warm.handle(analyzeReq(EditBase, 4));
  EXPECT_EQ(BaseAgain.Payload, Base.Payload);
  EXPECT_EQ(Warm.servedWarm(), 1u);
  Session Reopened(SO);
  Reply EditedAgain = Reopened.handle(analyzeReq(EditedProgram, 5));
  EXPECT_EQ(EditedAgain.Payload, Edited.Payload);
  EXPECT_EQ(Reopened.servedWarm(), 1u);
}

TEST_F(ServeTest, SessionRecomputesAfterSnapshotCorruption) {
  SessionOptions SO;
  SO.SnapshotDir = Dir.string();
  Reply Cold;
  {
    Session Sess(SO);
    Cold = Sess.handle(analyzeReq(SmokeProgram, 1));
    ASSERT_EQ(Cold.Status, ReplyStatus::Ok);
  }
  // Truncate every snapshot the cold run left behind — a simulated torn
  // filesystem. A fresh session must recompute the identical payload.
  unsigned Corrupted = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::filesystem::resize_file(E.path(),
                                 std::filesystem::file_size(E.path()) / 2);
    ++Corrupted;
  }
  ASSERT_GT(Corrupted, 0u);

  Session Sess(SO);
  Reply Recovered = Sess.handle(analyzeReq(SmokeProgram, 2));
  ASSERT_EQ(Recovered.Status, ReplyStatus::Ok);
  EXPECT_EQ(Recovered.Payload, Cold.Payload);
  EXPECT_EQ(Sess.servedWarm(), 0u);
  EXPECT_GE(Sess.store().stats().CorruptDiscarded, 1u);
}

TEST_F(ServeTest, SessionIsolatesParseErrors) {
  Session Sess(SessionOptions{});
  Reply Bad = Sess.handle(analyzeReq("func main( { this is not TinyC", 9));
  EXPECT_EQ(Bad.Status, ReplyStatus::Error);
  EXPECT_EQ(Bad.Id, 9u);
  EXPECT_NE(Bad.Payload.find("parse error"), std::string::npos);

  // The session keeps serving correct answers afterwards.
  Reply Good = Sess.handle(analyzeReq(SmokeProgram, 10));
  EXPECT_EQ(Good.Status, ReplyStatus::Ok);
}

TEST_F(ServeTest, SessionDegradesOnBudgetAndNeverCachesIt) {
  SessionOptions SO;
  SO.SnapshotDir = Dir.string();
  Session Sess(SO);

  Request Budgeted = analyzeReq(UndefProgram, 1);
  Budgeted.BudgetSteps = 1;
  Reply Deg = Sess.handle(Budgeted);
  EXPECT_EQ(Deg.Status, ReplyStatus::Degraded);
  EXPECT_FALSE(Deg.Rung.empty());

  // The degraded run must not have seeded the store: the subsequent
  // unbudgeted request computes cold (full fidelity), then warms.
  Reply Cold = Sess.handle(analyzeReq(UndefProgram, 2));
  ASSERT_EQ(Cold.Status, ReplyStatus::Ok);
  EXPECT_EQ(Sess.servedWarm(), 0u);
  Reply Warm = Sess.handle(analyzeReq(UndefProgram, 3));
  EXPECT_EQ(Warm.Payload, Cold.Payload);
  EXPECT_EQ(Sess.servedWarm(), 1u);
}

TEST_F(ServeTest, SessionRejectsBadFaultSpec) {
  Session Sess(SessionOptions{});
  Request Rq = analyzeReq(SmokeProgram, 1);
  Rq.FaultSpec = "no-such-phase@1";
  Reply Rp = Sess.handle(Rq);
  EXPECT_EQ(Rp.Status, ReplyStatus::Error);
  EXPECT_NE(Rp.Payload.find("bad fault spec"), std::string::npos);
}

TEST_F(ServeTest, SessionDiagnoseReportsFindings) {
  // A load from an uninitialized cell is a finding only when the loaded
  // value reaches a critical use — branch on it unconditionally.
  const char *DefiniteProgram = "func main() {\n"
                                "  p = alloc stack 1 uninit;\n"
                                "  x = *p;\n"
                                "  if x goto one;\n"
                                "  ret 0;\n"
                                "one:\n"
                                "  ret 1;\n"
                                "}\n";
  Session Sess(SessionOptions{});
  Request Rq = analyzeReq(DefiniteProgram, 4);
  Rq.Kind = Op::Diagnose;
  Reply Rp = Sess.handle(Rq);
  ASSERT_EQ(Rp.Status, ReplyStatus::Ok);
  EXPECT_NE(Rp.Payload.find("critical-uses="), std::string::npos);
  EXPECT_NE(Rp.Payload.find("definite use of"), std::string::npos);
}

} // namespace
