//===- tests/ServeFaultTest.cpp - I/O fault campaign over the service ------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process half of the serve fault campaign: every enumerated I/O
/// fault site is armed in turn and a full protocol round trip (encode,
/// frame, reassemble, decode, handle, encode reply, decode reply) is
/// driven through a Session. The contract under every fault is the same:
/// the faulted request either still answers correctly (snapshot faults
/// cost warm-start, nothing else) or fails as a structured Error reply
/// (allocation faults), and the session keeps serving correct answers
/// afterwards. The socket-level half (socket-drop-reply against a real
/// daemon) lives in the `serve_fault`-labeled ctest campaign driven by
/// tools/check_serve_json.py.
///
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Session.h"
#include "support/FaultInjection.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <new>
#include <string>

#include <unistd.h>

using namespace usher;
using namespace usher::serve;

namespace {

const char *Program = "func main() {\n"
                      "  p = alloc stack 1 uninit;\n"
                      "  x = *p;\n"
                      "  ret x;\n"
                      "}\n";

class ServeFaultTest : public ::testing::Test {
protected:
  void SetUp() override {
    disarmIoFaults();
    // Per-process, per-test directory: ctest -j runs each gtest case as
    // its own process, and a case can run twice at once (a label entry
    // beside its tier-1 entry), so a shared path would be wiped from
    // under a sibling.
    Dir = std::filesystem::temp_directory_path() /
          ("usher-serve-fault-test-" + std::to_string(::getpid()) + "-" +
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

/// One full wire round trip against \p Sess, exactly as the daemon would
/// run it: the armed ParseAlloc fault surfaces here as std::bad_alloc
/// from decodeRequest, and — like the daemon — the round trip converts
/// it into a structured Error reply.
Reply roundTrip(Session &Sess, const Request &Rq) {
  FrameReader Reader;
  const std::string Framed = frame(encodeRequest(Rq));
  Reader.append(Framed.data(), Framed.size());
  std::string Body;
  EXPECT_EQ(Reader.next(Body), FrameReader::Result::Frame);

  Request Decoded;
  Reply Rp;
  try {
    std::string Err;
    EXPECT_TRUE(decodeRequest(Body, Decoded, &Err)) << Err;
    Rp = Sess.handle(Decoded);
  } catch (const std::bad_alloc &) {
    Rp = Reply();
    Rp.Id = Decoded.Id; // Id decodes before the allocation that faults.
    Rp.Status = ReplyStatus::Error;
    Rp.Payload = "internal error: request parse allocation failed";
  }

  Reply Out;
  std::string Err;
  EXPECT_TRUE(decodeReply(encodeReply(Rp), Out, &Err)) << Err;
  return Out;
}

Request analyzeReq(uint64_t Id) {
  Request Rq;
  Rq.Kind = Op::Analyze;
  Rq.Id = Id;
  Rq.Source = Program;
  return Rq;
}

TEST_F(ServeFaultTest, EveryIoFaultSiteIsSurvivable) {
  // Fault-free baseline payload from a throwaway session.
  std::string Expected;
  {
    Session Base(SessionOptions{});
    Reply Rp = roundTrip(Base, analyzeReq(1));
    ASSERT_EQ(Rp.Status, ReplyStatus::Ok);
    Expected = Rp.Payload;
  }

  for (unsigned I = 0; I != NumIoFaultSites; ++I) {
    const IoFaultSite Site = static_cast<IoFaultSite>(I);
    SCOPED_TRACE(ioFaultSiteName(Site));

    // A fresh on-disk store per site so snapshot faults cannot leak
    // state between campaign legs.
    SessionOptions SO;
    SO.SnapshotDir =
        (Dir / ioFaultSiteName(Site)).string();
    std::filesystem::create_directories(SO.SnapshotDir);
    Session Sess(SO);

    armIoFault({Site, 1, /*Once=*/true});
    Reply Faulted = roundTrip(Sess, analyzeReq(2));
    if (Site == IoFaultSite::ParseAlloc) {
      // The injected allocation failure is isolated to its request.
      EXPECT_EQ(Faulted.Status, ReplyStatus::Error);
      EXPECT_EQ(Faulted.Id, 2u);
    } else {
      // Snapshot faults (and socket-drop-reply, which has no socket to
      // act on here) never change the answer — only warm-start.
      EXPECT_EQ(Faulted.Status, ReplyStatus::Ok);
      EXPECT_EQ(Faulted.Payload, Expected);
    }

    // The fault has fired (or could not fire in-process); the session
    // must serve the exact baseline afterwards.
    disarmIoFaults();
    Reply After = roundTrip(Sess, analyzeReq(3));
    EXPECT_EQ(After.Status, ReplyStatus::Ok);
    EXPECT_EQ(After.Payload, Expected);
  }
}

TEST_F(ServeFaultTest, PersistentSnapshotWriteFaultOnlyCostsWarmStart) {
  SessionOptions SO;
  SO.SnapshotDir = Dir.string();
  Session Sess(SO);

  armIoFault({IoFaultSite::SnapshotWrite, 1, /*Once=*/false});
  Reply First = roundTrip(Sess, analyzeReq(1));
  ASSERT_EQ(First.Status, ReplyStatus::Ok);
  Reply Second = roundTrip(Sess, analyzeReq(2));
  ASSERT_EQ(Second.Status, ReplyStatus::Ok);
  EXPECT_EQ(Second.Payload, First.Payload);
  // Nothing persisted, so nothing was served warm.
  EXPECT_EQ(Sess.servedWarm(), 0u);
  EXPECT_GE(Sess.store().stats().WriteFailures, 1u);
}

TEST_F(ServeFaultTest, PersistentTornWriteNeverServesGarbage) {
  SessionOptions SO;
  SO.SnapshotDir = Dir.string();
  Session Sess(SO);

  armIoFault({IoFaultSite::SnapshotTornWrite, 1, /*Once=*/false});
  Reply First = roundTrip(Sess, analyzeReq(1));
  ASSERT_EQ(First.Status, ReplyStatus::Ok);
  disarmIoFaults();

  // Torn records reached the final names; the next request discards them
  // all and recomputes the identical payload.
  Reply Second = roundTrip(Sess, analyzeReq(2));
  ASSERT_EQ(Second.Status, ReplyStatus::Ok);
  EXPECT_EQ(Second.Payload, First.Payload);
  EXPECT_EQ(Sess.servedWarm(), 0u);
  EXPECT_GE(Sess.store().stats().CorruptDiscarded, 1u);
}

TEST_F(ServeFaultTest, PersistentReadFaultDisablesWarmStartOnly) {
  SessionOptions SO;
  SO.SnapshotDir = Dir.string();
  Session Sess(SO);

  Reply Cold = roundTrip(Sess, analyzeReq(1));
  ASSERT_EQ(Cold.Status, ReplyStatus::Ok);

  armIoFault({IoFaultSite::SnapshotRead, 1, /*Once=*/false});
  Reply Unwarmed = roundTrip(Sess, analyzeReq(2));
  ASSERT_EQ(Unwarmed.Status, ReplyStatus::Ok);
  EXPECT_EQ(Unwarmed.Payload, Cold.Payload);
  EXPECT_EQ(Sess.servedWarm(), 0u);

  disarmIoFaults();
  Reply Warm = roundTrip(Sess, analyzeReq(3));
  EXPECT_EQ(Warm.Payload, Cold.Payload);
  EXPECT_EQ(Sess.servedWarm(), 1u);
}

} // namespace
