//===- tests/ReportGoldenTest.cpp - Pinned status and fuzz JSON layouts ----===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of two JSON documents whose layout no campaign or
/// corpus golden covers:
///
///  - usher-serve-v1 status, after a fixed request sequence on an
///    in-memory store, with fixed daemon counters;
///  - usher-fuzz-v1 with divergence records, whose detail and reduced
///    source hold every byte class the string escaping treats specially.
///    The pinned campaigns are all clean, so they never print a record.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "serve/Session.h"
#include "serve/SnapshotStore.h"
#include "support/RawStream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace usher;

namespace {

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string digest(const std::string &S) {
  return hex(serve::SnapshotStore::hashBytes(S));
}

const char *UndefBranch = "func main() {\n"
                          "  p = alloc stack 1 uninit;\n"
                          "  x = *p;\n"
                          "  if x goto one;\n"
                          "  ret 0;\n"
                          "one:\n"
                          "  ret 1;\n"
                          "}\n";

} // namespace

TEST(ReportGolden, ServeStatusDigestIsPinned) {
  serve::Session S{serve::SessionOptions{}};
  serve::DaemonStatus DS;
  DS.QueueDepth = 3;
  DS.QueueLimit = 64;
  DS.Shed = 5;
  DS.DroppedReplies = 1;
  DS.ProtocolErrors = 2;
  DS.Workers = 4;

  uint64_t Id = 0;
  auto Send = [&](serve::Op K) {
    serve::Request Rq;
    Rq.Kind = K;
    Rq.Id = ++Id;
    Rq.Source = UndefBranch;
    Rq.QuerySrc = 1;
    Rq.QuerySink = 2;
    return S.handle(Rq, &DS);
  };
  Send(serve::Op::Ping);
  Send(serve::Op::Analyze);
  Send(serve::Op::Analyze);
  Send(serve::Op::Diagnose);
  Send(serve::Op::Query);
  const serve::Reply Status = Send(serve::Op::Status);
  ASSERT_EQ(Status.Status, serve::ReplyStatus::Ok);
  EXPECT_EQ(digest(Status.Payload), "0x04cc02a2929c9233") << Status.Payload;
}

TEST(ReportGolden, FuzzDivergenceRecordsDigestIsPinned) {
  fuzz::FuzzReport Rep;
  Rep.Seed = 11;
  Rep.Runs = 9;
  Rep.NumValid = 7;
  Rep.NumInvalid = 2;
  Rep.NumGenerated = 4;
  Rep.NumMutated = 3;
  Rep.NumSpliced = 1;
  Rep.NumWrapped = 1;
  Rep.CorpusSize = 5;
  Rep.CoverageKeys = 123;
  for (unsigned K = 0; K != fuzz::NumOracleKinds; ++K) {
    Rep.OracleChecked[K] = 7 - K % 3;
    Rep.OracleDiverged[K] = K % 2;
  }

  fuzz::DivergenceRecord A;
  A.Oracle = static_cast<fuzz::OracleKind>(0);
  A.Detail = "plan \"USHER\" vs path C:\\tmp\nline\ttab \x01 end";
  A.Run = 2;
  A.Source = "unused";
  A.Reduced = "func main() {\n\tret 0; // \"q\" \\ \x1f\n}\n";
  A.OriginalLines = 12;
  A.ReducedLines = 3;
  A.ReduceChecks = 40;
  fuzz::DivergenceRecord B = A;
  B.Oracle = static_cast<fuzz::OracleKind>(fuzz::NumOracleKinds - 1);
  B.Detail = "\x02\"\\\n\t";
  B.Run = 8;
  B.Reduced = "\t\"\\\x7f\n";
  B.OriginalLines = 1;
  B.ReducedLines = 1;
  B.ReduceChecks = 0;
  Rep.Divergences = {A, B};

  std::string Json;
  raw_string_ostream OS(Json);
  Rep.printJson(OS);
  EXPECT_EQ(digest(Json), "0xe13bf4d5328d8d07") << Json;
}
