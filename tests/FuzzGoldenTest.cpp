//===- tests/FuzzGoldenTest.cpp - Pinned fuzz campaign reports -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of whole usher-fuzz-v1 campaign reports. The report is a
/// deterministic function of the options (it carries no timings), so one
/// FNV-1a digest per configuration pins every scheduling decision, oracle
/// tally, corpus size and coverage count of the campaign: five seeds at
/// the default options, one synthesizer-seeded corpus and one campaign
/// with reduction off.
///
/// Below the campaign level, one digest per program pins everything
/// runOracles returns (validity, divergences, coverage features in order,
/// Checked flags, main's result, ground-truth warning count) with all
/// oracles enabled and with each oracle alone.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Oracles.h"
#include "ir/IR.h"
#include "serve/SnapshotStore.h"
#include "support/RawStream.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <ostream>
#include <string>

using namespace usher;

namespace {

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Digest of the usher-fuzz-v1 report of the campaign \p Opts describes.
std::string campaignDigest(const fuzz::FuzzOptions &Opts) {
  fuzz::FuzzReport Rep = fuzz::runFuzzer(Opts);
  std::string Buf;
  raw_string_ostream OS(Buf);
  Rep.printJson(OS);
  OS.flush();
  return hex(serve::SnapshotStore::hashBytes(Buf));
}

fuzz::FuzzOptions campaign(uint64_t Seed) {
  fuzz::FuzzOptions Opts;
  Opts.Seed = Seed;
  Opts.Runs = 24;
  return Opts;
}

// A digest changes only with a deliberate change to scheduling, the
// generator or mutator, an oracle, the reducer or the report format;
// re-pin it in the same change.
struct SeedGolden {
  uint64_t Seed;
  uint64_t Digest;
};
const SeedGolden SeedGoldens[] = {
    {1, 0x3d7b55384082202full},    {7, 0x4de13784a2a87b60ull},
    {42, 0x63b750acb3d4f182ull},   {1234, 0xf38f2a320f48933aull},
    {9001, 0x90c1b49a125b46c9ull},
};

// ctest names each instance by its printed parameter: the seed.
void PrintTo(const SeedGolden &G, std::ostream *OS) { *OS << G.Seed; }

class FuzzCampaignGolden : public ::testing::TestWithParam<SeedGolden> {};

} // namespace

TEST_P(FuzzCampaignGolden, ReportDigestIsPinned) {
  const SeedGolden &G = GetParam();
  EXPECT_EQ(campaignDigest(campaign(G.Seed)), hex(G.Digest))
      << "campaign seed " << G.Seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzCampaignGolden, ::testing::ValuesIn(SeedGoldens),
    [](const ::testing::TestParamInfo<SeedGolden> &I) {
      return std::to_string(I.param.Seed);
    });

TEST(FuzzCampaignGolden, SynthSeededReportDigestIsPinned) {
  fuzz::FuzzOptions Opts = campaign(5);
  Opts.SeedCorpusSynth = 4;
  EXPECT_EQ(campaignDigest(Opts), hex(0x353258f838f4bfa8ull));
}

TEST(FuzzCampaignGolden, UnreducedReportDigestIsPinned) {
  fuzz::FuzzOptions Opts = campaign(3);
  Opts.Reduce = false;
  EXPECT_EQ(campaignDigest(Opts), hex(0x446f80d0bf4c4b92ull));
}

namespace {

std::string printed(uint64_t GenSeed) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  workload::generateProgram(GenSeed)->print(OS);
  OS.flush();
  return Buf;
}

/// The source text of one pinned program: a fuzz corpus file
/// ("file:<stem>"), a printed generated program ("gen:<seed>"), or a
/// fixed mutant or splice of generated programs ("mutant", "splice").
std::string programSource(const std::string &Name) {
  if (Name.rfind("file:", 0) == 0) {
    std::string Source;
    EXPECT_TRUE(readFile(std::string(USHER_TEST_INPUT_DIR) + "/fuzz/" +
                             Name.substr(5) + ".tc",
                         Source))
        << Name;
    return Source;
  }
  if (Name.rfind("gen:", 0) == 0)
    return printed(std::stoull(Name.substr(4)));
  if (Name == "mutant")
    return workload::mutateProgram(printed(0), 2);
  return workload::spliceProgram(printed(31), printed(32), 2);
}

/// Everything runOracles reports for \p Source, with all oracles enabled
/// and then with each oracle alone, rendered as text and digested.
std::string outcomeDigest(const std::string &Source) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  for (unsigned Only = 0; Only <= fuzz::NumOracleKinds; ++Only) {
    fuzz::OracleOptions Opts;
    if (Only != 0)
      Opts.Only = static_cast<fuzz::OracleKind>(Only - 1);
    fuzz::OracleOutcome Out = fuzz::runOracles(Source, Opts);
    OS << "only " << Only << " valid " << Out.Valid << " reason "
       << Out.InvalidReason << " checked";
    for (bool C : Out.Checked)
      OS << " " << C;
    OS << " main " << Out.MainResult << " warnings " << Out.NumOracleWarnings
       << "\n";
    for (const fuzz::Divergence &D : Out.Divergences)
      OS << fuzz::oracleKindName(D.Oracle) << ": " << D.Detail << "\n";
    for (uint64_t Key : Out.Features.Keys)
      OS << Key << " ";
    OS << "\n";
  }
  OS.flush();
  return hex(serve::SnapshotStore::hashBytes(Buf));
}

struct OutcomeGolden {
  const char *Program;
  uint64_t Digest;
};
// Re-pin a digest only with a deliberate change to an oracle, the
// coverage features or the programs' text.
const OutcomeGolden OutcomeGoldens[] = {
    {"file:call_undef", 0x1e259bfe73ccbcc7ull},
    {"file:global_uninit", 0x5204c8e596ca7585ull},
    {"file:opt2_dup", 0x47d98d6e35e9aa9bull},
    {"file:ptr_store_load", 0x73fb5a8b31b99833ull},
    {"file:semi_strong_heap", 0x3475f0c90f464f17ull},
    {"file:strong_update_clean", 0xafc4090a2754b887ull},
    {"file:walk_partial", 0xd70d09b37c2d9dfbull},
    {"gen:0", 0xc6ab82fe6c60f631ull},
    {"gen:1", 0xbedcb7f047d7ea97ull},
    {"gen:2", 0x640591dd967431ebull},
    {"gen:3", 0xfdf8c5dc17057813ull},
    {"gen:4", 0x5c89ecb98c7afe3bull},
    {"gen:5", 0xda6f583e2e52394full},
    {"gen:6", 0xa9bdc42c49b3bce7ull},
    {"gen:7", 0xd2720c716e3979cfull},
    {"gen:8", 0xf55bf9e73bd769a3ull},
    {"gen:9", 0x7e61a906465013b9ull},
    {"mutant", 0x93d5dae3559a8f85ull},
    {"splice", 0xd0fb314d6009b543ull},
};

void PrintTo(const OutcomeGolden &G, std::ostream *OS) { *OS << G.Program; }

class OracleOutcomeGolden : public ::testing::TestWithParam<OutcomeGolden> {};

} // namespace

TEST_P(OracleOutcomeGolden, DigestIsPinned) {
  const OutcomeGolden &G = GetParam();
  EXPECT_EQ(outcomeDigest(programSource(G.Program)), hex(G.Digest))
      << G.Program;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, OracleOutcomeGolden, ::testing::ValuesIn(OutcomeGoldens),
    [](const ::testing::TestParamInfo<OutcomeGolden> &I) {
      std::string Name;
      for (const char *C = I.param.Program; *C; ++C)
        Name += std::isalnum(static_cast<unsigned char>(*C)) ? *C : '_';
      return Name;
    });
