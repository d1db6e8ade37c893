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
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "serve/SnapshotStore.h"
#include "support/RawStream.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(campaignDigest(Opts), hex(0x52379d049b0d7617ull));
}
