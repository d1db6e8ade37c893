//===- tests/ParserGoldenTest.cpp - Pinned parser output -------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of what the parser builds, so a change to how it
/// resolves names cannot move a byte of its output:
///
///  - for every program that parses (the 15 suite programs, every .tc
///    under tests/inputs that parses, the printed text of generator seeds
///    0-9 and the eight programs the serve-edit benchmark serves, of 10k
///    target nodes and seeds 1-8): the printed IR, followed by every
///    function, variable and memory object with its id, in creation order;
///  - for every file under tests/inputs/invalid and every other .tc that
///    does not parse: the parse errors, or the verifier's errors when the
///    file parses;
///  - for every program of either kind: the token stream, each token's
///    kind, text, line, column and integer value, up to and including the
///    end of input or the one lexical error.
///
/// One row per program. A final check walks tests/inputs and fails on a
/// .tc file that no row pins.
///
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "ir/Verifier.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "serve/SnapshotStore.h"
#include "support/RawStream.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <set>
#include <string>

using namespace usher;

namespace {

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// The source text of one pinned program: a suite program ("suite:<name>"),
/// a file under tests/inputs ("file:<relative path>"), the printed text
/// of a generated program ("gen:<seed>") or a synthesized program
/// ("synth:<target nodes>:<seed>").
std::string programSource(const std::string &Name) {
  if (Name.rfind("suite:", 0) == 0) {
    for (const workload::BenchmarkProgram &B : workload::spec2000Suite())
      if (B.Name == Name.substr(6))
        return B.Source;
    ADD_FAILURE() << "no suite program " << Name;
    return "";
  }
  if (Name.rfind("file:", 0) == 0) {
    std::string Source;
    EXPECT_TRUE(readFile(std::string(USHER_TEST_INPUT_DIR) + "/" +
                             Name.substr(5),
                         Source))
        << Name;
    return Source;
  }
  if (Name.rfind("synth:", 0) == 0) {
    const size_t Colon = Name.find(':', 6);
    workload::ShapeSpec Spec;
    Spec.TargetNodes = std::stoul(Name.substr(6, Colon - 6));
    Spec.Seed = std::stoull(Name.substr(Colon + 1));
    return workload::synthesizeProgram(Spec);
  }
  std::string Buf;
  raw_string_ostream OS(Buf);
  workload::generateProgram(std::stoull(Name.substr(4)))->print(OS);
  OS.flush();
  return Buf;
}

/// The printed IR of \p M and a listing of its entities with their ids.
std::string render(const ir::Module &M) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  M.print(OS);
  OS << "\n-- entities\n";
  for (const auto &F : M.functions()) {
    OS << "func " << F->getId() << ' ' << F->getName() << '\n';
    for (const auto &V : F->variables())
      OS << "  var " << V->getId() << ' ' << V->getName()
         << (V->isParam() ? " param" : "") << '\n';
  }
  for (const auto &Obj : M.objects())
    OS << "obj " << Obj->getId() << ' ' << Obj->getName() << ' '
       << static_cast<int>(Obj->getRegion()) << '\n';
  OS.flush();
  return Buf;
}

/// The parse errors of \p Source, or its verifier errors when it parses.
std::string diagnostics(const std::string &Source) {
  parser::ParseResult R = parser::parseModule(Source);
  std::vector<std::string> Errors = R.Errors;
  if (R.succeeded())
    ir::verifyModule(*R.M, Errors);
  std::string Buf;
  for (const std::string &E : Errors)
    Buf += E + "\n";
  return Buf;
}

/// Every token of \p Source, one line each: kind, text, line:column and
/// integer value.
std::string tokenStream(const std::string &Source) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  parser::Lexer L(Source);
  for (parser::Token T = L.next();; T = L.next()) {
    OS << static_cast<int>(T.Kind) << ' ' << T.Text << ' ' << T.Line << ':'
       << T.Col << ' ' << T.IntValue << '\n';
    if (T.is(parser::TokenKind::Eof) || T.is(parser::TokenKind::Error))
      break;
  }
  OS.flush();
  return Buf;
}

std::string digest(const std::string &S) {
  return hex(serve::SnapshotStore::hashBytes(S));
}

struct Golden {
  const char *Program;
  uint64_t Digest;
  uint64_t Tokens; ///< Digest of tokenStream().
};

void PrintTo(const Golden &G, std::ostream *OS) { *OS << G.Program; }

std::string rowName(const ::testing::TestParamInfo<Golden> &I) {
  std::string Name;
  for (const char *C = I.param.Program; *C; ++C)
    Name += std::isalnum(static_cast<unsigned char>(*C)) ? *C : '_';
  return Name;
}

// Re-pin a digest only with a deliberate change to the parser, the
// printer, the generator or the program's text.
const Golden IRGoldens[] = {
    {"suite:164.gzip", 0x8fe67bea13614057ull, 0xb4088a743e004673ull},
    {"suite:175.vpr", 0x13b5ca91115f6e88ull, 0xc18af6236ab0f8f4ull},
    {"suite:176.gcc", 0x3ae64b90055c21acull, 0xb528bd1820b8bc1cull},
    {"suite:177.mesa", 0x1e12b2f33af0089aull, 0xa49b7ca01c99dbcdull},
    {"suite:179.art", 0x84b2ec60bf130041ull, 0x5c9ee3a494a01466ull},
    {"suite:181.mcf", 0x0284f46846210707ull, 0xb1bbda56aebbc928ull},
    {"suite:183.equake", 0x10443b8c5836889bull, 0x506131f2758471adull},
    {"suite:186.crafty", 0xd93132081e1c8836ull, 0xc3dc50d58b18e6b6ull},
    {"suite:188.ammp", 0x7099a34638ddbd81ull, 0x7a257bd1dc4420f6ull},
    {"suite:197.parser", 0xb020052d19f3580full, 0xe8275c40c017a9b6ull},
    {"suite:253.perlbmk", 0x59ce1e2ae6ed1d23ull, 0xb950c73e9fbfa6d9ull},
    {"suite:254.gap", 0xfda631723753bd09ull, 0x3e30742370033dffull},
    {"suite:255.vortex", 0x47029480864c01dbull, 0xf8fe95aa6f818fddull},
    {"suite:256.bzip2", 0x3e27715c91d9e4a3ull, 0xcaccc96ee5b1dbd8ull},
    {"suite:300.twolf", 0xea0188b649fe3e20ull, 0x27dd10c1cd84a72dull},
    {"file:clients/addrleak/clean_strong_update.tc",
     0x1b0a7ff54f3a36c1ull,
     0x31d41a63e04bf172ull},
    {"file:clients/addrleak/guarded_no_leak.tc",
     0x933593349bfd87c5ull,
     0xfbed00ec5d805c12ull},
    {"file:clients/addrleak/leak_heap_to_global.tc",
     0xc158b5b97e85e63dull,
     0x3ba5d2b87b12ae34ull},
    {"file:clients/bounds/clean_const_in_range.tc",
     0xede7bfe7026861edull,
     0x231b06a60875bd9cull},
    {"file:clients/bounds/guarded_in_range.tc",
     0xb59df949e3d7069full,
     0x5ecdfe9ed80b35e1ull},
    {"file:clients/bounds/oob_const_index.tc",
     0x68fa7222e8640a37ull,
     0x136d66fae1cb2d48ull},
    {"file:diagnosis/clean_strong_update.tc",
     0x2a565a45f279cd69ull,
     0xe4de0a011b96fcbaull},
    {"file:diagnosis/definite.tc",
     0x7491f5ee2797a28bull,
     0x0b673f9ad6d48626ull},
    {"file:diagnosis/may_guarded.tc",
     0xbdaa1f03e8dceab9ull,
     0x50d76ad43bc2e33full},
    {"file:fuzz/call_undef.tc", 0xc6c58760802e4671ull, 0x37c12c4758802fa6ull},
    {"file:fuzz/global_uninit.tc",
     0xc2eaef1260d810a2ull,
     0x49377e88991573b4ull},
    {"file:fuzz/opt2_dup.tc", 0x4c0c6d4bd4015366ull, 0x3fbf1b17a69a0042ull},
    {"file:fuzz/ptr_store_load.tc",
     0x73ed9381ec53df9dull,
     0x1a524165bacbc666ull},
    {"file:fuzz/semi_strong_heap.tc",
     0x9e6672a77bf34c80ull,
     0x8c3c987e49bc3515ull},
    {"file:fuzz/strong_update_clean.tc",
     0xb372c0e8f4624a37ull,
     0xaa3c7f63e542675bull},
    {"file:fuzz/walk_partial.tc", 0x58d9eb4aa55342e4ull, 0x6f2d7b0693214eb9ull},
    {"file:invalid/no_main.tc", 0x06a73e4ff421f3a0ull, 0x1150bbd9ddf9048eull},
    {"file:query/undef_branch.tc",
     0xce3f93a6e8773b4bull,
     0xd149bd0b039f0cbfull},
    {"file:smoke.tc", 0xe06172ac73f9dedaull, 0x01203586f956b742ull},
    {"gen:0", 0x64f437013bfab7afull, 0x1f530ec6656ff108ull},
    {"gen:1", 0xef70b041d3d56097ull, 0xea096bd4938a1272ull},
    {"gen:2", 0x89ba4fafbace2b62ull, 0x6c7986599f84ad31ull},
    {"gen:3", 0xd5b4b06303a43d50ull, 0xf8e018086e139a87ull},
    {"gen:4", 0x787434634be6d8a5ull, 0x8b3fb5b8ef014b80ull},
    {"gen:5", 0x6e0ffaaed07fcb85ull, 0xa7a0d0b82c84128aull},
    {"gen:6", 0x24cf29603dbc0b32ull, 0x5bcaeb39eedc8d9eull},
    {"gen:7", 0xbed98b8f3d28db18ull, 0xfff1563ab70988caull},
    {"gen:8", 0xcb972df35a17dcbbull, 0xcf0c23ce5bfe4291ull},
    {"gen:9", 0x99a1a8901c470ceaull, 0x5a1211b80a4456e3ull},
    {"synth:10000:1", 0xae0af005e9669aacull, 0x5a5091023a9847a0ull},
    {"synth:10000:2", 0x05ec6d8d34e0e530ull, 0xa706b5f752f0bb05ull},
    {"synth:10000:3", 0xbe89a3d8264e9598ull, 0x2f33b6d8c8dbe36cull},
    {"synth:10000:4", 0xaa51b51bbee2f6beull, 0x6d0b27161ddeb55bull},
    {"synth:10000:5", 0xf8f226ae9f5ddd15ull, 0xaf32bae7bdc3daafull},
    {"synth:10000:6", 0x60df760c98e5eb30ull, 0x0ace8eeec16b5f77ull},
    {"synth:10000:7", 0xf2c9d5a6d760f789ull, 0x132d99f24d8fbcbbull},
    {"synth:10000:8", 0x41fd531793dadc3aull, 0xf1f9d3f3fbb2ddb3ull},
};

const Golden DiagnosticGoldens[] = {
    {"file:invalid/int_overflow.tc",
     0x1d1c226ca23a795dull,
     0x2912df2081323e06ull},
    {"file:invalid/no_main.tc", 0xfbd97f8923676ed3ull, 0x1150bbd9ddf9048eull},
    {"file:truncated.tc", 0x44a7a57c4ac45cd4ull, 0x162ffba5d7885853ull},
};

class ParsedIRGolden : public ::testing::TestWithParam<Golden> {};
class ParseDiagnosticsGolden : public ::testing::TestWithParam<Golden> {};

} // namespace

TEST_P(ParsedIRGolden, DigestIsPinned) {
  const Golden &G = GetParam();
  parser::ParseResult R = parser::parseModule(programSource(G.Program));
  ASSERT_TRUE(R.succeeded()) << G.Program << ": " << R.Errors.front();
  EXPECT_EQ(digest(render(*R.M)), hex(G.Digest)) << G.Program;
}

TEST_P(ParsedIRGolden, TokenStreamIsPinned) {
  const Golden &G = GetParam();
  EXPECT_EQ(digest(tokenStream(programSource(G.Program))), hex(G.Tokens))
      << G.Program;
}

INSTANTIATE_TEST_SUITE_P(Programs, ParsedIRGolden,
                         ::testing::ValuesIn(IRGoldens), rowName);

TEST_P(ParseDiagnosticsGolden, DigestIsPinned) {
  const Golden &G = GetParam();
  const std::string Diags = diagnostics(programSource(G.Program));
  ASSERT_FALSE(Diags.empty()) << G.Program;
  EXPECT_EQ(digest(Diags), hex(G.Digest)) << G.Program << ":\n" << Diags;
}

TEST_P(ParseDiagnosticsGolden, TokenStreamIsPinned) {
  const Golden &G = GetParam();
  EXPECT_EQ(digest(tokenStream(programSource(G.Program))), hex(G.Tokens))
      << G.Program;
}

INSTANTIATE_TEST_SUITE_P(Inputs, ParseDiagnosticsGolden,
                         ::testing::ValuesIn(DiagnosticGoldens), rowName);

TEST(ParserGoldenCoverage, EveryInputFileIsPinned) {
  std::set<std::string> Pinned;
  for (const Golden &G : IRGoldens)
    Pinned.insert(G.Program);
  for (const Golden &G : DiagnosticGoldens)
    Pinned.insert(G.Program);
  const std::filesystem::path Root(USHER_TEST_INPUT_DIR);
  for (const auto &E : std::filesystem::recursive_directory_iterator(Root)) {
    if (E.path().extension() != ".tc")
      continue;
    const std::string Rel =
        "file:" + std::filesystem::relative(E.path(), Root).generic_string();
    EXPECT_TRUE(Pinned.count(Rel)) << Rel << " has no golden row";
  }
}
