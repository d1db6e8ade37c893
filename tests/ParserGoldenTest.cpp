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
///    under tests/inputs that parses, and the printed text of generator
///    seeds 0-9): the printed IR, followed by every function, variable and
///    memory object with its id, in creation order;
///  - for every file under tests/inputs/invalid and every other .tc that
///    does not parse: the parse errors, or the verifier's errors when the
///    file parses.
///
/// One row per program. A final check walks tests/inputs and fails on a
/// .tc file that no row pins.
///
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "serve/SnapshotStore.h"
#include "support/RawStream.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"

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
/// a file under tests/inputs ("file:<relative path>") or the printed text
/// of a generated program ("gen:<seed>").
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

std::string digest(const std::string &S) {
  return hex(serve::SnapshotStore::hashBytes(S));
}

struct Golden {
  const char *Program;
  uint64_t Digest;
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
    {"suite:164.gzip", 0x8fe67bea13614057ull},
    {"suite:175.vpr", 0x13b5ca91115f6e88ull},
    {"suite:176.gcc", 0x3ae64b90055c21acull},
    {"suite:177.mesa", 0x1e12b2f33af0089aull},
    {"suite:179.art", 0x84b2ec60bf130041ull},
    {"suite:181.mcf", 0x0284f46846210707ull},
    {"suite:183.equake", 0x10443b8c5836889bull},
    {"suite:186.crafty", 0xd93132081e1c8836ull},
    {"suite:188.ammp", 0x7099a34638ddbd81ull},
    {"suite:197.parser", 0xb020052d19f3580full},
    {"suite:253.perlbmk", 0x59ce1e2ae6ed1d23ull},
    {"suite:254.gap", 0xfda631723753bd09ull},
    {"suite:255.vortex", 0x47029480864c01dbull},
    {"suite:256.bzip2", 0x3e27715c91d9e4a3ull},
    {"suite:300.twolf", 0xea0188b649fe3e20ull},
    {"file:clients/addrleak/clean_strong_update.tc", 0x1b0a7ff54f3a36c1ull},
    {"file:clients/addrleak/guarded_no_leak.tc", 0x933593349bfd87c5ull},
    {"file:clients/addrleak/leak_heap_to_global.tc", 0xc158b5b97e85e63dull},
    {"file:clients/bounds/clean_const_in_range.tc", 0xede7bfe7026861edull},
    {"file:clients/bounds/guarded_in_range.tc", 0xb59df949e3d7069full},
    {"file:clients/bounds/oob_const_index.tc", 0x68fa7222e8640a37ull},
    {"file:diagnosis/clean_strong_update.tc", 0x2a565a45f279cd69ull},
    {"file:diagnosis/definite.tc", 0x7491f5ee2797a28bull},
    {"file:diagnosis/may_guarded.tc", 0xbdaa1f03e8dceab9ull},
    {"file:fuzz/call_undef.tc", 0xc6c58760802e4671ull},
    {"file:fuzz/global_uninit.tc", 0xc2eaef1260d810a2ull},
    {"file:fuzz/opt2_dup.tc", 0x4c0c6d4bd4015366ull},
    {"file:fuzz/ptr_store_load.tc", 0x73ed9381ec53df9dull},
    {"file:fuzz/semi_strong_heap.tc", 0x9e6672a77bf34c80ull},
    {"file:fuzz/strong_update_clean.tc", 0xb372c0e8f4624a37ull},
    {"file:fuzz/walk_partial.tc", 0x58d9eb4aa55342e4ull},
    {"file:invalid/no_main.tc", 0x06a73e4ff421f3a0ull},
    {"file:query/undef_branch.tc", 0xce3f93a6e8773b4bull},
    {"file:smoke.tc", 0xe06172ac73f9dedaull},
    {"gen:0", 0x0ebb00706ceb4861ull},
    {"gen:1", 0x0c27a7dcef7911e9ull},
    {"gen:2", 0x35bd5bedec8cc764ull},
    {"gen:3", 0xb545edef20a35f12ull},
    {"gen:4", 0xe077d9cc7edac20bull},
    {"gen:5", 0x6f965b6db5400767ull},
    {"gen:6", 0x6ea245bd0a051768ull},
    {"gen:7", 0x9e03fff8b4ea9806ull},
    {"gen:8", 0xb5b6ced474fe052dull},
    {"gen:9", 0x83d06b8658dda684ull},
};

const Golden DiagnosticGoldens[] = {
    {"file:invalid/int_overflow.tc", 0x1d1c226ca23a795dull},
    {"file:invalid/no_main.tc", 0xfbd97f8923676ed3ull},
    {"file:truncated.tc", 0x44a7a57c4ac45cd4ull},
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

INSTANTIATE_TEST_SUITE_P(Programs, ParsedIRGolden,
                         ::testing::ValuesIn(IRGoldens), rowName);

TEST_P(ParseDiagnosticsGolden, DigestIsPinned) {
  const Golden &G = GetParam();
  const std::string Diags = diagnostics(programSource(G.Program));
  ASSERT_FALSE(Diags.empty()) << G.Program;
  EXPECT_EQ(digest(Diags), hex(G.Digest)) << G.Program << ":\n" << Diags;
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
