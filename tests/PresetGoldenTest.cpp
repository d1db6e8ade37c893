//===- tests/PresetGoldenTest.cpp - Pinned optimization preset output -----===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of what runPreset makes of a program, so a change to how
/// mem2reg, propagation, dead-code elimination, CFG simplification or the
/// inliner compute their result cannot move a byte of it. Per program and
/// per preset (O0+IM, O1, O2) the digest covers the printed module and
/// every function, variable and memory object with its id.
///
/// Programs: the 15 suite programs, every .tc under tests/inputs that
/// parses and verifies, generator seeds 0-199 in buckets of ten, and synthesized
/// programs of 2k, 10k and 40k target nodes. A final check walks
/// tests/inputs and fails on a valid .tc file that no row pins.
///
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "serve/SnapshotStore.h"
#include "support/RawStream.h"
#include "transforms/Transforms.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

using namespace usher;
using transforms::OptPreset;

namespace {

using ModuleFactory = std::function<std::unique_ptr<ir::Module>()>;

/// The modules one row covers: a suite program ("suite:<name>"), a file
/// under tests/inputs ("file:<relative path>"), ten consecutive generator
/// seeds ("gen:<first>-<last>") or a synthesized program
/// ("synth:<target nodes>").
std::vector<ModuleFactory> rowModules(const std::string &Row) {
  std::vector<ModuleFactory> Out;
  if (Row.rfind("suite:", 0) == 0) {
    for (const workload::BenchmarkProgram &B : workload::spec2000Suite())
      if (B.Name == Row.substr(6))
        Out.push_back([&B] { return workload::loadBenchmark(B); });
  } else if (Row.rfind("file:", 0) == 0) {
    const std::string Path =
        std::string(USHER_TEST_INPUT_DIR) + "/" + Row.substr(5);
    Out.push_back([Path] {
      std::string Source;
      EXPECT_TRUE(readFile(Path, Source)) << Path;
      return parser::parseModuleOrAbort(Source);
    });
  } else if (Row.rfind("gen:", 0) == 0) {
    const uint64_t First = std::stoull(Row.substr(4));
    for (uint64_t Seed = First; Seed != First + 10; ++Seed)
      Out.push_back([Seed] { return workload::generateProgram(Seed); });
  } else if (Row.rfind("synth:", 0) == 0) {
    const unsigned Target = std::stoul(Row.substr(6));
    Out.push_back([Target] {
      workload::ShapeSpec Spec;
      Spec.TargetNodes = Target;
      return parser::parseModuleOrAbort(workload::synthesizeProgram(Spec));
    });
  }
  EXPECT_FALSE(Out.empty()) << "no programs for row " << Row;
  return Out;
}

/// The printed IR of \p M and a listing of its entities with their ids.
void render(const ir::Module &M, raw_ostream &OS) {
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
}

/// "O0+IM=<digest> O1=<digest> O2=<digest>" for the modules of \p Row.
std::string presetDigests(const std::string &Row) {
  const std::vector<ModuleFactory> Modules = rowModules(Row);
  std::string Out;
  for (OptPreset P : {OptPreset::O0IM, OptPreset::O1, OptPreset::O2}) {
    std::string Buf;
    raw_string_ostream OS(Buf);
    for (const ModuleFactory &Make : Modules) {
      std::unique_ptr<ir::Module> M = Make();
      transforms::runPreset(*M, P);
      render(*M, OS);
      OS << "\n-- end\n";
    }
    OS.flush();
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "0x%016llx",
                  static_cast<unsigned long long>(
                      serve::SnapshotStore::hashBytes(Buf)));
    if (!Out.empty())
      Out += ' ';
    Out += std::string(transforms::optPresetName(P)) + "=" + Hex;
  }
  return Out;
}

struct Golden {
  const char *Row;
  const char *Digests;
};

void PrintTo(const Golden &G, std::ostream *OS) { *OS << G.Row; }

// Re-pin a row only with a deliberate change to a transform, the printer,
// the parser, the generator, the synthesizer or the program's text.
const Golden Goldens[] = {
    {"suite:164.gzip",
     "O0+IM=0xefc6f358c1c57036 O1=0xdad51f18c9f82d46 O2=0x5168e066d37dcede"},
    {"suite:175.vpr",
     "O0+IM=0xa84e8348a10ac761 O1=0xeee1cae76dc40596 O2=0xe8270638936ab42c"},
    {"suite:176.gcc",
     "O0+IM=0x7e3c972da0295f3d O1=0xb3820634bc79abe0 O2=0xcd658bdbe5898a64"},
    {"suite:177.mesa",
     "O0+IM=0xe2837c0447ca2097 O1=0xb0db023d7ad8828b O2=0x8ebc031e9b7a3293"},
    {"suite:179.art",
     "O0+IM=0xc0afe1795336c744 O1=0x5f20edc417b8fd39 O2=0x98adfd240453b107"},
    {"suite:181.mcf",
     "O0+IM=0xcbd29f330185e866 O1=0x37c03a87555555f2 O2=0xc50ff1becaf6c10c"},
    {"suite:183.equake",
     "O0+IM=0x70b83aa0f6319172 O1=0xf197b84cb2c84bba O2=0x01c0582a2c00be5a"},
    {"suite:186.crafty",
     "O0+IM=0x3e51e08016028feb O1=0xbb550e19e2ffbecd O2=0x9f4f35fb0ad9f90c"},
    {"suite:188.ammp",
     "O0+IM=0x69ed5556753b0b04 O1=0x7990a140fb7051ab O2=0x15ffa9d21dd38d56"},
    {"suite:197.parser",
     "O0+IM=0x6909bbb419febf5e O1=0xd5a6c74a39abbaa1 O2=0xfff60380ea0c00e3"},
    {"suite:253.perlbmk",
     "O0+IM=0x4367b91d48d3c74a O1=0x4e23e77f75be1db9 O2=0x4e23e77f75be1db9"},
    {"suite:254.gap",
     "O0+IM=0x283110705cd6fc3c O1=0x9d5d672e93c65a32 O2=0xc5acdd64e45489e4"},
    {"suite:255.vortex",
     "O0+IM=0xac58a34d29555432 O1=0xcca185989c099fed O2=0x4edb4ffd7c76f751"},
    {"suite:256.bzip2",
     "O0+IM=0x056b244603847eca O1=0x65c5799f61e3ab97 O2=0x6331d50f1b24f84d"},
    {"suite:300.twolf",
     "O0+IM=0xd388c050eee5fe49 O1=0x3cbe63f009e6b840 O2=0x4088d9d5995b1663"},
    {"file:clients/addrleak/clean_strong_update.tc",
     "O0+IM=0xcdb560881f85cdc4 O1=0xa921f2ca556d80d7 O2=0xa921f2ca556d80d7"},
    {"file:clients/addrleak/guarded_no_leak.tc",
     "O0+IM=0x5a62b4556bdb52a0 O1=0x889f0dfe59afc69a O2=0x889f0dfe59afc69a"},
    {"file:clients/addrleak/leak_heap_to_global.tc",
     "O0+IM=0x0bae699e18dc1a28 O1=0x0bae699e18dc1a28 O2=0x0bae699e18dc1a28"},
    {"file:clients/bounds/clean_const_in_range.tc",
     "O0+IM=0x079ed164caee6a58 O1=0x079ed164caee6a58 O2=0x079ed164caee6a58"},
    {"file:clients/bounds/guarded_in_range.tc",
     "O0+IM=0x2cd3dfc37d83946e O1=0x6ac9df055d329ee5 O2=0x563c9c0f832b6af7"},
    {"file:clients/bounds/oob_const_index.tc",
     "O0+IM=0x05c5e9d9bfe79b96 O1=0x7d9be08377b82550 O2=0x7d9be08377b82550"},
    {"file:diagnosis/clean_strong_update.tc",
     "O0+IM=0xabc50bb195f3cf02 O1=0x1007f1af15bd4d96 O2=0x1007f1af15bd4d96"},
    {"file:diagnosis/definite.tc",
     "O0+IM=0x8f49834ec69bf557 O1=0x6499f506cf723130 O2=0x6499f506cf723130"},
    {"file:diagnosis/may_guarded.tc",
     "O0+IM=0xd0f4b0fc4a5e3eac O1=0xe2e2028af6babe0b O2=0xee60aabbce9ff36c"},
    {"file:fuzz/call_undef.tc",
     "O0+IM=0x56f00104a13921f4 O1=0x004ae2a99fc5da44 O2=0x0d89514304debab8"},
    {"file:fuzz/global_uninit.tc",
     "O0+IM=0x2b0270aa5603376f O1=0x2b0270aa5603376f O2=0x2b0270aa5603376f"},
    {"file:fuzz/opt2_dup.tc",
     "O0+IM=0xd9d070b10570d15b O1=0xefd4d62fa62e1031 O2=0xefd4d62fa62e1031"},
    {"file:fuzz/ptr_store_load.tc",
     "O0+IM=0x4285acc32281ca08 O1=0x4285acc32281ca08 O2=0x4285acc32281ca08"},
    {"file:fuzz/semi_strong_heap.tc",
     "O0+IM=0x1c9a16024fa26729 O1=0x1c9a16024fa26729 O2=0x167a9f5c63d079bf"},
    {"file:fuzz/strong_update_clean.tc",
     "O0+IM=0x51fd20e7bbb1ed87 O1=0x515e407f42120532 O2=0x515e407f42120532"},
    {"file:fuzz/walk_partial.tc",
     "O0+IM=0x8a2c4af5911df6e5 O1=0x9c3d66d24cce640c O2=0x9c3d66d24cce640c"},
    {"file:query/undef_branch.tc",
     "O0+IM=0x23d8634a69655ca3 O1=0x377b7343d6b4879a O2=0x377b7343d6b4879a"},
    {"file:smoke.tc",
     "O0+IM=0xf4862c57a52a9d57 O1=0xbf0fbeaa9e5e2bbb O2=0xbf0fbeaa9e5e2bbb"},
    {"gen:0-9",
     "O0+IM=0xa0d710bbf5197d17 O1=0xd47db8e507deeb58 O2=0xa220c92f2163d2f4"},
    {"gen:10-19",
     "O0+IM=0x9139377c329fcdd1 O1=0x3c57369069a9d0ed O2=0x12220cc45592fbeb"},
    {"gen:20-29",
     "O0+IM=0xc749b4f0e601967d O1=0x630f61826bab4e72 O2=0x5577f3fecd5cb44d"},
    {"gen:30-39",
     "O0+IM=0x725718aba7b39aea O1=0x17f6017ab7e0d7c4 O2=0x183861308b6e0b89"},
    {"gen:40-49",
     "O0+IM=0xa6e309d38f6a9690 O1=0xd1bd45fb63f4448f O2=0x0490ba39bb6ff886"},
    {"gen:50-59",
     "O0+IM=0x1c90ce0f0a7aee94 O1=0xfcd2ce1f7d73dbe0 O2=0xe8aa180481de03f8"},
    {"gen:60-69",
     "O0+IM=0x9a95588787b0fac3 O1=0x9a45ae5144823fea O2=0xcd2255e7d6fa8787"},
    {"gen:70-79",
     "O0+IM=0x597fd00f831846d8 O1=0xb80ef09c82aeae91 O2=0xb0d5905cc485714f"},
    {"gen:80-89",
     "O0+IM=0x689398b4aee1844f O1=0x907f2d08e1c1824a O2=0xb90a34538fdb2193"},
    {"gen:90-99",
     "O0+IM=0x5a46f293d54ed76d O1=0xdc6d92ba55e73a14 O2=0x31a3b467767617ce"},
    {"gen:100-109",
     "O0+IM=0x202fc3bafa1c5232 O1=0x2af934c3928fec12 O2=0xa7ec1dd5f8e17432"},
    {"gen:110-119",
     "O0+IM=0x057033a311f4c383 O1=0x118b92b9ad4b84d3 O2=0xd14f8f4fc42af1c5"},
    {"gen:120-129",
     "O0+IM=0xab31dc4c471e1111 O1=0x78c8a8ccccf69775 O2=0xc5423834aeab8ccd"},
    {"gen:130-139",
     "O0+IM=0x1cb5bad34ba1a12c O1=0x208d59d8f19e0ebe O2=0x4f97976a13d175b3"},
    {"gen:140-149",
     "O0+IM=0x5ffce247a81f19ff O1=0x85f4aad58574e3cb O2=0x95146e81c2b03985"},
    {"gen:150-159",
     "O0+IM=0x46ba6c764c4be586 O1=0x05f7592c2c877683 O2=0x085ca8ae3c7ec965"},
    {"gen:160-169",
     "O0+IM=0x49d356047e548aeb O1=0x44851b48ad901389 O2=0x802e9b7e7ae0334b"},
    {"gen:170-179",
     "O0+IM=0x4d0860077cb444c6 O1=0x09ca72535571c259 O2=0xa4ef74df43cf75b2"},
    {"gen:180-189",
     "O0+IM=0x197fddbe65e9cf5d O1=0x5a83bcc5a9a0e912 O2=0xfa9916284df8a7d9"},
    {"gen:190-199",
     "O0+IM=0x8ee7202971165717 O1=0x3fc77563149373ca O2=0x435f078a3c73bab7"},
    {"synth:2000",
     "O0+IM=0x71e95100cf462e27 O1=0x3b713b055ae975e3 O2=0x097852a7f9d5157b"},
    {"synth:10000",
     "O0+IM=0x64e56dcc037cf83d O1=0xc7cefb3e6f7647be O2=0xe4e1368369bb93e0"},
    {"synth:40000",
     "O0+IM=0x8fd1abc9b9e9ea48 O1=0xc60a45b89afd4f16 O2=0x1badf3366241f760"},
};

class PresetGoldenTest : public ::testing::TestWithParam<Golden> {};

} // namespace

TEST_P(PresetGoldenTest, DigestsArePinned) {
  const Golden &G = GetParam();
  EXPECT_EQ(presetDigests(G.Row), G.Digests) << G.Row;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, PresetGoldenTest, ::testing::ValuesIn(Goldens),
    [](const ::testing::TestParamInfo<Golden> &I) {
      std::string Name;
      for (const char *C = I.param.Row; *C; ++C)
        Name += std::isalnum(static_cast<unsigned char>(*C)) ? *C : '_';
      return Name;
    });

TEST(PresetGoldenCoverage, EveryValidInputFileIsPinned) {
  std::set<std::string> Pinned;
  for (const Golden &G : Goldens)
    Pinned.insert(G.Row);
  const std::filesystem::path Root(USHER_TEST_INPUT_DIR);
  for (const auto &E : std::filesystem::recursive_directory_iterator(Root)) {
    if (E.path().extension() != ".tc")
      continue;
    std::string Source;
    ASSERT_TRUE(readFile(E.path().string(), Source)) << E.path();
    parser::ParseResult R = parser::parseModule(Source);
    std::vector<std::string> Errors;
    if (!R.succeeded() || !ir::verifyModule(*R.M, Errors))
      continue;
    const std::string Rel =
        "file:" + std::filesystem::relative(E.path(), Root).generic_string();
    EXPECT_TRUE(Pinned.count(Rel)) << Rel << " has no golden row";
  }
}
