//===- tests/VFGPruningTest.cpp - Invariants of the pruned VFG -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VFG builds nodes only for live memory SSA versions. On the suite
/// programs, the fuzz corpus, generator seeds 0-9 and a 10k-node
/// synthesized program, the full pipeline's graph must satisfy:
///
///  - no dead version survives: every memory node has a dependency path
///    to a top-level node;
///  - the counters add up: nodes + pruned versions = 2 roots + top-level
///    nodes + memory SSA versions, and the versions memory SSA placed are
///    the ones its functions report: those the builder referenced plus at
///    most one unreferenced version 0 per kept location;
///  - the flavor counters count every store chi in reachable code, pruned
///    or not, exactly once, and a live chi's node names its flavor;
///  - every node's defining statement and origin agree with memory SSA's
///    defOf, and every reachable statement's useNode() names the node of
///    the version memory SSA says it reads.
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
#include "support/RawStream.h"
#include "transforms/Transforms.h"
#include "vfg/VFG.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

using namespace usher;
using ssa::DefDesc;
using ssa::Space;
using vfg::NodeOrigin;
using vfg::VFG;

namespace {

/// Programs are named "suite:<index>", "fuzz:<stem>", "gen:<seed>" or
/// "synth:<target nodes>".
std::unique_ptr<ir::Module> loadProgram(const std::string &Name) {
  std::string Kind = Name.substr(0, Name.find(':'));
  std::string Arg = Name.substr(Kind.size() + 1);
  if (Kind == "suite") {
    auto M =
        workload::loadBenchmark(workload::spec2000Suite()[std::stoul(Arg)]);
    transforms::runPreset(*M, transforms::OptPreset::O0IM);
    return M;
  }
  if (Kind == "gen")
    return workload::generateProgram(std::stoull(Arg));
  if (Kind == "synth") {
    workload::ShapeSpec Spec;
    Spec.TargetNodes = std::stoul(Arg);
    return parser::parseModuleOrAbort(workload::synthesizeProgram(Spec));
  }
  std::string Source;
  EXPECT_TRUE(readFile(std::string(USHER_TEST_INPUT_DIR) + "/fuzz/" + Arg +
                           ".tc",
                       Source))
      << Name;
  return parser::parseModuleOrAbort(Source);
}

std::vector<std::string> programNames() {
  std::vector<std::string> Names;
  for (size_t I = 0; I != workload::spec2000Suite().size(); ++I)
    Names.push_back("suite:" + std::to_string(I));
  std::vector<std::string> Stems;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(USHER_TEST_INPUT_DIR) + "/fuzz"))
    if (Entry.path().extension() == ".tc")
      Stems.push_back(Entry.path().stem().string());
  std::sort(Stems.begin(), Stems.end());
  for (const std::string &Stem : Stems)
    Names.push_back("fuzz:" + Stem);
  for (unsigned Seed = 0; Seed != 10; ++Seed)
    Names.push_back("gen:" + std::to_string(Seed));
  Names.push_back("synth:10000");
  return Names;
}

class PrunedVFG : public ::testing::TestWithParam<std::string> {};

TEST_P(PrunedVFG, InvariantsHold) {
  auto M = loadProgram(GetParam());
  core::UsherOptions Opts;
  core::UsherResult R = core::runUsher(*M, Opts);
  ASSERT_TRUE(R.G && R.SSA);
  const VFG &G = *R.G;
  const uint32_t N = G.numNodes();

  // Walk the dependency edges from every top-level node.
  std::vector<char> Reached(N, 0);
  std::vector<uint32_t> Work;
  uint64_t TopLevel = 0;
  for (uint32_t Id = 0; Id != N; ++Id) {
    if (G.isRoot(Id) || G.node(Id).Key.Sp != Space::TopLevel)
      continue;
    ++TopLevel;
    Reached[Id] = 1;
    Work.push_back(Id);
  }
  while (!Work.empty()) {
    uint32_t Id = Work.back();
    Work.pop_back();
    for (const vfg::Edge &E : G.deps(Id))
      if (!Reached[E.Node]) {
        Reached[E.Node] = 1;
        Work.push_back(E.Node);
      }
  }
  for (uint32_t Id = 2; Id != N; ++Id)
    EXPECT_TRUE(Reached[Id]) << "memory node " << Id
                             << " reaches no top-level node";

  EXPECT_EQ(R.Stats.NumVFGNodes, N);
  EXPECT_EQ(R.Stats.NumVFGNodes + R.Stats.NumPrunedMemVersions,
            2 + TopLevel + R.Stats.NumMemSSAVersions);
  EXPECT_LE(R.Stats.NumPrunedMemVersions, R.Stats.NumMemSSAVersions);

  // What memory SSA places is exactly the versions its functions report.
  // The counted versions are the placed ones the builder referenced plus
  // the dropped ones, and a placed version nothing references is some
  // kept location's version 0.
  uint64_t PlacedInFunctions = 0, KeptLocations = 0;
  for (const auto &F : M->functions()) {
    const ssa::FunctionSSA &FS = R.SSA->get(F.get());
    KeptLocations += FS.formalIns().size();
    for (uint32_t Loc : FS.formalIns())
      PlacedInFunctions += FS.numVersions({Space::Memory, Loc});
  }
  const uint64_t Placed = R.Stats.NumPlacedMemVersions;
  EXPECT_EQ(Placed, PlacedInFunctions);
  const uint64_t Referenced =
      R.Stats.NumMemSSAVersions - R.SSA->numDroppedVersions();
  EXPECT_LE(R.SSA->numDroppedVersions(), R.Stats.NumMemSSAVersions);
  EXPECT_LE(Referenced, Placed);
  EXPECT_LE(Placed, Referenced + KeptLocations);

  // Each node's defining statement and origin agree with memory SSA.
  // Live store chis are counted by the flavor their origin names.
  uint64_t LiveStrong = 0, LiveSemi = 0, LiveWeak = 0;
  std::map<std::tuple<const ir::Function *, uint32_t, uint32_t>, uint32_t>
      TopLevelNodes;
  for (uint32_t Id = 2; Id != N; ++Id) {
    const VFG::NodeData &Node = G.node(Id);
    const NodeOrigin O = G.origin(Id);
    const DefDesc &Desc = R.SSA->get(Node.Fn).defOf(Node.Key, Node.Version);
    if (Node.Key.Sp == Space::TopLevel)
      TopLevelNodes[{Node.Fn, Node.Key.Id, Node.Version}] = Id;
    switch (Desc.K) {
    case DefDesc::Kind::Entry:
      EXPECT_EQ(Node.Version, 0u) << "node " << Id;
      EXPECT_EQ(Node.Def, nullptr) << "entry node " << Id;
      EXPECT_TRUE(O == NodeOrigin::EntryDef || O == NodeOrigin::FormalParam ||
                  O == NodeOrigin::FormalIn || O == NodeOrigin::Unknown)
          << "entry node " << Id << " has origin " << vfg::nodeOriginName(O);
      break;
    case DefDesc::Kind::Phi:
      EXPECT_NE(Node.Version, 0u) << "node " << Id;
      EXPECT_EQ(O, NodeOrigin::Phi) << "node " << Id;
      EXPECT_EQ(Node.Def, nullptr) << "phi node " << Id;
      break;
    case DefDesc::Kind::Inst:
      EXPECT_NE(Node.Version, 0u) << "node " << Id;
      EXPECT_EQ(Node.Def, Desc.I) << "node " << Id;
      EXPECT_TRUE(O != NodeOrigin::Unknown && O != NodeOrigin::Phi &&
                  O != NodeOrigin::EntryDef)
          << "statement-defined node " << Id << " has origin "
          << vfg::nodeOriginName(O);
      LiveStrong += O == NodeOrigin::StoreChiStrong;
      LiveSemi += O == NodeOrigin::StoreChiSemi;
      LiveWeak += O == NodeOrigin::StoreChiWeak;
      if (O == NodeOrigin::StoreChiStrong || O == NodeOrigin::StoreChiSemi ||
          O == NodeOrigin::StoreChiWeak) {
        EXPECT_TRUE(isa<ir::StoreInst>(Node.Def)) << "node " << Id;
      }
      break;
    }
  }

  // The flavor counters count every reachable store chi once, pruned or
  // not; the live ones are among them. Every reachable statement reads,
  // per top-level variable, the node of the version memory SSA records.
  uint64_t ReachableStoreChis = 0;
  for (const auto &F : M->functions()) {
    const ssa::FunctionSSA &FS = R.SSA->get(F.get());
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->instructions()) {
        const ssa::InstSSA *Info = FS.instInfo(I.get());
        EXPECT_EQ(G.reachable(I.get()), Info != nullptr);
        if (!Info) {
          std::vector<ir::Variable *> Used;
          I->collectUsedVars(Used);
          for (const ir::Variable *V : Used)
            EXPECT_EQ(G.useNode(I.get(), V), ~0u);
          continue;
        }
        if (isa<ir::StoreInst>(I.get()))
          ReachableStoreChis += Info->Chis.size();
        for (const ssa::TLUse &Use : Info->TLUses) {
          auto It =
              TopLevelNodes.find({F.get(), Use.Var->getId(), Use.Version});
          EXPECT_EQ(G.useNode(I.get(), Use.Var),
                    It == TopLevelNodes.end() ? ~0u : It->second)
              << Use.Var->getName() << " at instruction " << I->getId();
        }
      }
    }
  }
  EXPECT_EQ(G.numStrongStoreChis() + G.numSemiStrongStoreChis() +
                G.numWeakStoreChis(),
            ReachableStoreChis);
  EXPECT_LE(LiveStrong, G.numStrongStoreChis());
  EXPECT_LE(LiveSemi, G.numSemiStrongStoreChis());
  EXPECT_LE(LiveWeak, G.numWeakStoreChis());
}

INSTANTIATE_TEST_SUITE_P(
    Programs, PrunedVFG, ::testing::ValuesIn(programNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      if (Name.rfind("suite:", 0) == 0)
        Name = workload::spec2000Suite()[std::stoul(Name.substr(6))].Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
