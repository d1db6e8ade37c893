//===- tests/SSAVFGTest.cpp - Memory SSA and VFG unit tests ----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
#include "transforms/Transforms.h"
#include "vfg/VFG.h"
#include "workload/Generator.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace usher;
using namespace usher::ssa;
using vfg::NodeOrigin;
using vfg::VFG;
using vfg::VFGBuilder;

namespace {

/// Bundles the analyses the SSA/VFG tests need.
struct Pipeline {
  std::unique_ptr<ir::Module> M;
  std::unique_ptr<analysis::CallGraph> CG;
  std::unique_ptr<analysis::PointerAnalysis> PA;
  std::unique_ptr<analysis::ModRefAnalysis> MR;
  std::unique_ptr<MemorySSA> SSA;

  explicit Pipeline(const char *Src)
      : Pipeline(parser::parseModuleOrAbort(Src)) {}

  explicit Pipeline(std::unique_ptr<ir::Module> Mod) : M(std::move(Mod)) {
    CG = std::make_unique<analysis::CallGraph>(*M);
    PA = std::make_unique<analysis::PointerAnalysis>(*M, *CG);
    MR = std::make_unique<analysis::ModRefAnalysis>(*M, *CG, *PA);
    SSA = std::make_unique<MemorySSA>(*M, *PA, *MR);
  }

  VFG buildVFG(vfg::VFGOptions Opts = vfg::VFGOptions()) {
    return VFGBuilder(*M, *SSA, *PA, *CG, Opts).build();
  }

  const ir::Instruction *instAt(const char *Fn, unsigned Block,
                                unsigned Idx) const {
    return M->findFunction(Fn)
        ->blocks()[Block]
        ->instructions()[Idx]
        .get();
  }
};

/// Origin of the node of the chi for \p Loc at statement \p Def, or
/// Unknown if that chi got no node.
NodeOrigin chiOrigin(const VFG &G, const ir::Instruction *Def, uint32_t Loc) {
  for (uint32_t Id = 2; Id != G.numNodes(); ++Id) {
    const VFG::NodeData &N = G.node(Id);
    if (N.Def == Def && N.Key.Sp == Space::Memory && N.Key.Id == Loc)
      return G.origin(Id);
  }
  return NodeOrigin::Unknown;
}

//===----------------------------------------------------------------------===//
// Memory SSA
//===----------------------------------------------------------------------===//

TEST(MemorySSATest, MuAndChiPlacement) {
  Pipeline P(R"(
    func main() {
      p = alloc stack 1 uninit;
      *p = 1;
      x = *p;
      ret x;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  const auto &Insts = Main->getEntry()->instructions();

  // Alloc has a chi for the (single) field.
  const InstSSA *AllocInfo = FS.instInfo(Insts[0].get());
  ASSERT_NE(AllocInfo, nullptr);
  ASSERT_EQ(AllocInfo->Chis.size(), 1u);
  EXPECT_EQ(AllocInfo->Chis[0].Kind, ChiKind::Alloc);

  // Store: one chi, with the alloc's version as its old version.
  const InstSSA *StoreInfo = FS.instInfo(Insts[1].get());
  ASSERT_EQ(StoreInfo->Chis.size(), 1u);
  EXPECT_EQ(StoreInfo->Chis[0].Kind, ChiKind::Store);
  EXPECT_EQ(StoreInfo->Chis[0].OldVersion, AllocInfo->Chis[0].NewVersion);

  // Load: one mu reading the store's version.
  const InstSSA *LoadInfo = FS.instInfo(Insts[2].get());
  ASSERT_EQ(LoadInfo->Mus.size(), 1u);
  EXPECT_EQ(LoadInfo->Mus[0].Version, StoreInfo->Chis[0].NewVersion);
}

TEST(MemorySSATest, PhisMergeMemoryVersionsAtJoins) {
  Pipeline P(R"(
    global g[1] uninit;
    func main() {
      p = g;
      c = 1;
      if c goto wr;
      goto join;
    wr:
      *p = 7;
      goto join;
    join:
      x = *p;
      ret x;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  const ir::BasicBlock *Join = nullptr;
  for (const auto &BB : Main->blocks())
    if (BB->getName() == "join")
      Join = BB.get();
  ASSERT_NE(Join, nullptr);

  bool SawMemoryPhi = false;
  for (const PhiNode &Phi : FS.phisIn(Join)) {
    if (Phi.Var.Sp != Space::Memory)
      continue;
    SawMemoryPhi = true;
    EXPECT_EQ(Phi.Incoming.size(), 2u);
  }
  EXPECT_TRUE(SawMemoryPhi);
}

TEST(MemorySSATest, CallsCarryCalleeEffects) {
  Pipeline P(R"(
    global g[1] init;
    func bump() {
      p = g;
      v = *p;
      v = v + 1;
      *p = v;
      ret;
    }
    func main() {
      bump();
      ret 0;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  const ir::Instruction *Call = Main->getEntry()->instructions()[0].get();
  const InstSSA *Info = FS.instInfo(Call);
  uint32_t GLoc = P.PA->locId(P.M->findGlobal("g"), 0);

  bool MuOnG = false, ChiOnG = false;
  for (const MemUse &Mu : Info->Mus)
    MuOnG |= Mu.Loc == GLoc;
  for (const MemDef &Chi : Info->Chis)
    ChiOnG |= Chi.Loc == GLoc && Chi.Kind == ChiKind::CallMod;
  EXPECT_TRUE(MuOnG) << "call must read g for the callee";
  EXPECT_TRUE(ChiOnG) << "call must def g for the callee's store";

  // The callee lists g as both virtual input and output parameter.
  const FunctionSSA &BumpSSA = P.SSA->get(P.M->findFunction("bump"));
  EXPECT_EQ(std::count(BumpSSA.formalIns().begin(),
                       BumpSSA.formalIns().end(), GLoc),
            1);
  EXPECT_EQ(std::count(BumpSSA.formalOuts().begin(),
                       BumpSSA.formalOuts().end(), GLoc),
            1);
}

TEST(MemorySSATest, TopLevelVersionsCountDefs) {
  Pipeline P(R"(
    func main() {
      x = 1;
      x = 2;
      x = 3;
      ret x;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  uint32_t XId = Main->findVariable("x")->getId();
  // Version 0 (entry) plus three defs.
  EXPECT_EQ(FS.numVersions({Space::TopLevel, XId}), 4u);
  const ir::Instruction *Ret = Main->getEntry()->instructions()[3].get();
  EXPECT_EQ(FS.instInfo(Ret)->TLUses[0].Version, 3u);
}

/// Node of version \p Version of \p Loc in \p Fn, or ~0u.
uint32_t memNode(const VFG &G, const ir::Function *Fn, uint32_t Loc,
                 uint32_t Version) {
  for (uint32_t Id = 2; Id != G.numNodes(); ++Id) {
    const VFG::NodeData &N = G.node(Id);
    if (N.Fn == Fn && N.Key.Sp == Space::Memory && N.Key.Id == Loc &&
        N.Version == Version)
      return Id;
  }
  return ~0u;
}

TEST(MemorySSATest, UnreadLocationIsCountedNotPlaced) {
  // main never reads g: its call gets no chi for set's store, its join no
  // phi and main no virtual parameter for g. The unpruned count still
  // holds main's three versions (entry, call chi, join phi) and set's two.
  Pipeline P(R"(
    global g[1] uninit;
    func set() {
      p = g;
      *p = 1;
      ret;
    }
    func main() {
      c = 1;
      if c goto doit;
      goto join;
    doit:
      set();
      goto join;
    join:
      ret 0;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  uint32_t GLoc = P.PA->locId(P.M->findGlobal("g"), 0);
  EXPECT_TRUE(FS.formalIns().empty());
  EXPECT_TRUE(FS.formalOuts().empty());
  EXPECT_EQ(FS.numVersions({Space::Memory, GLoc}), 0u);
  for (const auto &BB : Main->blocks()) {
    EXPECT_TRUE(FS.phisIn(BB.get()).empty()) << BB->getName();
    for (const auto &I : BB->instructions()) {
      const InstSSA *Info = FS.instInfo(I.get());
      ASSERT_NE(Info, nullptr);
      EXPECT_TRUE(Info->Mus.empty() && Info->Chis.empty());
    }
  }
  const FunctionSSA &SetSSA = P.SSA->get(P.M->findFunction("set"));
  EXPECT_EQ(SetSSA.numVersions({Space::Memory, GLoc}), 2u);
  EXPECT_TRUE(SetSSA.passedByCaller(0));

  EXPECT_EQ(P.SSA->numPlacedVersions(), 2u);
  EXPECT_EQ(P.SSA->numDroppedVersions(), 3u);
  VFG G = P.buildVFG();
  EXPECT_EQ(G.numMemSSAVersions(), 5u);
  EXPECT_EQ(G.numPrunedMemVersions(), 5u);
}

TEST(MemorySSATest, CallerThatNeverReadsStillFeedsLiveFormalIn) {
  // upd updates g weakly, so its entry version of g flows to its return,
  // which a reads after its call. b never reads g, nor does main, its
  // only caller (a is called from nowhere), yet b's version of g at its
  // call feeds upd's formal-in and so must be placed.
  Pipeline P(R"(
    global g[1] uninit;
    global h[1] uninit;
    func upd(c) {
      p = g;
      if c goto other;
      goto st;
    other:
      p = h;
      goto st;
    st:
      *p = 1;
      ret;
    }
    func a() {
      upd(1);
      p = g;
      x = *p;
      ret x;
    }
    func b() {
      upd(0);
      ret 0;
    }
    func main() {
      b();
      ret 0;
    }
  )");
  const ir::Function *Upd = P.M->findFunction("upd");
  const ir::Function *B = P.M->findFunction("b");
  uint32_t GLoc = P.PA->locId(P.M->findGlobal("g"), 0);
  const FunctionSSA &BSSA = P.SSA->get(B);
  EXPECT_EQ(std::count(BSSA.formalIns().begin(), BSSA.formalIns().end(),
                       GLoc),
            1);

  VFG G = P.buildVFG();
  uint32_t FormalIn = memNode(G, Upd, GLoc, 0);
  ASSERT_NE(FormalIn, ~0u);
  EXPECT_EQ(G.origin(FormalIn), NodeOrigin::FormalIn);
  const uint32_t BCall = P.instAt("b", 0, 0)->getId();
  bool FromB = false;
  for (const vfg::Edge &E : G.deps(FormalIn))
    FromB |= E.Kind == vfg::EdgeKind::Call && E.CallSite == BCall &&
             G.node(E.Node).Fn == B;
  EXPECT_TRUE(FromB) << "b's version of g must feed upd's formal-in";
}

TEST(MemorySSATest, PassThroughCalleeVersionsWhatItsCallerReads) {
  // leaf stores g strongly; mid only calls leaf; main reads g after
  // calling mid. mid must version g so that main's mod chi gets its
  // return edge, and mid's own mod chi the one from leaf's store.
  Pipeline P(R"(
    global g[1] uninit;
    func leaf() {
      p = g;
      *p = 1;
      ret;
    }
    func mid() {
      leaf();
      ret;
    }
    func main() {
      mid();
      p = g;
      x = *p;
      ret x;
    }
  )");
  uint32_t GLoc = P.PA->locId(P.M->findGlobal("g"), 0);
  VFG G = P.buildVFG();
  auto RetDepOrigin = [&](const ir::Instruction *Call) {
    for (uint32_t Id = 2; Id != G.numNodes(); ++Id) {
      const VFG::NodeData &N = G.node(Id);
      if (N.Def != Call || N.Key.Sp != Space::Memory || N.Key.Id != GLoc)
        continue;
      EXPECT_EQ(G.origin(Id), NodeOrigin::CallModChi);
      for (const vfg::Edge &E : G.deps(Id))
        if (E.Kind == vfg::EdgeKind::Ret && E.CallSite == Call->getId())
          return G.origin(E.Node);
    }
    return NodeOrigin::Unknown;
  };
  EXPECT_EQ(RetDepOrigin(P.instAt("main", 0, 0)), NodeOrigin::CallModChi);
  EXPECT_EQ(RetDepOrigin(P.instAt("mid", 0, 0)), NodeOrigin::StoreChiStrong);
}

//===----------------------------------------------------------------------===//
// Memory SSA layout contract
//===----------------------------------------------------------------------===//

/// Checks the layout memory SSA promises on every function of \p P:
///  - every instruction's mus and chis are sorted by location, with no
///    location twice (the VFG builder merges them with formalIns());
///  - each phi has one operand per CFG edge from a reachable block;
///  - each kept key has 1 + defs + phis versions;
///  - every version defined by a phi or an instruction points back at the
///    phi or def that defines exactly that version, and its dense number
///    reads the same definition.
void checkLayout(const Pipeline &P) {
  for (const auto &F : P.M->functions()) {
    const FunctionSSA &FS = P.SSA->get(F.get());
    const analysis::CFGInfo &CFG = FS.getCFG();
    auto KeyIndex = [&](VarKey Key) -> size_t {
      if (Key.Sp == Space::TopLevel)
        return Key.Id;
      const auto &Ins = FS.formalIns();
      return F->variables().size() +
             (std::lower_bound(Ins.begin(), Ins.end(), Key.Id) - Ins.begin());
    };
    const size_t NumKeys = F->variables().size() + FS.formalIns().size();
    std::vector<uint32_t> Defs(NumKeys, 0);
    for (const auto &BB : F->blocks()) {
      uint32_t ReachablePreds = 0;
      for (const ir::BasicBlock *Pred : CFG.predecessors(BB->getId()))
        ReachablePreds += CFG.isReachable(Pred->getId());
      for (const PhiNode &Phi : FS.phisIn(BB.get())) {
        EXPECT_EQ(Phi.Incoming.size(), ReachablePreds)
            << F->getName() << ':' << BB->getName();
        ++Defs[KeyIndex(Phi.Var)];
      }
      for (const auto &I : BB->instructions()) {
        const InstSSA *Info = FS.instInfo(I.get());
        if (!Info)
          continue;
        auto Sorted = [](auto List) {
          for (size_t Idx = 1; Idx < List.size(); ++Idx)
            if (List[Idx - 1].Loc >= List[Idx].Loc)
              return false;
          return true;
        };
        EXPECT_TRUE(Sorted(Info->Mus)) << "mus at instruction " << I->getId();
        EXPECT_TRUE(Sorted(Info->Chis))
            << "chis at instruction " << I->getId();
        if (I->getDef())
          ++Defs[I->getDef()->getId()];
        for (const MemDef &Chi : Info->Chis)
          ++Defs[KeyIndex({Space::Memory, Chi.Loc})];
      }
    }

    auto CheckKey = [&](VarKey Key, size_t Idx) {
      const uint32_t N = FS.numVersions(Key);
      EXPECT_EQ(N, 1 + Defs[Idx]) << F->getName() << " key " << Idx;
      for (uint32_t V = 0; V != N; ++V) {
        const DefDesc &Desc = FS.defOf(Key, V);
        if (Key.Sp == Space::Memory) {
          const size_t Pos = Idx - F->variables().size();
          EXPECT_EQ(&FS.memDefOf(FS.memNumber(Pos) + V), &Desc);
        }
        switch (Desc.K) {
        case DefDesc::Kind::Entry:
          EXPECT_EQ(V, 0u);
          break;
        case DefDesc::Kind::Phi: {
          const PhiNode &Phi = FS.phisIn(Desc.PhiBlock)[Desc.Idx];
          EXPECT_TRUE(Phi.Var == Key);
          EXPECT_EQ(Phi.ResultVersion, V);
          break;
        }
        case DefDesc::Kind::Inst: {
          const InstSSA *Info = FS.instInfo(Desc.I);
          ASSERT_NE(Info, nullptr);
          if (Key.Sp == Space::TopLevel) {
            ASSERT_NE(Desc.I->getDef(), nullptr);
            EXPECT_EQ(Desc.I->getDef()->getId(), Key.Id);
            EXPECT_EQ(Info->TLDefVersion, V);
          } else {
            ASSERT_LT(Desc.Idx, Info->Chis.size());
            EXPECT_EQ(Info->Chis[Desc.Idx].Loc, Key.Id);
            EXPECT_EQ(Info->Chis[Desc.Idx].NewVersion, V);
          }
          break;
        }
        }
      }
    };
    for (const auto &V : F->variables())
      CheckKey({Space::TopLevel, V->getId()}, V->getId());
    for (size_t Pos = 0; Pos != FS.formalIns().size(); ++Pos)
      CheckKey({Space::Memory, FS.formalIns()[Pos]},
               F->variables().size() + Pos);
  }
}

const transforms::OptPreset LayoutPresets[] = {transforms::OptPreset::O0IM,
                                               transforms::OptPreset::O1};

TEST(MemorySSALayout, GeneratorSeedsKeepTheContract) {
  for (uint64_t Seed = 0; Seed != 50; ++Seed)
    for (transforms::OptPreset Preset : LayoutPresets) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + " " +
                   transforms::optPresetName(Preset));
      auto M = workload::generateProgram(Seed);
      transforms::runPreset(*M, Preset);
      checkLayout(Pipeline(std::move(M)));
    }
}

TEST(MemorySSALayout, SynthesizedProgramKeepsTheContract) {
  workload::ShapeSpec Spec;
  Spec.TargetNodes = 2000;
  for (transforms::OptPreset Preset : LayoutPresets) {
    SCOPED_TRACE(transforms::optPresetName(Preset));
    auto M = parser::parseModuleOrAbort(workload::synthesizeProgram(Spec));
    transforms::runPreset(*M, Preset);
    checkLayout(Pipeline(std::move(M)));
  }
}

//===----------------------------------------------------------------------===//
// VFG construction
//===----------------------------------------------------------------------===//

TEST(VFGTest, StrongUpdateOnGlobalScalar) {
  Pipeline P(R"(
    global g[1] uninit;
    func main() {
      p = g;
      *p = 1;
      x = *p;
      ret x;
    }
  )");
  VFG G = P.buildVFG();
  const ir::Instruction *Store = P.instAt("main", 0, 1);
  uint32_t GLoc = P.PA->locId(P.M->findGlobal("g"), 0);
  EXPECT_EQ(chiOrigin(G, Store, GLoc), NodeOrigin::StoreChiStrong);
  EXPECT_EQ(G.numStrongStoreChis(), 1u);
}

TEST(VFGTest, WeakUpdateOnArray) {
  Pipeline P(R"(
    func main() {
      p = alloc heap 8 uninit array;
      q = gep p, 3;
      *q = 1;
      x = *q;
      ret x;
    }
  )");
  VFG G = P.buildVFG();
  const ir::Instruction *Store = P.instAt("main", 0, 2);
  auto Pts = P.PA->pointsTo(
      P.M->findFunction("main")->findVariable("q"));
  ASSERT_EQ(Pts.size(), 1u);
  EXPECT_EQ(chiOrigin(G, Store, Pts[0]), NodeOrigin::StoreChiWeak);
}

TEST(VFGTest, WeakUpdateWhenPointerIsAmbiguous) {
  Pipeline P(R"(
    func main() {
      a = alloc stack 1 uninit;
      b = alloc stack 1 uninit;
      c = 1;
      if c goto pickb;
      p = a;
      goto st;
    pickb:
      p = b;
      goto st;
    st:
      *p = 9;
      ret 0;
    }
  )");
  VFG G = P.buildVFG();
  EXPECT_EQ(G.numStrongStoreChis(), 0u);
  EXPECT_EQ(G.numWeakStoreChis(), 2u) << "one weak chi per pointee";
}

TEST(VFGTest, SemiStrongUpdateOnFigure6Pattern) {
  // The loop from Figure 6: a fresh heap object per trip, stored through
  // a pointer that provably holds the freshest instance.
  Pipeline P(R"(
    func main() {
      i = 0;
    loop:
      c = i < 4;
      if c goto body;
      goto out;
    body:
      q = alloc heap 1 uninit;
      p = q;
      *p = i;
      v = *q;
      i = i + v;
      i = i + 1;
      goto loop;
    out:
      ret i;
    }
  )");
  VFG G = P.buildVFG();
  EXPECT_EQ(G.numSemiStrongStoreChis(), 1u);
  EXPECT_EQ(G.numWeakStoreChis(), 0u);
  EXPECT_EQ(G.semiStrongCuts().size(), 1u);
}

TEST(VFGTest, SemiStrongDisabledFallsBackToWeak) {
  Pipeline P(R"(
    func main() {
      i = 0;
    loop:
      c = i < 4;
      if c goto body;
      goto out;
    body:
      q = alloc heap 1 uninit;
      *q = i;
      i = i + 1;
      goto loop;
    out:
      ret i;
    }
  )");
  vfg::VFGOptions Opts;
  Opts.SemiStrongUpdates = false;
  VFG G = P.buildVFG(Opts);
  EXPECT_EQ(G.numSemiStrongStoreChis(), 0u);
  EXPECT_EQ(G.numWeakStoreChis(), 1u);
}

TEST(VFGTest, SemiStrongRequiresDominatingAnchor) {
  // The pointer is live around the back edge (a phi), so it may hold an
  // *older* instance: the bypass must be refused.
  Pipeline P(R"(
    func main() {
      i = 0;
      q = alloc heap 1 uninit;
    loop:
      c = i < 4;
      if c goto body;
      goto out;
    body:
      *q = i;
      q = alloc heap 1 uninit;
      i = i + 1;
      goto loop;
    out:
      ret i;
    }
  )");
  VFG G = P.buildVFG();
  EXPECT_EQ(G.numSemiStrongStoreChis(), 0u)
      << "phi-carried pointers must not be treated as freshest-instance";
}

TEST(VFGTest, CriticalUsesCoverLoadsStoresBranches) {
  Pipeline P(R"(
    func main() {
      p = alloc stack 1 uninit;
      *p = 1;
      x = *p;
      if x goto done;
      x = 0;
    done:
      ret x;
    }
  )");
  VFG G = P.buildVFG();
  unsigned Loads = 0, Stores = 0, Branches = 0;
  for (const VFG::CriticalUse &Use : G.criticalUses()) {
    Loads += isa<ir::LoadInst>(Use.I);
    Stores += isa<ir::StoreInst>(Use.I);
    Branches += isa<ir::CondBrInst>(Use.I);
  }
  EXPECT_EQ(Loads, 1u);
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(Branches, 1u);
}

TEST(VFGTest, RootsExistAndConstantsFlowFromT) {
  Pipeline P("func main() { x = 1; ret x; }");
  VFG G = P.buildVFG();
  ASSERT_GE(G.numNodes(), 3u);
  EXPECT_TRUE(G.isRoot(VFG::RootT));
  EXPECT_TRUE(G.isRoot(VFG::RootF));
  // x's def, as `ret x` reads it, depends on T (constant copy).
  const ir::Function *Main = P.M->findFunction("main");
  uint32_t XNode =
      G.useNode(P.instAt("main", 0, 1), Main->findVariable("x"));
  ASSERT_NE(XNode, ~0u);
  ASSERT_EQ(G.deps(XNode).size(), 1u);
  EXPECT_EQ(G.deps(XNode)[0].Node, VFG::RootT);
}

TEST(VFGTest, InterproceduralEdgesAreLabeled) {
  Pipeline P(R"(
    func id(v) { ret v; }
    func main() {
      a = 1;
      r = id(a);
      ret r;
    }
  )");
  VFG G = P.buildVFG();
  const ir::Function *Id = P.M->findFunction("id");
  uint32_t Formal = G.useNode(P.instAt("id", 0, 0), Id->findVariable("v"));
  ASSERT_NE(Formal, ~0u);
  ASSERT_EQ(G.deps(Formal).size(), 1u);
  EXPECT_EQ(G.deps(Formal)[0].Kind, vfg::EdgeKind::Call);
  EXPECT_NE(G.deps(Formal)[0].CallSite, ~0u);
}

} // namespace
