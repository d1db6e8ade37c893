//===- tests/SolverEquivalenceTest.cpp - Optimized vs reference solver -----===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimized Andersen engine (SCC collapsing + difference propagation)
/// must be observationally identical to the retained naive reference:
///
///  - identical may-point-to sets for every top-level variable, on seeded
///    random programs and on adversarial copy-cycle workloads;
///  - identical runUsher warning sets on every rung of the degradation
///    ladder, so collapsing/delta state interacts soundly with Budget
///    exhaustion and the driver's fallbacks;
///  - unchanged worklist accounting: the solver counters of three
///    adversarial programs are pinned exactly.
///
/// Every engine's harvest must also share one vector among all variables
/// with equal points-to sets.
///
/// The degradation ladder's field-insensitive retry must over-approximate
/// the field-sensitive solution, in points-to sets and in the warnings of
/// a run that lands on it.
///
/// Points-to sets are compared as (object name, field) pairs rather than
/// raw loc ids so the property does not depend on the two runs numbering
/// locations identically.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "workload/Generator.h"
#include "workload/Spec2000.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace usher;
using analysis::CallGraph;
using analysis::PointerAnalysis;
using analysis::PtaOptions;
using analysis::SolverKind;
using core::ToolVariant;

namespace {

/// Loc-id-independent rendering of one variable's points-to set.
std::set<std::string> ptsNames(const PointerAnalysis &PA,
                               const ir::Variable *V) {
  std::set<std::string> S;
  for (uint32_t LocId : PA.pointsTo(V)) {
    const analysis::PtLoc &L = PA.location(LocId);
    S.insert(L.Obj->getName() + "#" + std::to_string(L.Field));
  }
  return S;
}

/// Runs both engines on freshly parsed/generated copies of the same
/// program (heap cloning mutates the module, so each engine gets its own)
/// and asserts every variable's points-to set matches.
void expectEnginesAgree(ir::Module &MOpt, ir::Module &MRef,
                        const std::string &Tag) {
  CallGraph CGOpt(MOpt);
  PtaOptions OptsOpt;
  OptsOpt.Solver = SolverKind::Optimized;
  PointerAnalysis PAOpt(MOpt, CGOpt, OptsOpt);
  ASSERT_FALSE(PAOpt.exhausted()) << Tag;

  CallGraph CGRef(MRef);
  PtaOptions OptsRef;
  OptsRef.Solver = SolverKind::NaiveReference;
  PointerAnalysis PARef(MRef, CGRef, OptsRef);
  ASSERT_FALSE(PARef.exhausted()) << Tag;

  ASSERT_EQ(PAOpt.numLocations(), PARef.numLocations()) << Tag;
  for (const auto &FOpt : MOpt.functions()) {
    const ir::Function *FRef = MRef.findFunction(FOpt->getName());
    ASSERT_NE(FRef, nullptr) << Tag;
    for (const auto &V : FOpt->variables()) {
      const ir::Variable *VRef = FRef->findVariable(V->getName());
      ASSERT_NE(VRef, nullptr) << Tag;
      EXPECT_EQ(ptsNames(PAOpt, V.get()), ptsNames(PARef, VRef))
          << Tag << ": points-to mismatch for " << FOpt->getName()
          << "::" << V->getName();
    }
  }
}

//===----------------------------------------------------------------------===//
// Points-to equivalence on seeded random programs
//===----------------------------------------------------------------------===//

class PointsToEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PointsToEquivalence, RandomProgram) {
  const uint64_t Seed = GetParam();
  auto MOpt = workload::generateProgram(Seed);
  auto MRef = workload::generateProgram(Seed);
  expectEnginesAgree(*MOpt, *MRef, "seed " + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointsToEquivalence,
                         ::testing::Range<uint64_t>(0, 80));

//===----------------------------------------------------------------------===//
// Points-to equivalence on adversarial solver workloads
//===----------------------------------------------------------------------===//
//
// Random programs rarely build large copy cycles, so these hand-shaped
// sources force the optimized engine through its special paths: ring
// collapsing mid-solve (stale merged worklist entries), nested rings
// (collapse into an already-collapsed representative), and drip-staged
// load resolution (delta propagation under growing constraint graphs).

std::string dripLadder(unsigned K, const std::string &Sink) {
  std::string Src;
  for (unsigned I = 1; I <= K; ++I)
    Src += "  q" + std::to_string(I) + " = 0;\n";
  for (unsigned I = 1; I <= K; ++I)
    Src += "  c" + std::to_string(I) + " = alloc heap 1 uninit;\n";
  for (unsigned I = 1; I != K; ++I)
    Src += "  *c" + std::to_string(I) + " = c" + std::to_string(I + 1) + ";\n";
  for (unsigned I = 1; I != K; ++I)
    Src += "  q" + std::to_string(I + 1) + " = *q" + std::to_string(I) + ";\n";
  for (unsigned I = 1; I <= K; ++I)
    Src += "  " + Sink + " = q" + std::to_string(I) + ";\n";
  return Src;
}

std::string makeRingWorkload(unsigned K, unsigned RingSize, unsigned Tail) {
  std::string Src = "func main() {\n  r0 = 0;\n";
  for (unsigned I = 1; I != RingSize; ++I)
    Src += "  r" + std::to_string(I) + " = r" + std::to_string(I - 1) + ";\n";
  Src += "  r0 = r" + std::to_string(RingSize - 1) + ";\n";
  Src += "  t0 = r0;\n";
  for (unsigned I = 1; I != Tail; ++I)
    Src += "  t" + std::to_string(I) + " = t" + std::to_string(I - 1) + ";\n";
  Src += dripLadder(K, "r0");
  Src += "  q1 = c1;\n  ret 0;\n}\n";
  return Src;
}

std::string makeNestedRingsWorkload() {
  // Two rings joined by a bridge: collapsing the first makes the second's
  // lap-closing edge target a representative, and the bridge then merges
  // ring two into ring one's already-collapsed rep.
  std::string Src = "func main() {\n  a0 = 0;\n";
  for (unsigned I = 1; I != 6; ++I)
    Src += "  a" + std::to_string(I) + " = a" + std::to_string(I - 1) + ";\n";
  Src += "  a0 = a5;\n  b0 = a0;\n";
  for (unsigned I = 1; I != 5; ++I)
    Src += "  b" + std::to_string(I) + " = b" + std::to_string(I - 1) + ";\n";
  Src += "  b0 = b4;\n  a0 = b2;\n";
  Src += dripLadder(10, "a3");
  Src += "  q1 = c1;\n  ret 0;\n}\n";
  return Src;
}

/// A small copy of perfbench's pta-deref program: \p Hubs functions, each
/// with a hub pointer that may name either of two cells (so its stores are
/// weak), \p Pointees heap objects stored through it, and \p Readers loads
/// of it draining into one sink. Each reader's set is the hub's whole
/// pointee set, so every load edge moves Pointees bits at once. With
/// \p StoreBack, each loaded value is stored back through the hub, closing
/// a cell -> reader -> cell copy cycle that collapses only after the
/// pointee bits have already travelled as bulk word deltas.
std::string makeDerefMeshWorkload(unsigned Hubs, unsigned Readers,
                                  unsigned Pointees, bool StoreBack) {
  std::string Src;
  for (unsigned H = 0; H != Hubs; ++H) {
    Src += "func hub" + std::to_string(H) +
           "() {\n  s = 0;\n  c = 1;\n  h = alloc heap 1 uninit;\n"
           "  if c goto A;\n  h = alloc heap 1 uninit;\nA:\n";
    for (unsigned J = 0; J != Pointees; ++J)
      Src += "  o = alloc heap 1 uninit;\n  *h = o;\n";
    for (unsigned I = 0; I != Readers; ++I) {
      const std::string P = "p" + std::to_string(I);
      Src += "  " + P + " = *h;\n  s = " + P + ";\n";
      if (StoreBack)
        Src += "  *h = " + P + ";\n";
    }
    Src += "  v = *s;\n  if v goto L;\nL:\n  ret 0;\n}\n\n";
  }
  Src += "func main() {\n  t = 0;\n";
  for (unsigned H = 0; H != Hubs; ++H) {
    const std::string R = "r" + std::to_string(H);
    Src += "  " + R + " = hub" + std::to_string(H) + "();\n  t = t + " + R +
           ";\n";
  }
  Src += "  ret t;\n}\n";
  return Src;
}

const std::string &derefMeshSource() {
  static const std::string Src = makeDerefMeshWorkload(3, 64, 64, false);
  return Src;
}

const std::string &derefRingSource() {
  static const std::string Src = makeDerefMeshWorkload(3, 64, 64, true);
  return Src;
}

TEST(SolverEquivalence, CollapsingRing) {
  const std::string Src = makeRingWorkload(24, 16, 16);
  auto MOpt = parser::parseModuleOrAbort(Src.c_str());
  auto MRef = parser::parseModuleOrAbort(Src.c_str());
  expectEnginesAgree(*MOpt, *MRef, "collapsing-ring");
}

TEST(SolverEquivalence, NestedRings) {
  const std::string Src = makeNestedRingsWorkload();
  auto MOpt = parser::parseModuleOrAbort(Src.c_str());
  auto MRef = parser::parseModuleOrAbort(Src.c_str());
  expectEnginesAgree(*MOpt, *MRef, "nested-rings");
}

TEST(SolverEquivalence, DerefMesh) {
  auto MOpt = parser::parseModuleOrAbort(derefMeshSource());
  auto MRef = parser::parseModuleOrAbort(derefMeshSource());
  expectEnginesAgree(*MOpt, *MRef, "deref-mesh");
}

TEST(SolverEquivalence, DerefRingCollapsesAfterWordDeltas) {
  auto MOpt = parser::parseModuleOrAbort(derefRingSource());
  auto MRef = parser::parseModuleOrAbort(derefRingSource());
  expectEnginesAgree(*MOpt, *MRef, "deref-ring");

  auto M = parser::parseModuleOrAbort(derefRingSource());
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  EXPECT_GT(PA.solverStats().NumCollapses, 0u);
}

/// \p K heap objects of 64 fields, so each object's base loc opens a new
/// 64-bit word. The upper half is copied into sink s from the last object
/// down and into sink t from the middle up: s's words arrive in descending
/// order, so the optimized engine's set grows at its front and ends with
/// zero words below its lowest one, while t's set holds none.
std::string makeDescendingWordsWorkload(unsigned K) {
  std::string Src = "func main() {\n";
  for (unsigned I = 0; I != K; ++I)
    Src += "  a" + std::to_string(I) + " = alloc heap 64 uninit;\n";
  for (unsigned I = K; I-- != K / 2;)
    Src += "  s = a" + std::to_string(I) + ";\n";
  for (unsigned I = K / 2; I != K; ++I)
    Src += "  t = a" + std::to_string(I) + ";\n";
  Src += "  v = *s;\n  w = *t;\n  ret v;\n}\n";
  return Src;
}

TEST(SolverEquivalence, DescendingWords) {
  const std::string Src = makeDescendingWordsWorkload(200);
  auto MOpt = parser::parseModuleOrAbort(Src.c_str());
  auto MRef = parser::parseModuleOrAbort(Src.c_str());
  expectEnginesAgree(*MOpt, *MRef, "descending-words");

  auto M = parser::parseModuleOrAbort(Src.c_str());
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  const ir::Function *Main = M->findFunction("main");
  const std::vector<uint32_t> &S = PA.pointsTo(Main->findVariable("s"));
  EXPECT_EQ(S.size(), 100u);
  // Equal sets share one vector, however their storage grew.
  EXPECT_EQ(&S, &PA.pointsTo(Main->findVariable("t")));
}

//===----------------------------------------------------------------------===//
// Interned points-to sets
//===----------------------------------------------------------------------===//
//
// Every engine's harvest shares one vector among all variables with equal
// points-to sets: two variables return the same vector exactly when their
// sets are equal.

class InternedPointsTo : public ::testing::TestWithParam<SolverKind> {};

TEST_P(InternedPointsTo, EqualSetsShareOneVector) {
  auto M = parser::parseModuleOrAbort(derefMeshSource());
  CallGraph CG(*M);
  PtaOptions Opts;
  Opts.Solver = GetParam();
  PointerAnalysis PA(*M, CG, Opts);
  ASSERT_FALSE(PA.exhausted());

  std::vector<const ir::Variable *> Vars;
  for (const auto &F : M->functions())
    for (const auto &V : F->variables())
      Vars.push_back(V.get());
  for (const ir::Variable *A : Vars)
    for (const ir::Variable *B : Vars) {
      const std::vector<uint32_t> &SA = PA.pointsTo(A);
      const std::vector<uint32_t> &SB = PA.pointsTo(B);
      ASSERT_EQ(&SA == &SB, SA == SB)
          << A->getName() << " vs " << B->getName();
    }

  // The 64 readers of one hub all see its 64 pointees, through one vector.
  const ir::Function *Hub = M->findFunction("hub0");
  ASSERT_NE(Hub, nullptr);
  const std::vector<uint32_t> &P0 = PA.pointsTo(Hub->findVariable("p0"));
  EXPECT_GE(P0.size(), 64u);
  for (unsigned I = 1; I != 64; ++I)
    EXPECT_EQ(&PA.pointsTo(Hub->findVariable("p" + std::to_string(I))), &P0)
        << "p" << I;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, InternedPointsTo,
    ::testing::Values(SolverKind::Optimized, SolverKind::NaiveReference),
    [](const ::testing::TestParamInfo<SolverKind> &Info) {
      return std::string(analysis::solverKindName(Info.param));
    });

//===----------------------------------------------------------------------===//
// Pinned solver counters
//===----------------------------------------------------------------------===//
//
// The optimized engine's worklist order and budget charging must not
// depend on how deltas are represented: BudgetTest's degradation
// boundaries rest on both. These are the counts per-bit deltas produced.

struct PinnedStats {
  uint64_t Pops, Propagations, CopyEdges, Collapses, CollapsedNodes,
      SkippedMergedPops, BudgetSteps;
};

void expectPinnedStats(const std::string &Src, const PinnedStats &Want,
                       const std::string &Tag) {
  auto M = parser::parseModuleOrAbort(Src);
  CallGraph CG(*M);
  PointerAnalysis PA(*M, CG);
  ASSERT_FALSE(PA.exhausted()) << Tag;
  const analysis::SolverStatistics &S = PA.solverStats();
  EXPECT_EQ(S.NumPops, Want.Pops) << Tag;
  EXPECT_EQ(S.NumPropagations, Want.Propagations) << Tag;
  EXPECT_EQ(S.NumCopyEdges, Want.CopyEdges) << Tag;
  EXPECT_EQ(S.NumCollapses, Want.Collapses) << Tag;
  EXPECT_EQ(S.NumCollapsedNodes, Want.CollapsedNodes) << Tag;
  EXPECT_EQ(S.NumSkippedMergedPops, Want.SkippedMergedPops) << Tag;
  EXPECT_EQ(S.NumBudgetSteps, Want.BudgetSteps) << Tag;
}

TEST(SolverCounters, DerefMeshPinned) {
  expectPinnedStats(derefMeshSource(), {210, 1350, 774, 0, 0, 0, 415},
                    "deref-mesh");
}

TEST(SolverCounters, DerefRingPinned) {
  expectPinnedStats(derefRingSource(), {213, 1407, 1158, 3, 195, 177, 241},
                    "deref-ring");
}

TEST(SolverCounters, CollapsingRingPinned) {
  expectPinnedStats(makeRingWorkload(24, 16, 16),
                    {518, 531, 103, 1, 15, 1, 567},
                    "collapsing-ring");
}

//===----------------------------------------------------------------------===//
// Warning-set equivalence at every degradation-ladder rung
//===----------------------------------------------------------------------===//

std::set<const ir::Instruction *>
warnSet(const std::vector<runtime::Warning> &Ws) {
  std::set<const ir::Instruction *> S;
  for (const runtime::Warning &W : Ws)
    S.insert(W.At);
  return S;
}

class RungEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RungEquivalence, WarningsMatchOnEveryRung) {
  const uint64_t Seed = GetParam();

  struct RungCase {
    std::optional<BudgetPhase> FaultPhase;
    ToolVariant Requested;
  };
  const RungCase Cases[] = {
      {std::nullopt, ToolVariant::UsherFull},
      {BudgetPhase::PointerAnalysis, ToolVariant::UsherFull},
      {BudgetPhase::Definedness, ToolVariant::UsherFull},
      {BudgetPhase::OptII, ToolVariant::UsherFull},
      {BudgetPhase::OptI, ToolVariant::UsherOptI},
  };

  for (const RungCase &C : Cases) {
    const std::string Tag =
        "seed " + std::to_string(Seed) + " fault " +
        (C.FaultPhase ? budgetPhaseName(*C.FaultPhase) : "none");

    auto runWith = [&](SolverKind Kind) {
      auto M = workload::generateProgram(Seed);
      core::UsherOptions Opts;
      Opts.Variant = C.Requested;
      Opts.Pta.Solver = Kind;
      if (C.FaultPhase) {
        FaultPlan F;
        F.Phase = *C.FaultPhase;
        F.AtStep = 0;
        Opts.Fault = F;
      }
      core::UsherResult R = core::runUsher(*M, Opts);
      runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
      EXPECT_EQ(Rep.Reason, runtime::ExitReason::Finished) << Tag;
      struct Out {
        ToolVariant Rung;
        bool Degraded;
        int64_t MainResult;
        std::set<std::string> Warnings;
      } O;
      O.Rung = R.Degradation.Rung;
      O.Degraded = R.Degradation.Degraded;
      O.MainResult = Rep.MainResult;
      // Instruction pointers are module-local; compare by stable id.
      for (const ir::Instruction *I : warnSet(Rep.ToolWarnings))
        O.Warnings.insert(std::to_string(I->getId()));
      return O;
    };

    auto Opt = runWith(SolverKind::Optimized);
    auto Ref = runWith(SolverKind::NaiveReference);
    EXPECT_EQ(Opt.Rung, Ref.Rung) << Tag;
    EXPECT_EQ(Opt.Degraded, Ref.Degraded) << Tag;
    EXPECT_EQ(Opt.MainResult, Ref.MainResult) << Tag;
    EXPECT_EQ(Opt.Warnings, Ref.Warnings) << Tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RungEquivalence,
                         ::testing::Range<uint64_t>(0, 20));

//===----------------------------------------------------------------------===//
// Field-insensitive soundness oracle
//===----------------------------------------------------------------------===//
//
// The degradation ladder's retry solves the field-insensitive constraint
// system, a sound *over*-approximation of the field-sensitive one: every
// object a pointer may reach under field sensitivity it may also reach
// with all fields collapsed. The oracle checks that inclusion over the
// benchmark suite, seeded random programs, the labeled bug corpus and
// the adversarial ring workloads.

/// The objects in one variable's points-to set, fields dropped.
std::set<std::string> ptsObjects(const PointerAnalysis &PA,
                                 const ir::Variable *V) {
  std::set<std::string> S;
  for (uint32_t LocId : PA.pointsTo(V))
    S.insert(PA.location(LocId).Obj->getName());
  return S;
}

/// Asserts the inclusion for every top-level variable of two fresh copies
/// of one program (heap cloning mutates the module, so each run gets its
/// own copy).
void expectFieldInsensitiveOverapproximates(ir::Module &MFS, ir::Module &MFI,
                                            const std::string &Tag) {
  CallGraph CGFS(MFS);
  PointerAnalysis PAFS(MFS, CGFS);
  ASSERT_FALSE(PAFS.exhausted()) << Tag;

  CallGraph CGFI(MFI);
  PtaOptions OptsFI;
  OptsFI.FieldSensitive = false;
  PointerAnalysis PAFI(MFI, CGFI, OptsFI);
  ASSERT_FALSE(PAFI.exhausted()) << Tag;

  for (const auto &FFS : MFS.functions()) {
    const ir::Function *FFI = MFI.findFunction(FFS->getName());
    ASSERT_NE(FFI, nullptr) << Tag;
    for (const auto &V : FFS->variables()) {
      const ir::Variable *VFI = FFI->findVariable(V->getName());
      ASSERT_NE(VFI, nullptr) << Tag;
      std::set<std::string> FS = ptsObjects(PAFS, V.get());
      std::set<std::string> FI = ptsObjects(PAFI, VFI);
      EXPECT_TRUE(std::includes(FI.begin(), FI.end(), FS.begin(), FS.end()))
          << Tag << ": field-insensitive Andersen dropped a points-to fact "
          << "of " << FFS->getName() << "::" << V->getName()
          << " (field-sensitive " << FS.size() << " objects, insensitive "
          << FI.size() << ")";
    }
  }
}

void checkFieldInsensitiveSoundOnSource(const std::string &Src,
                                        const std::string &Tag) {
  auto MFS = parser::parseModuleOrAbort(Src);
  auto MFI = parser::parseModuleOrAbort(Src);
  expectFieldInsensitiveOverapproximates(*MFS, *MFI, Tag);
}

class FieldInsensitiveSoundnessSuite
    : public ::testing::TestWithParam<size_t> {};

TEST_P(FieldInsensitiveSoundnessSuite, PointsToIncludesAndersen) {
  const auto &B = workload::spec2000Suite()[GetParam()];
  checkFieldInsensitiveSoundOnSource(B.Source, B.Name);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, FieldInsensitiveSoundnessSuite,
    ::testing::Range<size_t>(0, 15),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = workload::spec2000Suite()[Info.param].Name;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

class FieldInsensitiveSoundnessSeeds
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FieldInsensitiveSoundnessSeeds, PointsToIncludesAndersen) {
  const uint64_t Seed = GetParam();
  auto MFS = workload::generateProgram(Seed);
  auto MFI = workload::generateProgram(Seed);
  expectFieldInsensitiveOverapproximates(*MFS, *MFI,
                                         "seed " + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldInsensitiveSoundnessSeeds,
                         ::testing::Range<uint64_t>(0, 60));

TEST(FieldInsensitiveSoundnessCorpus, PointsToIncludesAndersen) {
  for (const char *Stem : {"definite", "may_guarded", "clean_strong_update"}) {
    std::string Path =
        std::string(USHER_TEST_INPUT_DIR) + "/diagnosis/" + Stem + ".tc";
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << "cannot open " << Path;
    std::ostringstream SS;
    SS << In.rdbuf();
    checkFieldInsensitiveSoundOnSource(SS.str(), Stem);
  }
}

TEST(FieldInsensitiveSoundness, AdversarialWorkloads) {
  checkFieldInsensitiveSoundOnSource(makeRingWorkload(24, 16, 16),
                                     "collapsing-ring");
  checkFieldInsensitiveSoundOnSource(makeNestedRingsWorkload(),
                                     "nested-rings");
}

//===----------------------------------------------------------------------===//
// Field-insensitive rung warning over-approximation
//===----------------------------------------------------------------------===//
//
// Dynamic guarantee: every warning an Andersen-backed run reports must
// also be reported when the degradation ladder lands on the
// field-insensitive Andersen retry (pta@0:1 exhausts the field-sensitive
// arm only). USHER-OPTI is requested because its warnings are exact.

class FieldInsensitiveRungSoundness
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FieldInsensitiveRungSoundness, WarningsIncludeAndersens) {
  const uint64_t Seed = GetParam();

  auto runWith = [&](std::optional<FaultPlan> Fault, ToolVariant *RungOut,
                     bool *FieldSensitiveOut) {
    auto M = workload::generateProgram(Seed);
    core::UsherOptions Opts;
    Opts.Variant = ToolVariant::UsherOptI;
    Opts.Fault = Fault;
    core::UsherResult R = core::runUsher(*M, Opts);
    *RungOut = R.Degradation.Rung;
    *FieldSensitiveOut = R.PA && R.PA->options().FieldSensitive;
    runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
    EXPECT_EQ(Rep.Reason, runtime::ExitReason::Finished);
    std::set<std::string> Warnings;
    for (const ir::Instruction *I : warnSet(Rep.ToolWarnings))
      Warnings.insert(std::to_string(I->getId()));
    return Warnings;
  };

  const std::string Tag = "seed " + std::to_string(Seed);
  ToolVariant Rung = ToolVariant::MSanFull;
  bool FieldSensitive = false;
  std::set<std::string> Ref = runWith(std::nullopt, &Rung, &FieldSensitive);
  EXPECT_EQ(Rung, ToolVariant::UsherOptI) << Tag;
  EXPECT_TRUE(FieldSensitive) << Tag;

  FaultPlan OneArm;
  OneArm.Phase = BudgetPhase::PointerAnalysis;
  OneArm.AtStep = 0;
  OneArm.MaxFires = 1;
  std::set<std::string> Ladder = runWith(OneArm, &Rung, &FieldSensitive);
  EXPECT_EQ(Rung, ToolVariant::UsherOptI) << Tag;
  EXPECT_FALSE(FieldSensitive) << Tag;
  EXPECT_TRUE(std::includes(Ladder.begin(), Ladder.end(), Ref.begin(),
                            Ref.end()))
      << Tag << ": the field-insensitive rung lost an Andersen warning";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldInsensitiveRungSoundness,
                         ::testing::Range<uint64_t>(0, 20));

} // namespace
