//===- tests/FullPlanGoldenTest.cpp - Pinned MSan-baseline plans ----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden digests of the full ("shadow every statement") plans: the UUV
/// MSan baseline of Figures 10 and 11 and the AddrLeak client's full plan,
/// which is the reference side of the guided-vs-full oracles. Every op is
/// hashed with its list (entry/before/after), its owner, its position in
/// the list and its operands, so any change to a rule, to the op order
/// within a list or to the sink set changes the digest.
///
//===----------------------------------------------------------------------===//

#include "core/Instrumentation.h"
#include "core/SanitizerClient.h"
#include "core/Usher.h"
#include "workload/Spec2000.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace usher;
using core::InstrumentationPlan;
using core::ShadowOp;
using core::ShadowVal;

namespace {

/// 64-bit FNV-1a over a stream of integers.
struct Digest {
  uint64_t H = 1469598103934665603ull;
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void addVar(const ir::Variable *V) {
    if (!V) {
      add(~0ull);
      return;
    }
    add(V->getParent()->getId());
    add(V->getId());
  }
  void addOperand(const ir::Operand &O) {
    add(static_cast<uint64_t>(O.getKind()));
    if (O.isConst())
      add(static_cast<uint64_t>(O.getConst()));
    else if (O.isVar())
      addVar(O.getVar());
    else if (O.isGlobal())
      add(O.getGlobal()->getId());
  }
  void addList(uint64_t List, uint64_t Owner,
               const std::vector<ShadowOp> &Ops) {
    for (size_t Pos = 0; Pos != Ops.size(); ++Pos) {
      const ShadowOp &Op = Ops[Pos];
      add(List);
      add(Owner);
      add(Pos);
      add(static_cast<uint64_t>(Op.K));
      addVar(Op.Dst);
      addOperand(Op.Ptr);
      add(Op.Srcs.size());
      for (const ShadowVal &S : Op.Srcs) {
        add(S.IsLiteral);
        if (S.IsLiteral)
          add(S.Literal);
        else
          addVar(S.Var);
      }
      add(Op.Index);
    }
  }
};

/// Digest of \p Plan over \p M: function entry lists in function order,
/// then each instruction's before and after lists in instruction-id order.
uint64_t planDigest(const ir::Module &M, const InstrumentationPlan &Plan) {
  Digest D;
  for (const auto &F : M.functions())
    D.addList(0, F->getId(), Plan.entry(F.get()));
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions()) {
        D.addList(1, I->getId(), Plan.before(I.get()));
        D.addList(2, I->getId(), Plan.after(I.get()));
      }
  return D.H;
}

struct Golden {
  const char *Name;
  uint64_t Uuv;
  uint64_t AddrLeak;
};

// A digest changes only with a deliberate change to the baseline rules, the
// AddrLeak sink set or the suite programs; re-pin it in the same change.
const Golden Goldens[] = {
    {"164.gzip", 0x60c19caa76212747ull, 0xe90060dfefe5bb29ull},
    {"175.vpr", 0x01f3c0bf5ea95cfaull, 0xe08d1b4c6010e1e6ull},
    {"176.gcc", 0x535747c4195553a1ull, 0x8a7f1176e07ba417ull},
    {"177.mesa", 0x58531766f6da6ddeull, 0xcfb59795b8329c0dull},
    {"179.art", 0xe08300ff7288171dull, 0x440a3d546d0629c9ull},
    {"181.mcf", 0x3f318602f3b25f8full, 0xae1cd44f13e7f4f1ull},
    {"183.equake", 0xa3f6654ab58df224ull, 0xfb919b15e575c139ull},
    {"186.crafty", 0xd53c97806a1ef765ull, 0x6d2511f96338d7ffull},
    {"188.ammp", 0xd26c1d9995369a2bull, 0x70b2a23251c8908eull},
    {"197.parser", 0x150a031201ec9142ull, 0x8fe8c166ce8fff62ull},
    {"253.perlbmk", 0xa0f2da9b67f0e32bull, 0x6b30521aa55d3ce1ull},
    {"254.gap", 0x45395364e257ccc7ull, 0x11d66c252e308a4full},
    {"255.vortex", 0x63007d1631043945ull, 0x5e9405fca847b8dcull},
    {"256.bzip2", 0x157629bc2b21caadull, 0xff900e9c42774a90ull},
    {"300.twolf", 0x6c4f849aa7be8b50ull, 0xdf2b49b5a8d4333aull},
};

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

TEST(FullPlanGolden, SuiteDigestsArePinned) {
  const auto &Suite = workload::spec2000Suite();
  ASSERT_EQ(Suite.size(), std::size(Goldens));
  for (size_t Idx = 0; Idx != Suite.size(); ++Idx) {
    const Golden &G = Goldens[Idx];
    ASSERT_EQ(Suite[Idx].Name, std::string(G.Name));
    // The full analysis run supplies the points-to sets that narrow the
    // AddrLeak sinks to escaping stores, as the corpus and fuzz oracles
    // build the full plan.
    auto M = workload::loadBenchmark(Suite[Idx]);
    core::UsherResult R = core::runUsher(*M, core::UsherOptions());
    core::ClientBuildInputs In(*M);
    In.PA = R.PA.get();

    EXPECT_EQ(hex(planDigest(*M, core::buildFullInstrumentation(*M))),
              hex(G.Uuv))
        << G.Name << " uuv";
    core::ClientPlanInfo Leak =
        core::buildClientFullPlan(core::ClientKind::AddrLeak, In);
    EXPECT_EQ(hex(planDigest(*M, Leak.Plan)), hex(G.AddrLeak))
        << G.Name << " addrleak";
  }
}
