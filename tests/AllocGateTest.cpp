//===- tests/AllocGateTest.cpp - Allocation counts of memory SSA and VFG --===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A complexity gate from a deterministic counter: the heap allocations
/// that memory SSA construction and VFGBuilder::build() make. Memory SSA
/// lays each function out in a fixed number of exact-sized arrays and the
/// VFG builder keeps flat tables, so both must allocate a bounded number
/// of times per function, however large the functions grow.
///
/// Inputs: synthesized programs of 10k and 40k target nodes (seed 1) at
/// O1. The gate asserts, per phase, that allocations per function stay at
/// or below a constant, and that allocations grow from 10k to 40k by at
/// most 1.25 times the growth in function count.
///
/// This file replaces the global operator new and delete, so it builds
/// into its own test executable.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
#include "transforms/Transforms.h"
#include "vfg/VFG.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NumAllocs{0};

void *countedAlloc(std::size_t Size) {
  NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  NumAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  NumAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace usher;

namespace {

/// Allocations per function, at most. Seeded from this layout's counts
/// (memory SSA: 48.4 at 10k and 48.0 at 40k; VFG builder: 5.3 and 4.7)
/// with under 25% headroom.
constexpr double MemSSAPerFunction = 60;
constexpr double VFGPerFunction = 6.5;
/// Allocation growth from 10k to 40k, over function-count growth.
constexpr double MaxGrowthOverFunctions = 1.25;

struct Counts {
  uint64_t Functions = 0, MemSSA = 0, VFG = 0;
};

Counts countAllocations(unsigned TargetNodes) {
  workload::ShapeSpec Spec;
  Spec.Seed = 1;
  Spec.TargetNodes = TargetNodes;
  auto M = parser::parseModuleOrAbort(workload::synthesizeProgram(Spec));
  transforms::runPreset(*M, transforms::OptPreset::O1);
  analysis::CallGraph CG(*M);
  analysis::PointerAnalysis PA(*M, CG);
  analysis::ModRefAnalysis MR(*M, CG, PA);

  Counts C;
  C.Functions = M->functions().size();
  uint64_t Before = NumAllocs.load();
  auto SSA = std::make_unique<ssa::MemorySSA>(*M, PA, MR);
  C.MemSSA = NumAllocs.load() - Before;
  vfg::VFGBuilder Builder(*M, *SSA, PA, CG);
  Before = NumAllocs.load();
  vfg::VFG G = Builder.build();
  C.VFG = NumAllocs.load() - Before;
  return C;
}

TEST(AllocGate, MemorySSAAndVFGAllocatePerFunction) {
  const Counts Small = countAllocations(10'000);
  const Counts Large = countAllocations(40'000);
  for (const Counts &C : {Small, Large}) {
    SCOPED_TRACE(std::to_string(C.Functions) + " functions");
    EXPECT_LE(C.MemSSA, MemSSAPerFunction * C.Functions)
        << "memory SSA made " << C.MemSSA << " allocations";
    EXPECT_LE(C.VFG, VFGPerFunction * C.Functions)
        << "VFGBuilder::build() made " << C.VFG << " allocations";
  }
  const double FunctionGrowth =
      static_cast<double>(Large.Functions) / Small.Functions;
  EXPECT_LE(static_cast<double>(Large.MemSSA) / Small.MemSSA,
            MaxGrowthOverFunctions * FunctionGrowth)
      << "memory SSA: " << Small.MemSSA << " -> " << Large.MemSSA;
  EXPECT_LE(static_cast<double>(Large.VFG) / Small.VFG,
            MaxGrowthOverFunctions * FunctionGrowth)
      << "VFG builder: " << Small.VFG << " -> " << Large.VFG;
}

} // namespace
