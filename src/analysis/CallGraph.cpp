//===- analysis/CallGraph.cpp - Direct call graph --------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"

#include "ir/IR.h"
#include "support/SCC.h"

#include <algorithm>
#include <cassert>

using namespace usher;
using namespace usher::analysis;
using ir::CallInst;
using ir::Function;
using ir::Module;

CallGraph::CallGraph(const Module &M) : Info(M.functions().size()) {
  for (const auto &F : M.functions()) {
    FnInfo &FI = Info[F->getId()];
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->instructions()) {
        auto *Call = dyn_cast<CallInst>(I.get());
        if (!Call)
          continue;
        FI.CallSites.push_back(Call);
        Info[Call->getCallee()->getId()].Callers.push_back(Call);
        auto &Callees = FI.Callees;
        if (std::find(Callees.begin(), Callees.end(), Call->getCallee()) ==
            Callees.end())
          Callees.push_back(Call->getCallee());
      }
    }
  }

  // SCCs complete in reverse topological order (callees first), which is
  // exactly the order mod/ref wants.
  forEachSCC(
      static_cast<uint32_t>(Info.size()),
      [&](uint32_t U) -> const std::vector<Function *> & {
        return Info[U].Callees;
      },
      [](const Function *Callee) { return Callee->getId(); },
      [&](uint32_t, const std::vector<uint32_t> &Members) {
        SCCs.emplace_back();
        for (uint32_t Id : Members) {
          Info[Id].SCC = static_cast<unsigned>(SCCs.size() - 1);
          SCCs.back().push_back(M.functions()[Id].get());
        }
      });

  // A function is recursive if its SCC has >1 member or it calls itself.
  for (const auto &F : M.functions()) {
    FnInfo &FI = Info[F->getId()];
    FI.Recursive = SCCs[FI.SCC].size() > 1 ||
                   std::find(FI.Callees.begin(), FI.Callees.end(), F.get()) !=
                       FI.Callees.end();
  }
}

const CallGraph::FnInfo &CallGraph::info(const Function *F) const {
  assert(F->getId() < Info.size() && "function not in call graph");
  return Info[F->getId()];
}

const std::vector<CallInst *> &
CallGraph::callSitesIn(const Function *F) const {
  return info(F).CallSites;
}

const std::vector<CallInst *> &CallGraph::callersOf(const Function *F) const {
  return info(F).Callers;
}

const std::vector<Function *> &CallGraph::calleesOf(const Function *F) const {
  return info(F).Callees;
}

unsigned CallGraph::sccId(const Function *F) const { return info(F).SCC; }

bool CallGraph::isRecursive(const Function *F) const {
  return info(F).Recursive;
}
