//===- analysis/CallGraph.h - Direct call graph -----------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Call graph over TinyC's direct calls, with Tarjan SCCs. Used by mod/ref
/// propagation, wrapper detection (recursive functions are never allocation
/// wrappers) and the inliner.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_ANALYSIS_CALLGRAPH_H
#define USHER_ANALYSIS_CALLGRAPH_H

#include <vector>

namespace usher {
namespace ir {
class CallInst;
class Function;
class Module;
} // namespace ir

namespace analysis {

/// Direct call graph of a module.
class CallGraph {
public:
  explicit CallGraph(const ir::Module &M);

  /// All call instructions in \p F.
  const std::vector<ir::CallInst *> &callSitesIn(const ir::Function *F) const;

  /// All call instructions whose callee is \p F.
  const std::vector<ir::CallInst *> &callersOf(const ir::Function *F) const;

  /// Distinct callees of \p F.
  const std::vector<ir::Function *> &calleesOf(const ir::Function *F) const;

  /// SCC id of \p F; SCCs are numbered in reverse topological order
  /// (callees before callers), so iterating functions by ascending SCC id
  /// visits callees first.
  unsigned sccId(const ir::Function *F) const;

  /// True if \p F can (transitively) call itself.
  bool isRecursive(const ir::Function *F) const;

  /// Functions grouped by SCC id.
  const std::vector<std::vector<ir::Function *>> &sccs() const {
    return SCCs;
  }

private:
  struct FnInfo {
    std::vector<ir::CallInst *> CallSites;
    std::vector<ir::CallInst *> Callers;
    std::vector<ir::Function *> Callees;
    unsigned SCC = 0;
    bool Recursive = false;
  };

  const FnInfo &info(const ir::Function *F) const;

  /// Indexed by Function::getId(), which is dense in module order.
  std::vector<FnInfo> Info;
  std::vector<std::vector<ir::Function *>> SCCs;
};

} // namespace analysis
} // namespace usher

#endif // USHER_ANALYSIS_CALLGRAPH_H
