//===- perfbench/Wrap.cpp - Link-time wrappers around layer entry points --===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linker is run with --wrap=<sym> for every symbol listed in
/// wrapped_symbols.txt, so each call the program makes to one of these
/// entry points lands here first. Each wrapper opens a span, forwards to
/// the original (__real_<sym>) and, while tracing, reads the layer's
/// counters off the object or value it produced. With tracing off a
/// wrapper is one relaxed load plus the forwarded call.
///
/// Member functions and constructors are declared as free functions that
/// take the object pointer first: under the Itanium C++ ABI that is
/// exactly how they are called (a hidden return slot, when there is one,
/// precedes the object pointer in both cases).
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "core/Definedness.h"
#include "core/Instrumentation.h"
#include "core/OptII.h"
#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "serve/Session.h"
#include "serve/SnapshotStore.h"
#include "ssa/MemorySSA.h"
#include "vfg/VFG.h"

using namespace usher;
using perfbench::trace::Scope;
namespace trace = perfbench::trace;

#define SYM_PARSE                                                              \
  "_ZN5usher6parser11parseModuleESt17basic_string_viewIcSt11char_traitsIcEE"
#define SYM_CALLGRAPH "_ZN5usher8analysis9CallGraphC1ERKNS_2ir6ModuleE"
#define SYM_PTA                                                                \
  "_ZN5usher8analysis15PointerAnalysisC1ERNS_2ir6ModuleERKNS0_9CallGraphENS0_" \
  "10PtaOptionsEPNS_6BudgetE"
#define SYM_MODREF                                                             \
  "_ZN5usher8analysis14ModRefAnalysisC1ERKNS_2ir6ModuleERKNS0_9CallGraphERKNS" \
  "0_15PointerAnalysisE"
#define SYM_MEMSSA                                                             \
  "_ZN5usher3ssa9MemorySSAC1ERKNS_2ir6ModuleERKNS_8analysis15PointerAnalysisE" \
  "RKNS6_14ModRefAnalysisEPNS_10ThreadPoolE"
#define SYM_VFG "_ZN5usher3vfg10VFGBuilder5buildEv"
#define SYM_DEFINEDNESS                                                        \
  "_ZN5usher4core11DefinednessC1ERKNS_3vfg3VFGENS0_18DefinednessOptionsEPKSt1" \
  "3unordered_mapIjSt6vectorINS2_4EdgeESaIS9_EESt4hashIjESt8equal_toIjESaISt4" \
  "pairIKjSB_EEEPNS_6BudgetE"
#define SYM_OPT2                                                               \
  "_ZN5usher4core28runRedundantCheckEliminationERKNS_2ir6ModuleERKNS_3ssa9Mem" \
  "orySSAERKNS_8analysis15PointerAnalysisERKNS9_9CallGraphERKNS_3vfg3VFGERKNS" \
  "0_11DefinednessEPNS_6BudgetEPNS_10ThreadPoolE"
#define SYM_PLAN "_ZN5usher4core22InstrumentationPlanner3runEv"
#define SYM_RUNUSHER                                                           \
  "_ZN5usher4core8runUsherERNS_2ir6ModuleERKNS0_12UsherOptionsE"
#define SYM_HANDLE                                                             \
  "_ZN5usher5serve7Session6handleERKNS0_7RequestEPKNS0_12DaemonStatusE"
#define SYM_LOAD "_ZN5usher5serve13SnapshotStore4loadB5cxx11Em"
#define SYM_SAVE                                                               \
  "_ZN5usher5serve13SnapshotStore4saveEmSt17basic_string_viewIcSt11char_trait" \
  "sIcEE"

// The wrappers need external linkage: the linker resolves the program's
// redirected references against these names.
namespace perfbench {
namespace wrap {

using Redirects = std::unordered_map<uint32_t, std::vector<vfg::Edge>>;

parser::ParseResult realParse(std::string_view) asm("__real_" SYM_PARSE);
parser::ParseResult wrapParse(std::string_view) asm("__wrap_" SYM_PARSE);
parser::ParseResult wrapParse(std::string_view Source) {
  Scope S("parse");
  return realParse(Source);
}

void realCallGraph(analysis::CallGraph *, const ir::Module &) asm(
    "__real_" SYM_CALLGRAPH);
void wrapCallGraph(analysis::CallGraph *, const ir::Module &) asm(
    "__wrap_" SYM_CALLGRAPH);
void wrapCallGraph(analysis::CallGraph *This, const ir::Module &M) {
  Scope S("callgraph");
  realCallGraph(This, M);
}

void realPta(analysis::PointerAnalysis *, ir::Module &,
             const analysis::CallGraph &, analysis::PtaOptions,
             Budget *) asm("__real_" SYM_PTA);
void wrapPta(analysis::PointerAnalysis *, ir::Module &,
             const analysis::CallGraph &, analysis::PtaOptions,
             Budget *) asm("__wrap_" SYM_PTA);
void wrapPta(analysis::PointerAnalysis *This, ir::Module &M,
             const analysis::CallGraph &CG, analysis::PtaOptions Opts,
             Budget *B) {
  bool Traced;
  {
    Scope S("pta");
    Traced = S.active();
    realPta(This, M, CG, Opts, B);
  }
  if (!Traced)
    return;
  const analysis::SolverStatistics &St = This->solverStats();
  trace::count("pta.propagations", St.NumPropagations);
  trace::count("pta.pops", St.NumPops);
  trace::count("pta.collapses", St.NumCollapses);
  uint64_t Vars = 0, Locs = 0;
  for (const auto &F : M.functions())
    for (const auto &V : F->variables()) {
      ++Vars;
      Locs += This->pointsTo(V.get()).size();
    }
  trace::observe("pta.avg_pts_size", Vars ? double(Locs) / Vars : 0.0);
}

void realModRef(analysis::ModRefAnalysis *, const ir::Module &,
                const analysis::CallGraph &,
                const analysis::PointerAnalysis &) asm("__real_" SYM_MODREF);
void wrapModRef(analysis::ModRefAnalysis *, const ir::Module &,
                const analysis::CallGraph &,
                const analysis::PointerAnalysis &) asm("__wrap_" SYM_MODREF);
void wrapModRef(analysis::ModRefAnalysis *This, const ir::Module &M,
                const analysis::CallGraph &CG,
                const analysis::PointerAnalysis &PA) {
  Scope S("modref");
  realModRef(This, M, CG, PA);
}

void realMemSSA(ssa::MemorySSA *, const ir::Module &,
                const analysis::PointerAnalysis &,
                const analysis::ModRefAnalysis &,
                ThreadPool *) asm("__real_" SYM_MEMSSA);
void wrapMemSSA(ssa::MemorySSA *, const ir::Module &,
                const analysis::PointerAnalysis &,
                const analysis::ModRefAnalysis &,
                ThreadPool *) asm("__wrap_" SYM_MEMSSA);
void wrapMemSSA(ssa::MemorySSA *This, const ir::Module &M,
                const analysis::PointerAnalysis &PA,
                const analysis::ModRefAnalysis &MR, ThreadPool *Pool) {
  Scope S("memssa");
  realMemSSA(This, M, PA, MR, Pool);
}

vfg::VFG realVfg(vfg::VFGBuilder *) asm("__real_" SYM_VFG);
vfg::VFG wrapVfg(vfg::VFGBuilder *) asm("__wrap_" SYM_VFG);
vfg::VFG wrapVfg(vfg::VFGBuilder *This) {
  Scope S("vfg");
  vfg::VFG G = realVfg(This);
  if (S.active()) {
    trace::count("vfg.nodes", G.numNodes());
    trace::count("vfg.edges", G.numEdges());
  }
  return G;
}

void realDefinedness(core::Definedness *, const vfg::VFG &,
                     core::DefinednessOptions, const Redirects *,
                     Budget *) asm("__real_" SYM_DEFINEDNESS);
void wrapDefinedness(core::Definedness *, const vfg::VFG &,
                     core::DefinednessOptions, const Redirects *,
                     Budget *) asm("__wrap_" SYM_DEFINEDNESS);
void wrapDefinedness(core::Definedness *This, const vfg::VFG &G,
                     core::DefinednessOptions Opts, const Redirects *R,
                     Budget *B) {
  Scope S("definedness");
  realDefinedness(This, G, Opts, R, B);
  if (S.active())
    trace::count("definedness.undef_nodes", This->numUndefinedNodes());
}

core::OptIIResult realOpt2(const ir::Module &, const ssa::MemorySSA &,
                           const analysis::PointerAnalysis &,
                           const analysis::CallGraph &, const vfg::VFG &,
                           const core::Definedness &, Budget *,
                           ThreadPool *) asm("__real_" SYM_OPT2);
core::OptIIResult wrapOpt2(const ir::Module &, const ssa::MemorySSA &,
                           const analysis::PointerAnalysis &,
                           const analysis::CallGraph &, const vfg::VFG &,
                           const core::Definedness &, Budget *,
                           ThreadPool *) asm("__wrap_" SYM_OPT2);
core::OptIIResult wrapOpt2(const ir::Module &M, const ssa::MemorySSA &SSA,
                           const analysis::PointerAnalysis &PA,
                           const analysis::CallGraph &CG, const vfg::VFG &G,
                           const core::Definedness &Gamma, Budget *B,
                           ThreadPool *Pool) {
  Scope S("opt2");
  core::OptIIResult R = realOpt2(M, SSA, PA, CG, G, Gamma, B, Pool);
  if (S.active())
    trace::count("opt2.redirected", R.NumRedirectedNodes);
  return R;
}

core::InstrumentationPlan realPlan(core::InstrumentationPlanner *) asm(
    "__real_" SYM_PLAN);
core::InstrumentationPlan wrapPlan(core::InstrumentationPlanner *) asm(
    "__wrap_" SYM_PLAN);
core::InstrumentationPlan wrapPlan(core::InstrumentationPlanner *This) {
  Scope S("plan");
  core::InstrumentationPlan P = realPlan(This);
  if (S.active()) {
    trace::count("plan.checks", P.countChecks());
    trace::count("plan.shadow_ops", P.countShadowOps());
    trace::count("plan.simplified_mfcs", This->numSimplifiedMFCs());
  }
  return P;
}

core::UsherResult realRunUsher(ir::Module &, const core::UsherOptions &) asm(
    "__real_" SYM_RUNUSHER);
core::UsherResult wrapRunUsher(ir::Module &, const core::UsherOptions &) asm(
    "__wrap_" SYM_RUNUSHER);
core::UsherResult wrapRunUsher(ir::Module &M, const core::UsherOptions &O) {
  Scope S("runUsher");
  return realRunUsher(M, O);
}

serve::Reply realHandle(serve::Session *, const serve::Request &,
                        const serve::DaemonStatus *) asm("__real_" SYM_HANDLE);
serve::Reply wrapHandle(serve::Session *, const serve::Request &,
                        const serve::DaemonStatus *) asm("__wrap_" SYM_HANDLE);
serve::Reply wrapHandle(serve::Session *This, const serve::Request &Rq,
                        const serve::DaemonStatus *DS) {
  trace::RequestScope R(Rq.Id, /*IsRoot=*/false);
  Scope S("session");
  return realHandle(This, Rq, DS);
}

std::optional<std::string> realLoad(serve::SnapshotStore *, uint64_t) asm(
    "__real_" SYM_LOAD);
std::optional<std::string> wrapLoad(serve::SnapshotStore *, uint64_t) asm(
    "__wrap_" SYM_LOAD);
std::optional<std::string> wrapLoad(serve::SnapshotStore *This, uint64_t Key) {
  Scope S("snapshot.load");
  std::optional<std::string> R = realLoad(This, Key);
  if (S.active())
    trace::count(R ? "snapshot.hits" : "snapshot.misses", 1);
  return R;
}

bool realSave(serve::SnapshotStore *, uint64_t, std::string_view) asm(
    "__real_" SYM_SAVE);
bool wrapSave(serve::SnapshotStore *, uint64_t, std::string_view) asm(
    "__wrap_" SYM_SAVE);
bool wrapSave(serve::SnapshotStore *This, uint64_t Key,
              std::string_view Payload) {
  Scope S("snapshot.save");
  bool Ok = realSave(This, Key, Payload);
  if (S.active())
    trace::count("snapshot.writes", 1);
  return Ok;
}

} // namespace wrap
} // namespace perfbench
