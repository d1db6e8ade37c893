//===- core/SanitizerClient.h - Multi-client sanitizer framework -*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client-agnostic sanitizer framework. A *client* is one detector
/// expressed over the shared plan vocabulary (core/InstrumentationPlan.h):
/// it contributes a source set (which values are born "bad"), a sink
/// predicate (where badness must be checked), shadow transfer semantics
/// (how runtime shadow planes initialize), and warning rendering. The
/// pipeline's machinery — Definedness reachability, the Figure 7 planner,
/// the shadow interpreter — is parameterized over these hooks, so one VFG
/// serves every client in a single pass.
///
/// Clients:
///  - UUV:      the paper's use-of-undefined-values detector. It is the
///              *native* client: its plan is produced by runUsher exactly
///              as before this framework existed, byte-for-byte.
///  - AddrLeak: taint from allocation sites (NodeOrigin::AllocPtr) to
///              escaping stores (stores that may target a global object)
///              and to main's return value. Shadow F means "carries an
///              allocated address". Taking a *global's* address is out of
///              scope: ShadowVal::operand maps global-address operands to
///              literal T, which exactly matches the intended policy (a
///              global's address is not a leak).
///  - Bounds:   spatial safety. CheckBounds after each field-address
///              instruction warns when the formed pointer lies outside its
///              object, before any dereference would trap. Statically safe
///              sites are proven by *provenance* (base is a fresh object
///              base pointer, constant index within the object): points-to
///              facts alone are unsound here, because the loc domain of the
///              pointer analysis cannot witness a pointer that is already
///              out of range. The remaining unsafe sites go through the
///              OptiSan-style budgeted placement (core/Placement.h), which
///              maximizes loop-weighted coverage subject to a modeled
///              slowdown capacity derived from runtime/CostModel.h.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_CORE_SANITIZERCLIENT_H
#define USHER_CORE_SANITIZERCLIENT_H

#include "core/InstrumentationPlan.h"

#include <string>
#include <string_view>
#include <vector>

namespace usher {

namespace analysis {
class PointerAnalysis;
}
namespace vfg {
class VFG;
}

namespace core {

/// The detectors the framework knows how to plan.
enum class ClientKind : uint8_t { UUV, AddrLeak, Bounds };
constexpr unsigned NumClientKinds = 3;

/// Stable lower-case name ("uuv", "addrleak", "bounds") used by --client=,
/// the serve protocol, diagnostic JSON, and ctest labels.
const char *clientName(ClientKind K);

/// Appends the clients of a comma-separated name list ("uuv,bounds") to
/// \p Out, in order. Returns false if any element is not a client name
/// (the empty list included).
bool parseClientList(std::string_view List, std::vector<ClientKind> &Out);

/// The warning phrase rendered for this client's runtime checks, e.g.
/// "use of undefined value" for UUV.
const char *clientWarningText(ClientKind K);

/// How the runtime shadow planes initialize for one client. The plan
/// vocabulary is shared; what differs per client is what "no information"
/// means at the points the plan never writes.
struct ShadowSemantics {
  /// Shadow value a fresh frame's variable slots start at. UUV: false
  /// (locals are undefined on entry, like C). Taint clients: true (an
  /// uninitialized local carries no address).
  bool FrameInit = false;
  /// Global objects' cell shadows start at MemObject::isInitialized()
  /// (UUV: an uninit global is undefined). When false they start clean
  /// (taint clients: a global's initial contents hold no address).
  bool GlobalsFromInit = true;
};

/// The semantics the interpreter must run client \p K's plan under.
ShadowSemantics clientShadowSemantics(ClientKind K);

/// One client's plan plus the placement accounting surfaced by --stats.
struct ClientPlanInfo {
  ClientKind Kind;
  InstrumentationPlan Plan;
  /// Candidate sink sites considered (bounds: field-address sites in
  /// reachable code; addrleak: escaping stores plus main returns).
  uint64_t SinkCandidates = 0;
  /// Sites static analysis could not discharge.
  uint64_t UnsafeSinks = 0;
  /// Checks actually placed in the plan.
  uint64_t ChosenChecks = 0;
  /// Budgeted placement accounting (bounds only; zero when unlimited).
  uint64_t PlacementCapacity = 0;
  uint64_t PlacementCost = 0;
  /// True if the slowdown capacity excluded candidate checks.
  bool CapacityBound = false;

  ClientPlanInfo(ClientKind Kind, InstrumentationPlan Plan)
      : Kind(Kind), Plan(std::move(Plan)) {}
};

/// Everything a client plan builder may consult. The analysis pointers are
/// null on the degraded (MSan-rung) path, where only full client plans can
/// be built.
struct ClientBuildInputs {
  const ir::Module &M;
  const analysis::PointerAnalysis *PA = nullptr;
  const vfg::VFG *G = nullptr;
  /// Call-site sensitivity of the taint resolution (matches the UUV run).
  unsigned ContextK = 1;
  /// Bounds client: modeled slowdown capacity as a percentage of the
  /// loop-weighted static base cost. 0 = unlimited (every unsafe site is
  /// instrumented).
  unsigned BoundsBudgetPercent = 0;

  explicit ClientBuildInputs(const ir::Module &M) : M(M) {}
};

/// Builds the *guided* plan for a non-UUV client: static analysis
/// discharges provably-safe sites, the rest are instrumented (bounds:
/// subject to the placement budget). AddrLeak requires the full analysis
/// pipeline (In.PA / In.G); Bounds needs only the module. UUV is
/// planned by runUsher itself.
ClientPlanInfo buildClientPlan(ClientKind K, const ClientBuildInputs &In);

/// Builds the *full* (MSan-analog) plan for a non-UUV client: every
/// statement shadowed, every sink checked, no static analysis consulted
/// beyond the optional points-to refinement of the sink set. This is both
/// the degradation-ladder landing for clients and the reference side of
/// the fuzzer's guided-vs-full differential oracle.
ClientPlanInfo buildClientFullPlan(ClientKind K, const ClientBuildInputs &In);

} // namespace core
} // namespace usher

#endif // USHER_CORE_SANITIZERCLIENT_H
