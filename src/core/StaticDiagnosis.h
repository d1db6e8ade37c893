//===- core/StaticDiagnosis.h - Static UUV diagnosis ------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static UUV diagnosis engine: turns the Gamma reachability of
/// Section 3.3 from an instrumentation-pruning oracle into a user-facing
/// checker. Three pieces:
///
///  1. A *must-undef* pass over the VFG — an under-approximating
///     analysis layered on the same graph Gamma runs on. A node is
///     must-undef when, per its provenance-specific transfer rule, the
///     values it describes are undefined in every execution that computes
///     them (see DESIGN.md for the rules and the anchor hypothesis the
///     default posture encodes). Combined with Gamma this classifies each
///     critical operation as CLEAN (Gamma top), DEFINITE-UUV (must-undef
///     and witnessed), or MAY-UUV (everything between).
///
///  2. A *witness-path reconstructor*: a breadth-first search forward
///     from the F root over value-flow (user) edges, replaying exactly
///     the k-bounded call-site context transitions of the Definedness
///     pass (shared via core/ContextStack.h), yielding for every
///     non-CLEAN finding a shortest context-valid value-flow slice from
///     the undefined root to the critical operation, with matched
///     call/return labels.
///
///  3. Renderers: human-readable text and machine-readable JSON (schema
///     "usher-diagnosis-v1", SARIF-like: ruleId, severity, locations,
///     codeFlow), consumed by `usher-cli --diagnose` and validated by
///     tools/check_diag_json.py.
///
/// The differential harness in tests/DiagnosisDifferentialTest.cpp checks
/// the two directional guarantees against the shadow interpreter's
/// ground-truth oracle: soundness (no oracle warning is classified CLEAN)
/// and must-precision (every DEFINITE finding fires at runtime).
///
//===----------------------------------------------------------------------===//

#ifndef USHER_CORE_STATICDIAGNOSIS_H
#define USHER_CORE_STATICDIAGNOSIS_H

#include "core/Definedness.h"
#include "support/BitSet.h"
#include "vfg/VFG.h"

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace usher {

class raw_ostream;

namespace analysis {
class CallGraph;
class PointerAnalysis;
} // namespace analysis

namespace ir {
class BasicBlock;
class Function;
} // namespace ir

namespace core {

/// Three-way classification of a critical operation.
enum class Verdict : uint8_t { Clean, May, Definite };

/// Lower-case name used in reports and JSON ("clean", "may", "definite").
const char *verdictName(Verdict V);

/// Options for the diagnosis engine.
struct DiagnosisOptions {
  /// Call-site sensitivity of the underlying reachability (paper: 1).
  unsigned ContextK = 1;

  /// The diagnosis posture. The default (false) is the posture validated
  /// by the differential harness over the benchmark suite. It assumes the
  /// *coverage hypothesis* documented in DESIGN.md: workload-style programs
  /// exercise both directions of every branch and enter every function
  /// reachable from main. Under it, an SSA phi, a call flow (call result,
  /// formal parameter) or an alloc_F chi over an exact cell is
  /// must-undefined as soon as any dependency is, and DEFINITE requires
  /// the op's block to post-dominate its function's entry in a function
  /// reachable from main in the call graph.
  ///
  /// Conservative drops the hypothesis: those merges need all their
  /// dependencies must-undefined, and a function counts as entered only if
  /// it is main or is called from a must-execute block of an entered
  /// function. DEFINITE then provably fires on every terminating run; the
  /// harness's random-program sweep runs this posture.
  bool Conservative = false;
};

/// One step of a witness path. Steps run from the F root to the use node;
/// every step but the last carries the value-flow edge to its successor.
struct WitnessStep {
  uint32_t Node;                  ///< VFG node id.
  bool HasEdge = false;           ///< False only on the final step.
  vfg::EdgeKind Kind = vfg::EdgeKind::Direct;
  uint32_t CallSite = ~0u;        ///< Instruction id of the call, if labeled.
};

/// One non-CLEAN finding at a critical operation.
struct Finding {
  const ir::Instruction *I;       ///< The critical operation.
  const ir::Variable *Var;        ///< The top-level variable used there.
  uint32_t UseNode;               ///< VFG node of the used SSA version.
  Verdict V = Verdict::May;       ///< May or Definite (never Clean).
  /// Shortest context-valid value-flow slice F -> ... -> UseNode. Empty
  /// only if the witness search hit its state cap before reaching the
  /// node (the finding is then downgraded to May).
  std::vector<WitnessStep> Witness;
};

/// Aggregate result of one diagnosis run.
struct DiagnosisReport {
  /// Non-CLEAN findings, ordered by instruction id (deterministic).
  std::vector<Finding> Findings;
  /// Verdict per critical use, parallel to VFG::criticalUses().
  std::vector<Verdict> UseVerdicts;
  uint64_t NumClean = 0, NumMay = 0, NumDefinite = 0;
};

/// The diagnosis engine. Computes its own address-taken-aware Gamma so
/// verdicts are independent of whatever variant/degradation the caller's
/// pipeline ran with.
class StaticDiagnosis {
public:
  StaticDiagnosis(const analysis::PointerAnalysis &PA,
                  const analysis::CallGraph &CG, const vfg::VFG &G,
                  DiagnosisOptions Opts = DiagnosisOptions());

  const DiagnosisReport &report() const { return Report; }

  /// True if the must-undef pass proved every value \p Node describes
  /// undefined (on the paths that compute it; see DESIGN.md).
  bool mustBeUndefined(uint32_t Node) const { return MustUndef.test(Node); }

  /// True if \p Node may be undefined per the engine's own Gamma.
  bool mayBeUndefined(uint32_t Node) const {
    return Gamma->mayBeUndefined(Node);
  }

  /// Per-node verdicts for VFG::dumpDot annotation.
  std::vector<vfg::VFG::DotVerdict> dotVerdicts() const;

  /// Human-readable report, one block per finding with its value flow.
  void printText(raw_ostream &OS) const;

  /// Machine-readable report (schema "usher-diagnosis-v1").
  void printJson(raw_ostream &OS) const;

private:
  void computeMustUndef(const analysis::CallGraph &CG);
  void computeMustFire(const analysis::CallGraph &CG);
  bool mustFire(const ir::Instruction *I) const;
  void classify();
  void reconstructWitnesses();
  void describeNode(raw_ostream &OS, uint32_t Node) const;

  const analysis::PointerAnalysis &PA;
  const vfg::VFG &G;
  DiagnosisOptions Opts;
  std::unique_ptr<Definedness> Gamma;
  BitSet MustUndef;
  /// The must-fire gate: entered functions and, per function, the blocks
  /// on every entry-to-return path.
  std::unordered_set<const ir::Function *> Entered;
  std::unordered_map<const ir::Function *,
                     std::unordered_set<const ir::BasicBlock *>>
      MustExec;
  DiagnosisReport Report;
};

} // namespace core
} // namespace usher

#endif // USHER_CORE_STATICDIAGNOSIS_H
