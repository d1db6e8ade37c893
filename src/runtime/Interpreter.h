//===- runtime/Interpreter.h - Shadow-memory interpreter --------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic interpreter for TinyC that optionally executes an
/// InstrumentationPlan alongside the program, exactly as an MSan-style
/// runtime would: boolean shadows for top-level variables (per frame) and
/// for memory cells, shadow transfer registers across calls, and runtime
/// checks at critical operations.
///
/// Independently of any plan, the interpreter maintains an *oracle*: the
/// precise definedness of every value. Oracle warnings are the ground
/// truth that instrumented runs are compared against in tests, and the
/// oracle is never charged to the modeled execution cost.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_RUNTIME_INTERPRETER_H
#define USHER_RUNTIME_INTERPRETER_H

#include "core/InstrumentationPlan.h"
#include "core/SanitizerClient.h"
#include "runtime/CostModel.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace usher {
namespace runtime {

/// Why an execution stopped.
enum class ExitReason {
  Finished,       ///< main returned.
  StepLimit,      ///< exceeded ExecLimits::MaxSteps.
  Trap,           ///< wild pointer, out-of-range field, call-depth, ...
  Interrupted,    ///< ExecLimits::Interrupt was raised (e.g. SIGINT).
};

/// Resource limits for one execution.
struct ExecLimits {
  uint64_t MaxSteps = 200'000'000;
  uint32_t MaxCallDepth = 4096;
  /// Cooperative cancellation: when non-null, the interpreter polls this
  /// flag periodically (every few thousand steps) and stops with
  /// ExitReason::Interrupted once it reads true. Signal handlers set the
  /// flag; the interpreter does the orderly stop, so a partial report is
  /// always available for flushing.
  const std::atomic<bool> *Interrupt = nullptr;
  /// Record executed control-flow edges and the peak frame depth in the
  /// report (ExecutionReport::EdgeHits / MaxFrameDepth). Off by default:
  /// the counters are cheap but not free, and only the fuzzer's coverage
  /// scheduler needs them.
  bool CollectCoverage = false;
};

/// Stable 64-bit key for one executed control-flow edge: the function's
/// module id plus the source and target block ids (valid after
/// Module::renumber(), which both the parser and generator guarantee).
inline uint64_t edgeKey(uint32_t FnId, uint32_t FromBlock, uint32_t ToBlock) {
  return (static_cast<uint64_t>(FnId) << 40) |
         (static_cast<uint64_t>(FromBlock) << 20) |
         static_cast<uint64_t>(ToBlock);
}

/// A deduplicated runtime warning ("use of undefined value").
struct Warning {
  const ir::Instruction *At;
  uint64_t Occurrences;
};

/// One instrumentation plan to execute, paired with the shadow semantics
/// of the client it belongs to. Several PlanExecs run side by side in a
/// single pass: each gets its own shadow planes (frame slots, memory
/// cells, transfer registers), while the base execution is shared.
struct PlanExec {
  const core::InstrumentationPlan *Plan = nullptr;
  core::ShadowSemantics Sem;
};

/// Per-plan outcome of a multi-client run.
struct PlanReport {
  std::vector<Warning> ToolWarnings;
  uint64_t DynShadowOps = 0;
  uint64_t DynChecks = 0;
  double ShadowCost = 0;
};

/// Everything one execution produced.
struct ExecutionReport {
  ExitReason Reason = ExitReason::Finished;
  std::string TrapMessage;
  int64_t MainResult = 0;

  uint64_t Steps = 0;
  double BaseCost = 0;
  double ShadowCost = 0;
  uint64_t DynShadowOps = 0; ///< Executed shadow operations (non-check).
  uint64_t DynChecks = 0;    ///< Executed runtime checks.

  /// Tool warnings (from plan checks), keyed by instruction id. With
  /// several plans this aggregates plan 0 only (the legacy field); see
  /// PlanResults for per-plan warning sets.
  std::vector<Warning> ToolWarnings;
  /// Ground-truth warnings: undefined values used at critical operations.
  std::vector<Warning> OracleWarnings;

  /// Per-plan results, in the order the plans were passed. A single-plan
  /// run has exactly one entry whose fields equal the legacy aggregates.
  std::vector<PlanReport> PlanResults;

  /// Executed control-flow edges (branch/goto transfers), keyed by
  /// edgeKey(); populated only with ExecLimits::CollectCoverage.
  std::unordered_map<uint64_t, uint64_t> EdgeHits;
  /// Deepest call stack reached (frames alive at once); only with
  /// ExecLimits::CollectCoverage.
  uint32_t MaxFrameDepth = 0;

  /// Modeled slowdown over native execution, in percent (the unit of
  /// Figure 10). Zero when no plan was executed.
  double slowdownPercent() const {
    return BaseCost > 0 ? 100.0 * ShadowCost / BaseCost : 0.0;
  }

  /// True if a tool warning was recorded at \p I.
  bool toolWarnedAt(const ir::Instruction *I) const;
};

/// Executes TinyC modules.
class Interpreter {
public:
  /// Prepares to run \p M, optionally under \p Plan (null = native run).
  /// Both must outlive the interpreter. Equivalent to the multi-plan
  /// constructor with a single UUV-semantics PlanExec.
  Interpreter(const ir::Module &M, const core::InstrumentationPlan *Plan,
              CostModel Model = CostModel(), ExecLimits Limits = ExecLimits());

  /// Prepares to run \p M under several plans at once (one per client).
  /// The module and every plan must outlive the interpreter.
  Interpreter(const ir::Module &M, std::vector<PlanExec> Plans,
              CostModel Model = CostModel(), ExecLimits Limits = ExecLimits());
  ~Interpreter();

  /// Runs main() to completion (or a limit) and returns the report.
  ExecutionReport run();

private:
  class Impl;
  std::unique_ptr<Impl> PImpl;
};

} // namespace runtime
} // namespace usher

#endif // USHER_RUNTIME_INTERPRETER_H
