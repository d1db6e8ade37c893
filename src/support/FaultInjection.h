//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's deterministic fault plane. Two families of sites:
///
/// *Budget sites* drive the budget subsystem. A fault spec names a
/// budgeted phase and the iteration at which its budget should report
/// exhaustion:
///
///   <phase>@<step>[:once|:<fires>]
///
/// where <phase> is one of pta, definedness, opt1, opt2 (the
/// budgetPhaseName() spellings; pointer-analysis/def/opti/optii are
/// accepted as aliases). step 0 exhausts the phase upon entry. The :once
/// suffix fires on the first matching arm only, which lets tests exercise
/// retry rungs (e.g. fail the field-sensitive Andersen run but let the
/// field-insensitive rerun finish). A numeric :<fires> suffix generalizes
/// this to the first N matching arms, so deeper rungs are reachable:
/// "pta@0:2" fails both Andersen attempts and lands on the MSan rung.
///
/// *I/O sites* cover the analysis service's system-call boundaries
/// (serve/): snapshot-store reads and writes, a torn snapshot write, a
/// socket drop while a reply is being delivered, and an allocation
/// failure while a request frame is parsed. Each site is armed with
///
///   <site>@<hit>[:once]
///
/// where <hit> is the 1-based traversal ordinal at which the site starts
/// failing; with :once only that single traversal fails. Arming is
/// process-global (armIoFault / the USHER_INJECT_IO_FAULT environment
/// variable) and every traversal is counted, so campaigns are exactly
/// reproducible.
///
/// Specs come from the CLIs' --inject-fault= flags or, for harnesses that
/// cannot pass flags, the USHER_INJECT_FAULT / USHER_INJECT_IO_FAULT
/// environment variables. allFaultSiteNames() enumerates every site of
/// both families so campaign drivers (`usher-cli --list-fault-sites`,
/// check_serve_json.py --run-fault) cannot silently miss one added later.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_FAULTINJECTION_H
#define USHER_SUPPORT_FAULTINJECTION_H

#include "support/Budget.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace usher {

/// The environment variable consulted by faultPlanFromEnv().
inline constexpr const char *FaultInjectionEnvVar = "USHER_INJECT_FAULT";

/// Parses a "<phase>@<step>[:once|:<fires>]" spec. Returns std::nullopt
/// on a malformed spec and, when \p Err is non-null, stores a diagnostic.
std::optional<FaultPlan> parseFaultSpec(std::string_view Spec,
                                        std::string *Err = nullptr);

/// Reads USHER_INJECT_FAULT; returns std::nullopt when unset or malformed
/// (a malformed value is reported on stderr rather than silently ignored).
std::optional<FaultPlan> faultPlanFromEnv();

//===----------------------------------------------------------------------===//
// Deterministic I/O fault sites
//===----------------------------------------------------------------------===//

/// The I/O boundaries the serve subsystem hardens. Keep ioFaultSiteName()
/// and parseIoFaultSiteName() in sync when adding a site — the campaign
/// enumeration (allFaultSiteNames) derives from NumIoFaultSites, so a new
/// enumerator is automatically picked up by --list-fault-sites and the
/// serve_fault tier.
enum class IoFaultSite : uint8_t {
  SnapshotRead = 0,  ///< Snapshot-store load fails (treated as a miss).
  SnapshotWrite,     ///< Snapshot-store save fails (entry not persisted).
  SnapshotTornWrite, ///< Save persists a truncated record (simulated torn
                     ///< write / crash between write and fsync).
  SocketDropReply,   ///< Connection dropped while a reply is delivered.
  ParseAlloc,        ///< Allocation failure while parsing a request frame.
};
constexpr unsigned NumIoFaultSites = 5;

/// Stable lower-case site name used in specs and --list-fault-sites
/// ("snapshot-read", "snapshot-write", "snapshot-torn-write",
/// "socket-drop-reply", "parse-alloc").
const char *ioFaultSiteName(IoFaultSite S);

/// Inverse of ioFaultSiteName(). Returns false on an unknown name.
bool parseIoFaultSiteName(std::string_view Name, IoFaultSite &Out);

/// A deterministic I/O fault: the named site fails on its AtHit-th
/// traversal (1-based) and, unless Once, on every traversal after it.
struct IoFaultSpec {
  IoFaultSite Site = IoFaultSite::SnapshotRead;
  uint64_t AtHit = 1;
  bool Once = false;
};

/// Parses a "<site>@<hit>[:once]" spec. Returns std::nullopt on a
/// malformed spec and, when \p Err is non-null, stores a diagnostic.
std::optional<IoFaultSpec> parseIoFaultSpec(std::string_view Spec,
                                            std::string *Err = nullptr);

/// The environment variable consulted by ioFaultSpecFromEnv().
inline constexpr const char *IoFaultInjectionEnvVar = "USHER_INJECT_IO_FAULT";

/// Reads USHER_INJECT_IO_FAULT; returns std::nullopt when unset or
/// malformed (a malformed value is reported on stderr).
std::optional<IoFaultSpec> ioFaultSpecFromEnv();

/// Arms \p Spec process-wide. Re-arming a site resets its traversal
/// counter. Thread-safe.
void armIoFault(const IoFaultSpec &Spec);

/// Disarms every I/O site and resets all traversal counters (tests).
void disarmIoFaults();

/// Consulted by the instrumented I/O boundary: counts one traversal of
/// \p S and returns true if the armed plan says this traversal fails.
/// With nothing armed this is a single relaxed atomic increment.
bool ioFaultShouldFail(IoFaultSite S);

/// Traversals of \p S counted so far (diagnostics and tests).
uint64_t ioFaultTraversals(IoFaultSite S);

/// Every deterministic fault site name: the four budget phases first,
/// then the I/O sites. The source of truth for --list-fault-sites and
/// fault campaigns.
std::vector<std::string> allFaultSiteNames();

} // namespace usher

#endif // USHER_SUPPORT_FAULTINJECTION_H
