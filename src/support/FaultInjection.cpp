//===- support/FaultInjection.cpp - Deterministic fault injection -----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/Decimal.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

using namespace usher;

static bool parsePhase(std::string_view Name, BudgetPhase &Out) {
  if (Name == "pta" || Name == "pointer-analysis") {
    Out = BudgetPhase::PointerAnalysis;
    return true;
  }
  if (Name == "definedness" || Name == "def") {
    Out = BudgetPhase::Definedness;
    return true;
  }
  if (Name == "opt1" || Name == "opti") {
    Out = BudgetPhase::OptI;
    return true;
  }
  if (Name == "opt2" || Name == "optii") {
    Out = BudgetPhase::OptII;
    return true;
  }
  return false;
}

std::optional<FaultPlan> usher::parseFaultSpec(std::string_view Spec,
                                               std::string *Err) {
  auto Fail = [&](const char *Msg) -> std::optional<FaultPlan> {
    if (Err)
      *Err = std::string(Msg) + " in fault spec '" + std::string(Spec) +
             "' (expected <phase>@<step>[:once|:<fires>], phase one of "
             "pta|definedness|opt1|opt2)";
    return std::nullopt;
  };

  size_t At = Spec.find('@');
  if (At == std::string_view::npos)
    return Fail("missing '@'");

  FaultPlan Plan;
  if (!parsePhase(Spec.substr(0, At), Plan.Phase))
    return Fail("unknown phase");

  std::string_view Rest = Spec.substr(At + 1);
  size_t Colon = Rest.rfind(':');
  if (Colon != std::string_view::npos) {
    std::string_view Suffix = Rest.substr(Colon + 1);
    if (Suffix == "once") {
      Plan.MaxFires = 1;
    } else {
      // A numeric suffix bounds the fault to the first N matching arms,
      // e.g. "pta@0:2" exhausts the first two pointer-analysis attempts
      // and lets the third (the unification retry) run to completion.
      if (Suffix.empty())
        return Fail("empty fire-count suffix");
      uint64_t Fires = 0;
      if (!parseDecimal(Suffix, UINT32_MAX, Fires))
        return Fail("non-numeric or out-of-range fire-count suffix");
      if (Fires == 0)
        return Fail("fire count must be positive");
      Plan.MaxFires = static_cast<uint32_t>(Fires);
    }
    Rest = Rest.substr(0, Colon);
  }
  if (Rest.empty())
    return Fail("missing step count");
  if (!parseDecimal(Rest, UINT64_MAX, Plan.AtStep))
    return Fail("non-numeric or out-of-range step count");
  return Plan;
}

std::optional<FaultPlan> usher::faultPlanFromEnv() {
  const char *Val = std::getenv(FaultInjectionEnvVar);
  if (!Val || !*Val)
    return std::nullopt;
  std::string Err;
  std::optional<FaultPlan> Plan = parseFaultSpec(Val, &Err);
  if (!Plan)
    std::fprintf(stderr, "warning: ignoring %s: %s\n", FaultInjectionEnvVar,
                 Err.c_str());
  return Plan;
}

//===----------------------------------------------------------------------===//
// Deterministic I/O fault sites
//===----------------------------------------------------------------------===//

const char *usher::ioFaultSiteName(IoFaultSite S) {
  switch (S) {
  case IoFaultSite::SnapshotRead:
    return "snapshot-read";
  case IoFaultSite::SnapshotWrite:
    return "snapshot-write";
  case IoFaultSite::SnapshotTornWrite:
    return "snapshot-torn-write";
  case IoFaultSite::SocketDropReply:
    return "socket-drop-reply";
  case IoFaultSite::ParseAlloc:
    return "parse-alloc";
  }
  return "unknown";
}

bool usher::parseIoFaultSiteName(std::string_view Name, IoFaultSite &Out) {
  for (unsigned I = 0; I != NumIoFaultSites; ++I) {
    IoFaultSite S = static_cast<IoFaultSite>(I);
    if (Name == ioFaultSiteName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

std::optional<IoFaultSpec> usher::parseIoFaultSpec(std::string_view Spec,
                                                   std::string *Err) {
  auto Fail = [&](const char *Msg) -> std::optional<IoFaultSpec> {
    if (Err)
      *Err = std::string(Msg) + " in I/O fault spec '" + std::string(Spec) +
             "' (expected <site>@<hit>[:once], site one of "
             "snapshot-read|snapshot-write|snapshot-torn-write|"
             "socket-drop-reply|parse-alloc)";
    return std::nullopt;
  };

  size_t At = Spec.find('@');
  if (At == std::string_view::npos)
    return Fail("missing '@'");

  IoFaultSpec Plan;
  if (!parseIoFaultSiteName(Spec.substr(0, At), Plan.Site))
    return Fail("unknown site");

  std::string_view Rest = Spec.substr(At + 1);
  if (Rest.size() >= 5 && Rest.substr(Rest.size() - 5) == ":once") {
    Plan.Once = true;
    Rest = Rest.substr(0, Rest.size() - 5);
  }
  if (Rest.empty())
    return Fail("missing hit ordinal");
  if (!parseDecimal(Rest, UINT64_MAX, Plan.AtHit))
    return Fail("non-numeric or out-of-range hit ordinal");
  if (Plan.AtHit == 0)
    return Fail("hit ordinal is 1-based");
  return Plan;
}

std::optional<IoFaultSpec> usher::ioFaultSpecFromEnv() {
  const char *Val = std::getenv(IoFaultInjectionEnvVar);
  if (!Val || !*Val)
    return std::nullopt;
  std::string Err;
  std::optional<IoFaultSpec> Plan = parseIoFaultSpec(Val, &Err);
  if (!Plan)
    std::fprintf(stderr, "warning: ignoring %s: %s\n", IoFaultInjectionEnvVar,
                 Err.c_str());
  return Plan;
}

namespace {

/// Process-global state of one I/O site. Traversals are counted with a
/// relaxed atomic; arming takes a mutex (rare, test/setup only).
struct IoSiteState {
  std::atomic<bool> Armed{false};
  std::atomic<uint64_t> AtHit{0};
  std::atomic<bool> Once{false};
  std::atomic<uint64_t> Hits{0};
};

IoSiteState &ioSite(IoFaultSite S) {
  static IoSiteState Sites[NumIoFaultSites];
  return Sites[static_cast<unsigned>(S)];
}

std::mutex &ioArmMutex() {
  static std::mutex M;
  return M;
}

} // namespace

void usher::armIoFault(const IoFaultSpec &Spec) {
  std::lock_guard<std::mutex> L(ioArmMutex());
  IoSiteState &St = ioSite(Spec.Site);
  St.Hits.store(0, std::memory_order_relaxed);
  St.AtHit.store(Spec.AtHit, std::memory_order_relaxed);
  St.Once.store(Spec.Once, std::memory_order_relaxed);
  St.Armed.store(true, std::memory_order_release);
}

void usher::disarmIoFaults() {
  std::lock_guard<std::mutex> L(ioArmMutex());
  for (unsigned I = 0; I != NumIoFaultSites; ++I) {
    IoSiteState &St = ioSite(static_cast<IoFaultSite>(I));
    St.Armed.store(false, std::memory_order_release);
    St.Hits.store(0, std::memory_order_relaxed);
  }
}

bool usher::ioFaultShouldFail(IoFaultSite S) {
  IoSiteState &St = ioSite(S);
  uint64_t Ordinal = St.Hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!St.Armed.load(std::memory_order_acquire))
    return false;
  uint64_t At = St.AtHit.load(std::memory_order_relaxed);
  if (St.Once.load(std::memory_order_relaxed))
    return Ordinal == At;
  return Ordinal >= At;
}

uint64_t usher::ioFaultTraversals(IoFaultSite S) {
  return ioSite(S).Hits.load(std::memory_order_relaxed);
}

std::vector<std::string> usher::allFaultSiteNames() {
  std::vector<std::string> Names;
  for (unsigned P = 0; P != NumBudgetPhases; ++P)
    Names.push_back(budgetPhaseName(static_cast<BudgetPhase>(P)));
  for (unsigned I = 0; I != NumIoFaultSites; ++I)
    Names.push_back(ioFaultSiteName(static_cast<IoFaultSite>(I)));
  return Names;
}
