//===- support/Timer.h - Wall-clock timing and memory probes ----*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small timing helpers used by the Table 1 statistics (analysis time and
/// memory columns).
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_TIMER_H
#define USHER_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace usher {

/// Measures elapsed wall-clock time from construction or the last reset.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the measurement window.
  void reset() { Start = Clock::now(); }

  /// Returns seconds elapsed since construction or the last reset.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Returns milliseconds elapsed since construction or the last reset.
  double millis() const { return seconds() * 1000.0; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// Returns the process peak resident set size in bytes, or 0 if unknown.
/// Reads /proc/self/status, so this is Linux-specific by design (the
/// benchmarking environment is Linux).
uint64_t peakRSSBytes();

} // namespace usher

#endif // USHER_SUPPORT_TIMER_H
