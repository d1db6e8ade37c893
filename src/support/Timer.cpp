//===- support/Timer.cpp - Wall-clock timing and memory probes -----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/Timer.h"

#include <cstdio>
#include <cstring>

using namespace usher;

uint64_t usher::peakRSSBytes() {
  std::FILE *FP = std::fopen("/proc/self/status", "r");
  if (!FP)
    return 0;
  char Line[256];
  uint64_t Result = 0;
  while (std::fgets(Line, sizeof(Line), FP)) {
    if (std::strncmp(Line, "VmHWM:", 6) != 0)
      continue;
    unsigned long long KB = 0;
    if (std::sscanf(Line + 6, " %llu", &KB) == 1)
      Result = static_cast<uint64_t>(KB) * 1024;
    break;
  }
  std::fclose(FP);
  return Result;
}
