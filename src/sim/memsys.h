// Memory-system timing interface for the execution-driven interpreter.
//
// In trace mode the interpreter runs without one and every reference
// costs the same (MachineOptions::kTraceRefCycles), so timing does not
// matter; in KSR mode (sim/ksr.h) each reference goes through a coherent
// cache and pays hit/miss/ring-contention latencies.
#pragma once

#include "support/common.h"

namespace fsopt {

class MemorySystem {
 public:
  virtual ~MemorySystem() = default;

  /// Perform one reference by `proc` at local time `now`; returns its
  /// latency in cycles.
  virtual i64 access(int proc, i64 addr, i64 size, bool is_write,
                     i64 now) = 0;
};

}  // namespace fsopt
