// fsopt end-to-end benchmark: shared declarations.
//
// One process runs one workload (plan_search, cache_sweep or ksr_speedup)
// as a closed loop: a single client issues operations back to back, each
// a call into the public driver/analysis/sim entry points, and checks
// every operation's output against golden values captured at the seed
// commit (golden.txt).  See README.md for the workload rationale.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/common.h"

namespace perfbench {

using fsopt::i64;
using fsopt::u64;

/// Golden values, one `workload<TAB>key<TAB>integer` line each.
class Golden {
 public:
  /// Parse `path`; throws std::runtime_error on an unreadable file or a
  /// malformed line.
  static Golden load(const std::string& path);

  /// The value for (workload, key), or nullptr when absent.
  const i64* find(const std::string& workload, const std::string& key) const;
  void set(const std::string& workload, const std::string& key, i64 value);

  /// Decrement the first value (in key order) of `workload`, so that
  /// the operation checking it must fail.  Used by the self-test.
  void corrupt_first(const std::string& workload);

  /// Write every value back out in the load format, sorted.
  bool save(const std::string& path) const;

 private:
  std::map<std::string, std::map<std::string, i64>> values_;
};

/// What one operation produced, beyond its wall time.
struct OpResult {
  /// Empty when every check passed; otherwise what mismatched.
  std::string failure;
  /// This op's contribution to plan_fs_misses (see README.md).
  u64 plan_fs_misses = 0;
  /// Pareto-frontier size of a plan search (0 for other workloads).
  u64 frontier_size = 0;
};

/// One benchmark workload: a fixed set of distinct operations ("kinds")
/// the closed loop cycles through in a seeded order.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Everything before the first operation (timed as setup_s).
  virtual void setup() = 0;
  /// Number of distinct operations; one pass runs each once.
  virtual size_t kinds() const = 0;
  virtual std::string label(size_t kind) const = 0;
  /// Run one operation and check its output against `golden`.  A
  /// mismatch is reported in OpResult::failure, never thrown; an
  /// exception escaping the library also counts as a failed op.
  virtual OpResult run(size_t kind, const Golden& golden) = 0;
  /// Extra work after the measured loop that a metric needs (untimed);
  /// returns plan_fs_misses when the ops themselves cannot produce it,
  /// else 0.
  virtual u64 post_run() { return 0; }
  /// Record this workload's golden values from the current code.
  virtual void capture(Golden& golden) = 0;
  /// Per-kind reference work for throughput ratios in the traced run:
  /// simulated instructions and cycles of one op (ksr_speedup only).
  virtual std::pair<u64, u64> reference_work(size_t /*kind*/,
                                             const Golden& /*golden*/) const {
    return {0, 0};
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// Experiment-pool width: min(4, hardware threads).
int pool_width();

}  // namespace perfbench
