// Wall-clock timing helpers for the benchmark binaries.
//
// Everything here is a thin wrapper over std::chrono::steady_clock; the
// point is that there is exactly one place that picks the clock and the
// unit (seconds as double), instead of each timing site re-deriving both.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>

namespace fsopt {

/// A running stopwatch started at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Wall-clock seconds of one call to `fn`.
inline double time_once(const std::function<void()>& fn) {
  Stopwatch sw;
  fn();
  return sw.seconds();
}

/// Best (minimum) wall-clock seconds over `n` calls to `fn` — the standard
/// microbench estimator: the minimum is the run least disturbed by the
/// machine.  `fn` runs at least once even when n <= 1.
inline double best_of(int n, const std::function<void()>& fn) {
  double best = time_once(fn);
  for (int i = 1; i < n; ++i) best = std::min(best, time_once(fn));
  return best;
}

}  // namespace fsopt
