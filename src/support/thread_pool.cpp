#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace fsopt {

namespace {
// 0 = auto (FSOPT_THREADS or hardware concurrency).
std::atomic<int> g_experiment_threads{0};
}  // namespace

void set_experiment_threads(int threads) {
  g_experiment_threads.store(threads < 0 ? 0 : threads);
}

int experiment_threads() {
  if (const int n = g_experiment_threads.load(); n > 0) return n;
  if (const char* env = std::getenv("FSOPT_THREADS"))
    if (std::optional<int> n = parse_count(env); n && *n >= 1) return *n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for_each(int threads, size_t n,
                       const std::function<void(size_t)>& body) {
  if (threads <= 0) threads = experiment_threads();
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  static obs::Counter& jobs = obs::metric_counter("pool.jobs");
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  {
    // The workers read this frame, so every one of them is joined (the
    // jthreads' destructors) before the frame goes away — also when
    // starting a later worker throws.
    const size_t workers = std::min(static_cast<size_t>(threads), n);
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
      pool.emplace_back([&, w] {
        if (obs::enabled())
          obs::set_thread_name("pool-worker-" + std::to_string(w));
        jobs.inc();
        try {
          obs::Span span("pool", "job");
          for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(error_mu);
          if (first_error == nullptr) first_error = std::current_exception();
        }
      });
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace fsopt
