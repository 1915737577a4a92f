// Tests for the experiment harness's fork-join parallel_for_each and the
// thread-count knob that resolves its `threads = 0`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace fsopt {
namespace {

TEST(ParallelForEach, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 5}) {
    std::vector<std::atomic<int>> hits(57);
    parallel_for_each(threads, hits.size(),
                      [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
  }
}

TEST(ParallelForEach, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for_each(16, hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForEach, ZeroItemsIsANoop) {
  parallel_for_each(4, 0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForEach, SerialPathPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_each(1, 3,
                        [](size_t i) {
                          if (i == 1) throw InternalError("boom");
                        }),
      InternalError);
}

TEST(ParallelForEach, PooledPathPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_each(4, 8,
                        [](size_t i) {
                          if (i == 3) throw InternalError("boom");
                        }),
      InternalError);
}

TEST(ParallelForEach, JoinsEveryWorkerBeforeRethrowing) {
  // Index 0 fails at once while the other bodies are still running.  They
  // share the caller's stack frame, so the failure may reach the caller
  // only after every one of them has finished.
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  try {
    parallel_for_each(4, 8, [&](size_t i) {
      ++started;
      if (i == 0) throw InternalError("boom");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++finished;
    });
    FAIL() << "the failure of index 0 was not rethrown";
  } catch (const InternalError&) {
    EXPECT_GT(finished.load(), 0);
    EXPECT_EQ(finished.load(), started.load() - 1);
  }
}

TEST(ExperimentThreads, HonoursEnvOverrideTakenWhole) {
  set_experiment_threads(0);
  ASSERT_EQ(unsetenv("FSOPT_THREADS"), 0);
  const int unset = experiment_threads();  // the hardware concurrency
  EXPECT_GE(unset, 1);
  ASSERT_EQ(setenv("FSOPT_THREADS", "3", 1), 0);
  EXPECT_EQ(experiment_threads(), 3);
  // Anything but a whole count >= 1 is ignored: no prefix is taken
  // ("12x"), and nothing wraps into range ("3000000000", "4294967297").
  for (const char* bad :
       {"bogus", "12x", "3000000000", "4294967297", "0", "-2", ""}) {
    ASSERT_EQ(setenv("FSOPT_THREADS", bad, 1), 0);
    EXPECT_EQ(experiment_threads(), unset) << "FSOPT_THREADS=" << bad;
  }
  // The process setting outranks the environment.
  ASSERT_EQ(setenv("FSOPT_THREADS", "3", 1), 0);
  set_experiment_threads(5);
  EXPECT_EQ(experiment_threads(), 5);
  set_experiment_threads(0);
  ASSERT_EQ(unsetenv("FSOPT_THREADS"), 0);
}

}  // namespace
}  // namespace fsopt
