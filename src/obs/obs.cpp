#include "obs/obs.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/trace_writer.h"

namespace fsopt::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// One thread's buffer plus the lock that makes collect() safe while the
/// owner keeps appending.  The owner thread is the only appender, so the
/// lock is uncontended on the recording path.
struct Log {
  std::mutex mu;
  ThreadLog data;
};

/// Owns every thread's Log (threads may exit before the trace is
/// written, so logs must outlive their threads) and the output config.
struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Log>> logs;
  u32 next_tid = 0;
  std::string path;
  bool summary = false;
  bool exit_hook_registered = false;
  std::string partial_reason;  // non-empty: exit dumps describe a partial run
};

Registry& registry() {
  static Registry* r = new Registry;  // never destroyed: exit hook reads it
  return *r;
}

Log& local_log() {
  thread_local std::shared_ptr<Log> log = [] {
    auto l = std::make_shared<Log>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    l->data.tid = r.next_tid++;
    l->data.name = "thread-" + std::to_string(l->data.tid);
    r.logs.push_back(l);
    return l;
  }();
  return *log;
}

void at_exit_dump() {
  std::string path;
  bool summary;
  std::string partial;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    path = r.path;
    summary = r.summary;
    partial = r.partial_reason;
  }
  if (path.empty() && !summary) return;
  TraceData data = collect();
  if (!path.empty()) {
    if (write_trace_file(path, data))
      std::fprintf(stderr, "(obs: chrome trace written to %s — %zu spans%s)\n",
                   path.c_str(), data.span_count(),
                   partial.empty() ? "" : ", PARTIAL DATA");
    else
      std::fprintf(stderr, "obs: cannot write trace to %s\n", path.c_str());
  }
  if (summary) {
    if (!partial.empty())
      std::fprintf(stderr, "(obs: PARTIAL DATA — %s; the run exited early "
                           "and this summary covers what ran)\n",
                   partial.c_str());
    std::fputs(render_summary(data).c_str(), stderr);
  }
}

void register_exit_hook() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.exit_hook_registered) return;
  r.exit_hook_registered = true;
  std::atexit(at_exit_dump);
}

/// Environment activation: FSOPT_TRACE=PATH (chrome trace at exit) and
/// FSOPT_TRACE_SUMMARY=1 (summary at exit).  Runs at static-init time so
/// every binary honours the variables without per-main wiring.
struct EnvInit {
  EnvInit() {
    if (const char* p = std::getenv("FSOPT_TRACE"); p != nullptr && *p != 0)
      set_trace_path(p);
    if (const char* s = std::getenv("FSOPT_TRACE_SUMMARY");
        s != nullptr && *s != 0 && *s != '0')
      set_summary(true);
  }
} g_env_init;

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_trace_path(std::string path) {
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.path = std::move(path);
    if (r.path.empty()) return;
  }
  register_exit_hook();
  set_enabled(true);
}

void set_summary(bool on) {
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.summary = on;
    if (!on) return;
  }
  register_exit_hook();
  set_enabled(true);
}

void mark_partial(std::string_view reason) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.partial_reason.empty())
    r.partial_reason.assign(reason.data(), reason.size());
}

std::string partial_reason() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.partial_reason;
}

void set_thread_name(std::string_view name) {
  Log& log = local_log();
  std::lock_guard<std::mutex> lk(log.mu);
  log.data.name.assign(name.data(), name.size());
}

u64 now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

size_t TraceData::span_count() const {
  size_t n = 0;
  for (const ThreadLog& t : threads) n += t.spans.size();
  return n;
}

TraceData collect() {
  // Snapshot the log list, then each log under its own lock; appenders
  // are never blocked for longer than one copy.
  std::vector<std::shared_ptr<Log>> logs;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    logs = r.logs;
  }
  TraceData out;
  out.threads.reserve(logs.size());
  for (const auto& log : logs) {
    std::lock_guard<std::mutex> lk(log->mu);
    out.threads.push_back(log->data);
  }
  return out;
}

void reset() {
  std::vector<std::shared_ptr<Log>> logs;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    logs = r.logs;
    r.partial_reason.clear();
  }
  for (const auto& log : logs) {
    std::lock_guard<std::mutex> lk(log->mu);
    log->data.spans.clear();
  }
}

void Span::init(const char* category, std::string_view name) {
  active_ = true;
  category_ = category;
  name_.assign(name.data(), name.size());
  start_ns_ = now_ns();
}

void Span::finish() {
  SpanEvent ev;
  ev.start_ns = start_ns_;
  ev.dur_ns = now_ns() - start_ns_;
  ev.category = category_;
  ev.name = std::move(name_);
  ev.args = std::move(args_);
  Log& log = local_log();
  std::lock_guard<std::mutex> lk(log.mu);
  log.data.spans.push_back(std::move(ev));
}

}  // namespace fsopt::obs
