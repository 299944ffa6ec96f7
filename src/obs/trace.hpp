// Flight-recorder tracing: a zero-cost-when-disabled span recorder for
// the whole stack (engine runs and epochs, protocol passes and stages,
// wire rounds, online batches).
//
// Design:
//  * Recording is RAII — TRACE_SPAN("engine", "epoch") opens a span that
//    closes at scope exit.  Category/name/arg-key strings must be string
//    literals (the recorder stores the pointers, never copies).
//  * Each recording thread owns a preallocated ring buffer of spans; the
//    hot path is one relaxed atomic load (the enable gate), one steady-
//    clock read per span end, and a lock-free ring store.  When a ring
//    fills, the oldest spans are overwritten — flight-recorder
//    semantics: the most recent window always survives, and the dump
//    reports how much history was lost.
//  * The library itself records from the calling thread only, but a
//    caller may record from threads of its own, and those may be short-
//    lived, so ring slots are pooled: a thread parks its slot on exit and
//    the next thread reuses it.  Distinct tids therefore stay bounded by
//    the maximum number of concurrent threads, which is also what keeps
//    per-thread timelines meaningful in the dump.
//  * Dumps merge all rings deterministically (sorted by start time, then
//    duration, then tid, then per-thread sequence) into Chrome-trace
//    JSON (chrome://tracing, ui.perfetto.dev) or a flat JSON form that
//    also embeds the MetricsRegistry snapshot.
//
// Two gates:
//  * compile time — building with -DTREESCHED_ENABLE_TRACING=OFF defines
//    TREESCHED_TRACING_DISABLED and compiles every span and metric
//    macro to nothing;
//  * run time — even when compiled in, nothing records until
//    enable_tracing() flips the atomic gate (default off), so the
//    default cost is one relaxed load per would-be span.
//
// Tracing must never perturb results: no field any parity suite compares
// with == may depend on the recorder (tests/test_obs.cpp runs the engine
// and the wire protocol traced and untraced and compares with ==, and
// TREESCHED_TRACE=1 reruns the full parity suites with tracing on).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace treesched::obs {

// Arg slots per span.
inline constexpr int kSpanArgs = 4;

// One closed span.  arg_key[k] == nullptr marks an unused arg slot.
struct SpanRecord {
  const char* category = nullptr;
  const char* name = nullptr;
  std::int64_t start_ns = 0;  // relative to the enable_tracing() epoch
  std::int64_t dur_ns = 0;
  int tid = 0;                // recorder slot id (0 = first recorder)
  std::uint64_t seq = 0;      // per-thread record sequence number
  const char* arg_key[kSpanArgs] = {};
  std::int64_t arg_val[kSpanArgs] = {};
};

struct TraceOptions {
  // Spans retained per thread slot before the oldest are overwritten.
  std::size_t ring_capacity = 1 << 16;
};

// Dump-side accounting: how much history the rings kept.
struct TraceStats {
  std::int64_t total_recorded = 0;
  std::int64_t retained = 0;
  std::int64_t overwritten = 0;  // total_recorded - retained
};

#ifndef TREESCHED_TRACING_DISABLED

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

inline bool tracing_enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Flips the gate on.  Resets the recorded history and the time epoch,
// and applies ring_capacity to every slot (existing and future).  Call
// from a quiescent point (no spans in flight on other threads).
void enable_tracing(const TraceOptions& options = {});
// Flips the gate off.  Recorded spans stay dumpable.
void disable_tracing();
// Drops all recorded spans (the gate is untouched).
void reset_trace();

// Monotone nanoseconds since the enable_tracing() epoch.
std::int64_t trace_now_ns();

// Records an already-timed span (for call sites that only know the
// start/duration after the fact, e.g. the runtime's per-round deltas).
void record_complete_span(const char* category, const char* name,
                          std::int64_t start_ns, std::int64_t dur_ns,
                          const char* key0 = nullptr, std::int64_t val0 = 0,
                          const char* key1 = nullptr, std::int64_t val1 = 0);

// Deterministic merged dump of every thread's ring, sorted by
// (start_ns, -dur_ns, tid, seq) — parents before their children, and
// the same input always yields the same ordering.
std::vector<SpanRecord> collect_spans();
TraceStats trace_stats();

// Exporter.  Chrome trace: {"traceEvents": [...]} with ph:"X" events in
// microseconds plus thread-name metadata; the MetricsRegistry snapshot
// rides along under "otherData".  Returns false when the file cannot be
// written.
bool write_chrome_trace(const std::string& path);
std::string chrome_trace_string();

// RAII span.  The constructor is one relaxed load when tracing is off;
// category/name/keys must be string literals.
class SpanGuard {
 public:
  SpanGuard(const char* category, const char* name) {
    if (tracing_enabled()) begin(category, name);
  }
  SpanGuard(const char* category, const char* name, const char* key0,
            std::int64_t val0) {
    if (tracing_enabled()) {
      begin(category, name);
      key_[0] = key0;
      val_[0] = val0;
    }
  }
  SpanGuard(const char* category, const char* name, const char* key0,
            std::int64_t val0, const char* key1, std::int64_t val1) {
    if (tracing_enabled()) {
      begin(category, name);
      key_[0] = key0;
      val_[0] = val0;
      key_[1] = key1;
      val_[1] = val1;
    }
  }
  ~SpanGuard() {
    if (active_) end();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  // Attaches an arg discovered after construction (first free slot).
  // No-op when inactive or every slot is taken.
  void arg(const char* key, std::int64_t value) {
    if (!active_) return;
    for (int k = 0; k < kSpanArgs; ++k) {
      if (key_[k] != nullptr) continue;
      key_[k] = key;
      val_[k] = value;
      return;
    }
  }

 private:
  void begin(const char* category, const char* name);
  void end();

  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  bool active_ = false;
  const char* key_[kSpanArgs] = {};
  std::int64_t val_[kSpanArgs] = {};
};

#else  // TREESCHED_TRACING_DISABLED

inline constexpr bool tracing_enabled() { return false; }
inline void enable_tracing(const TraceOptions& = {}) {}
inline void disable_tracing() {}
inline void reset_trace() {}
inline std::int64_t trace_now_ns() { return 0; }
inline void record_complete_span(const char*, const char*, std::int64_t,
                                 std::int64_t, const char* = nullptr,
                                 std::int64_t = 0, const char* = nullptr,
                                 std::int64_t = 0) {}
inline std::vector<SpanRecord> collect_spans() { return {}; }
inline TraceStats trace_stats() { return {}; }
inline bool write_chrome_trace(const std::string&) { return false; }
inline std::string chrome_trace_string() { return "{}"; }

class SpanGuard {
 public:
  SpanGuard(const char*, const char*) {}
  SpanGuard(const char*, const char*, const char*, std::int64_t) {}
  SpanGuard(const char*, const char*, const char*, std::int64_t, const char*,
            std::int64_t) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  void arg(const char*, std::int64_t) {}
};

#endif  // TREESCHED_TRACING_DISABLED

}  // namespace treesched::obs

#define TS_OBS_CONCAT_INNER(a, b) a##b
#define TS_OBS_CONCAT(a, b) TS_OBS_CONCAT_INNER(a, b)

// The instrumentation macros.  Under TREESCHED_TRACING_DISABLED the
// guard class above is empty, so these compile to nothing.
#define TRACE_SPAN(category, name)                               \
  ::treesched::obs::SpanGuard TS_OBS_CONCAT(ts_obs_span_,        \
                                            __LINE__)((category), (name))
#define TRACE_SPAN1(category, name, key0, val0)                  \
  ::treesched::obs::SpanGuard TS_OBS_CONCAT(ts_obs_span_,        \
                                            __LINE__)(           \
      (category), (name), (key0), static_cast<std::int64_t>(val0))
#define TRACE_SPAN2(category, name, key0, val0, key1, val1)      \
  ::treesched::obs::SpanGuard TS_OBS_CONCAT(ts_obs_span_,        \
                                            __LINE__)(           \
      (category), (name), (key0), static_cast<std::int64_t>(val0), (key1), \
      static_cast<std::int64_t>(val1))
