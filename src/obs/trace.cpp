#include "obs/trace.hpp"

#ifndef TREESCHED_TRACING_DISABLED

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>

#include "obs/metrics.hpp"

namespace treesched::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

// Absolute steady-clock value of the enable_tracing() epoch; all span
// timestamps are relative to it so dumps start near zero.
std::atomic<std::int64_t> g_epoch_ns{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One per recording thread, pooled: exiting threads park their slot for
// the next recording thread instead of growing the slot list without
// bound.
struct ThreadSlot {
  std::vector<SpanRecord> ring;
  // Monotone count of records ever pushed by this slot; the owner
  // thread writes it relaxed, the (quiescent) dump thread reads it.
  std::atomic<std::uint64_t> head{0};
  int tid = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadSlot>> slots;  // every slot ever made
  std::vector<ThreadSlot*> parked;                 // free-listed by tid desc
  std::size_t ring_capacity = TraceOptions{}.ring_capacity;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Parks this thread's slot on exit.  The handle is a thread_local in
// the same TU as the registry's function-local static, so the registry
// (constructed first, on any path that creates a handle) outlives it.
struct SlotHandle {
  ThreadSlot* slot = nullptr;
  ~SlotHandle() {
    if (slot == nullptr) return;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.parked.push_back(slot);
    // Hand lower tids out first so short-lived thread generations map
    // onto a stable, small set of timeline rows.
    std::sort(r.parked.begin(), r.parked.end(),
              [](const ThreadSlot* a, const ThreadSlot* b) {
                return a->tid > b->tid;
              });
  }
};

thread_local SlotHandle t_slot_handle;

ThreadSlot* acquire_slot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ThreadSlot* slot = nullptr;
  if (!r.parked.empty()) {
    slot = r.parked.back();
    r.parked.pop_back();
  } else {
    r.slots.push_back(std::make_unique<ThreadSlot>());
    slot = r.slots.back().get();
    slot->tid = static_cast<int>(r.slots.size()) - 1;
    slot->ring.resize(r.ring_capacity);
  }
  t_slot_handle.slot = slot;
  return slot;
}

ThreadSlot* this_thread_slot() {
  ThreadSlot* slot = t_slot_handle.slot;
  return slot != nullptr ? slot : acquire_slot();
}

void push_record(SpanRecord rec) {
  ThreadSlot* slot = this_thread_slot();
  const std::uint64_t head = slot->head.load(std::memory_order_relaxed);
  rec.tid = slot->tid;
  rec.seq = head;
  slot->ring[static_cast<std::size_t>(head % slot->ring.size())] = rec;
  slot->head.store(head + 1, std::memory_order_relaxed);
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

void append_span_args(std::string& out, const SpanRecord& rec) {
  out += ",\"args\":{";
  bool first = true;
  for (int k = 0; k < kSpanArgs; ++k) {
    if (rec.arg_key[k] == nullptr) continue;
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_escaped(out, rec.arg_key[k]);
    out += "\":" + std::to_string(rec.arg_val[k]);
  }
  out.push_back('}');
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = (written == body.size()) && (std::fclose(f) == 0);
  if (written != body.size()) std::fclose(f);
  return ok;
}

}  // namespace

void enable_tracing(const TraceOptions& options) {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.ring_capacity = std::max<std::size_t>(options.ring_capacity, 16);
    // enable_tracing is documented quiescent, so existing slots can be
    // resized to the requested capacity too — a re-enable with a smaller
    // ring really gets a smaller flight-recorder window.
    for (auto& slot : r.slots) {
      if (slot->ring.size() != r.ring_capacity)
        slot->ring.resize(r.ring_capacity);
      slot->head.store(0, std::memory_order_relaxed);
    }
  }
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable_tracing() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void reset_trace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& slot : r.slots) slot->head.store(0, std::memory_order_relaxed);
}

std::int64_t trace_now_ns() {
  return steady_ns() - g_epoch_ns.load(std::memory_order_relaxed);
}

void record_complete_span(const char* category, const char* name,
                          std::int64_t start_ns, std::int64_t dur_ns,
                          const char* key0, std::int64_t val0,
                          const char* key1, std::int64_t val1) {
  if (!tracing_enabled()) return;
  SpanRecord rec;
  rec.category = category;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.dur_ns = dur_ns;
  rec.arg_key[0] = key0;
  rec.arg_val[0] = val0;
  rec.arg_key[1] = key1;
  rec.arg_val[1] = val1;
  push_record(rec);
}

void SpanGuard::begin(const char* category, const char* name) {
  category_ = category;
  name_ = name;
  active_ = true;
  start_ns_ = trace_now_ns();
}

void SpanGuard::end() {
  SpanRecord rec;
  rec.category = category_;
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.dur_ns = trace_now_ns() - start_ns_;
  std::copy(std::begin(key_), std::end(key_), rec.arg_key);
  std::copy(std::begin(val_), std::end(val_), rec.arg_val);
  push_record(rec);
}

std::vector<SpanRecord> collect_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> out;
  for (const auto& slot : r.slots) {
    const std::uint64_t head = slot->head.load(std::memory_order_relaxed);
    const std::uint64_t size = slot->ring.size();
    const std::uint64_t kept = std::min(head, size);
    for (std::uint64_t i = head - kept; i < head; ++i)
      out.push_back(slot->ring[static_cast<std::size_t>(i % size)]);
  }
  // Deterministic merged order: by start time, longest (outermost) span
  // first on ties, then recorder id, then per-thread sequence.
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });
  return out;
}

TraceStats trace_stats() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  TraceStats stats;
  for (const auto& slot : r.slots) {
    const std::uint64_t head = slot->head.load(std::memory_order_relaxed);
    stats.total_recorded += static_cast<std::int64_t>(head);
    stats.retained += static_cast<std::int64_t>(
        std::min<std::uint64_t>(head, slot->ring.size()));
  }
  stats.overwritten = stats.total_recorded - stats.retained;
  return stats;
}

std::string chrome_trace_string() {
  const std::vector<SpanRecord> spans = collect_spans();
  const TraceStats stats = trace_stats();
  int max_tid = -1;
  for (const SpanRecord& rec : spans) max_tid = std::max(max_tid, rec.tid);

  std::string out;
  out.reserve(128 + spans.size() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (int tid = 0; tid <= max_tid; ++tid) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           (tid == 0 ? std::string("main") :
                       "worker-" + std::to_string(tid)) +
           "\"}}";
  }
  for (const SpanRecord& rec : spans) {
    if (!first) out.push_back(',');
    first = false;
    // Chrome-trace timestamps are microseconds; keep nanosecond
    // precision with three decimal places.
    out += "{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(rec.tid) +
           ",\"ts\":" + std::to_string(rec.start_ns / 1000) + "." +
           [&] {
             char frac[8];
             std::snprintf(frac, sizeof(frac), "%03lld",
                           static_cast<long long>(
                               ((rec.start_ns % 1000) + 1000) % 1000));
             return std::string(frac);
           }() +
           ",\"dur\":" + std::to_string(rec.dur_ns / 1000) + "." +
           [&] {
             char frac[8];
             std::snprintf(frac, sizeof(frac), "%03lld",
                           static_cast<long long>(
                               ((rec.dur_ns % 1000) + 1000) % 1000));
             return std::string(frac);
           }() +
           ",\"cat\":\"";
    append_escaped(out, rec.category);
    out += "\",\"name\":\"";
    append_escaped(out, rec.name);
    out.push_back('"');
    append_span_args(out, rec);
    out.push_back('}');
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"span_count\":" +
         std::to_string(spans.size()) +
         ",\"overwritten_spans\":" + std::to_string(stats.overwritten) +
         ",\"metrics\":" + MetricsRegistry::global().to_json() + "}}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  return write_file(path, chrome_trace_string());
}

}  // namespace treesched::obs

#endif  // TREESCHED_TRACING_DISABLED
