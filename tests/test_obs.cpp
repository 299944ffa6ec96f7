// The flight recorder's own contract: the runtime gate records nothing
// when off, multi-thread rings merge deterministically, ring overflow
// keeps the newest window, histogram bucket math is exact — and, the one
// that keeps the rest of the repo honest, tracing is INVISIBLE: an
// engine run and a wire-protocol run produce bit-identical results
// (every ==-compared field, mis_failed_steps included) with the recorder
// on and off.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "decomp/layered.hpp"
#include "dist/runtime.hpp"
#include "dist/scheduler.hpp"
#include "framework/two_phase.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "workload/line_gen.hpp"

namespace treesched {
namespace {

using testutil::small_tree_problem;

#ifndef TREESCHED_TRACING_DISABLED

// Every recorder test starts from a clean gate and empty rings; tests
// in this binary share the process-global registry.
struct TraceReset {
  TraceReset() { obs::disable_tracing(); }
  ~TraceReset() {
    obs::disable_tracing();
    obs::reset_trace();
    obs::MetricsRegistry::global().reset();
  }
};

TEST(ObsTrace, DisabledGateRecordsNothing) {
  TraceReset guard;
  obs::reset_trace();
  {
    TRACE_SPAN("test", "ignored");
    TRACE_SPAN1("test", "ignored1", "k", 1);
    obs::record_complete_span("test", "ignored2", 0, 10);
  }
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_TRUE(obs::collect_spans().empty());

  obs::MetricsRegistry::global().reset();
  TRACE_COUNTER("test.gated_counter", 5);
  TRACE_HIST("test.gated_hist", 5);
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("test.gated_counter").value(), 0);
  EXPECT_EQ(
      obs::MetricsRegistry::global().histogram("test.gated_hist").count(), 0);
}

TEST(ObsTrace, SpansRecordNestingAndArgs) {
  TraceReset guard;
  obs::enable_tracing();
  {
    TRACE_SPAN1("test", "outer", "group", 3);
    {
      TRACE_SPAN2("test", "inner", "lo", 0, "hi", 7);
    }
  }
  {
    obs::SpanGuard late("test", "late_arg");
    late.arg("found", 42);
  }
  obs::disable_tracing();

  const std::vector<obs::SpanRecord> spans = obs::collect_spans();
  ASSERT_EQ(spans.size(), 3u);
  // Deterministic order: outer starts first; inner nests inside it.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[2].name, "late_arg");
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
  EXPECT_STREQ(spans[0].arg_key[0], "group");
  EXPECT_EQ(spans[0].arg_val[0], 3);
  EXPECT_STREQ(spans[1].arg_key[1], "hi");
  EXPECT_EQ(spans[1].arg_val[1], 7);
  EXPECT_STREQ(spans[2].arg_key[0], "found");
  EXPECT_EQ(spans[2].arg_val[0], 42);
}

TEST(ObsTrace, LateArgsFillEverySlotThenDrop) {
  TraceReset guard;
  obs::enable_tracing();
  {
    obs::SpanGuard span("test", "four_args", "a", 1);
    span.arg("b", 2);
    span.arg("c", 3);
    span.arg("d", 4);
    span.arg("e", 5);  // no slot left
  }
  obs::disable_tracing();
  const std::vector<obs::SpanRecord> spans = obs::collect_spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(obs::kSpanArgs, 4);
  for (int k = 0; k < obs::kSpanArgs; ++k) {
    EXPECT_EQ(std::string(spans[0].arg_key[k]), std::string(1, 'a' + k));
    EXPECT_EQ(spans[0].arg_val[k], k + 1);
  }
  EXPECT_NE(obs::chrome_trace_string().find("\"d\":4"), std::string::npos);
}

TEST(ObsTrace, MultiThreadMergeIsDeterministicAndTidsAreStable) {
  TraceReset guard;
  obs::enable_tracing();
  // Two generations of short-lived workers, as the engine's per-epoch
  // pools create: slot pooling must keep the distinct-tid count bounded
  // by the maximum number of concurrent threads, not total threads ever.
  for (int generation = 0; generation < 2; ++generation) {
    std::vector<std::thread> pool;
    for (int w = 0; w < 3; ++w)
      pool.emplace_back([w] {
        for (int i = 0; i < 4; ++i) {
          TRACE_SPAN1("test", "worker_span", "w", w);
        }
      });
    for (std::thread& t : pool) t.join();
  }
  {
    TRACE_SPAN("test", "main_span");
  }
  obs::disable_tracing();

  const std::vector<obs::SpanRecord> first = obs::collect_spans();
  const std::vector<obs::SpanRecord> second = obs::collect_spans();
  ASSERT_EQ(first.size(), 25u);  // 2 generations * 3 workers * 4 + 1 main
  // Same rings, same deterministic sort: collect twice, get the same
  // sequence.
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].start_ns, second[i].start_ns);
    EXPECT_EQ(first[i].tid, second[i].tid);
    EXPECT_EQ(first[i].seq, second[i].seq);
  }
  int max_tid = 0;
  for (const obs::SpanRecord& rec : first) max_tid = std::max(max_tid, rec.tid);
  // At most 4 recorder slots can ever exist here: main's (whenever it
  // first recorded) plus the 3 concurrent workers of a generation; the
  // second generation reuses the first's parked slots instead of minting
  // tids 4..6.
  EXPECT_LE(max_tid, 3);
  // The merged order is exactly the documented comparator:
  // (start_ns, -dur_ns, tid, seq).  Note seq alone is NOT monotone per
  // tid in this order — empty spans can tie on a coarse clock's
  // start_ns, and the longest-first tie-break (parents before children)
  // deliberately wins over push order.
  for (std::size_t i = 1; i < first.size(); ++i) {
    const auto key = [](const obs::SpanRecord& r) {
      return std::tuple(r.start_ns, -r.dur_ns, r.tid, r.seq);
    };
    EXPECT_LE(key(first[i - 1]), key(first[i]));
  }
}

TEST(ObsTrace, RingOverflowKeepsNewestWindow) {
  TraceReset guard;
  obs::TraceOptions options;
  options.ring_capacity = 16;
  obs::enable_tracing(options);
  for (int i = 0; i < 50; ++i)
    obs::record_complete_span("test", "tick", /*start_ns=*/i, /*dur_ns=*/1,
                              "i", i);
  obs::disable_tracing();

  const obs::TraceStats stats = obs::trace_stats();
  EXPECT_EQ(stats.total_recorded, 50);
  EXPECT_EQ(stats.retained, 16);
  EXPECT_EQ(stats.overwritten, 34);
  const std::vector<obs::SpanRecord> spans = obs::collect_spans();
  ASSERT_EQ(spans.size(), 16u);
  // Flight-recorder semantics: the survivors are exactly the newest 16.
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].arg_val[0], static_cast<std::int64_t>(34 + i));
}

TEST(ObsTrace, ChromeExportIsWellFormed) {
  TraceReset guard;
  obs::enable_tracing();
  {
    TRACE_SPAN1("engine", "epoch", "group", 1);
  }
  TRACE_COUNTER("test.export_counter", 7);
  obs::disable_tracing();

  const std::string json = obs::chrome_trace_string();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"group\":1"), std::string::npos);
  EXPECT_NE(json.find("\"span_count\":1"), std::string::npos);
  // The registry snapshot rides along inside otherData.
  EXPECT_NE(json.find("\"test.export_counter\":7"), std::string::npos);
}

TEST(ObsMetrics, HistogramBucketMathIsExact) {
  using obs::Histogram;
  // bucket k = [2^(k-1), 2^k); bucket 0 = everything <= 0.
  EXPECT_EQ(Histogram::bucket_index(-5), 0);
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(1024), 11);
  EXPECT_EQ(Histogram::bucket_floor(0), 0);
  EXPECT_EQ(Histogram::bucket_floor(1), 1);
  EXPECT_EQ(Histogram::bucket_floor(2), 2);
  EXPECT_EQ(Histogram::bucket_floor(3), 4);
  EXPECT_EQ(Histogram::bucket_floor(11), 1024);
  for (int k = 1; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_floor(k)), k);
    if (k >= 2) {
      EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_floor(k) - 1),
                k - 1);
    }
  }

  Histogram h;
  for (const std::int64_t v : {1, 1, 2, 3, 100, 1000})
    h.record(v);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 1107);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  // Quantiles resolve to bucket floors: p50 is the 3rd of 6 samples
  // (value 2, bucket [2,4) -> floor 2); p95 needs the 6th (1000, bucket
  // [512,1024) -> floor 512).
  EXPECT_EQ(h.quantile(0.5), 2);
  EXPECT_EQ(h.quantile(0.95), 512);
}

TEST(ObsMetrics, CountersAccumulateAndSnapshotSorted) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset();
  registry.counter("zz.last").add(2);
  registry.counter("aa.first").add(1);
  registry.histogram("mm.hist").record(8);
  const std::string json = registry.to_json();
  const std::size_t a = json.find("aa.first");
  const std::size_t m = json.find("mm.hist");
  const std::size_t z = json.find("zz.last");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);  // sorted within the counters object
  EXPECT_NE(json.find("\"p50\":8"), std::string::npos);
  registry.reset();
  EXPECT_EQ(registry.counter("zz.last").value(), 0);
  EXPECT_EQ(registry.histogram("mm.hist").count(), 0);
}

// The oracle from test_two_phase.cpp: always empty-handed, as a
// budget-limited randomized MIS legitimately can be.
class FailingMis : public MisOracle {
 public:
  MisResult run(std::span<const InstanceId>) override {
    MisResult result;
    result.rounds = 2;
    return result;
  }
};

TEST(ObsMetrics, MisFailedStepsCounterMatchesStats) {
  TraceReset guard;
  const Problem p = small_tree_problem(21, 20, 2, 10);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  FailingMis oracle;
  for (const int threads : {1, 4}) {
    SolverConfig config;
    config.threads = threads;
    obs::MetricsRegistry::global().reset();
    obs::enable_tracing();
    const SolveResult run = solve_with_plan(p, plan, config, &oracle);
    obs::disable_tracing();
    EXPECT_FALSE(run.stats.mis_ok);
    EXPECT_GT(run.stats.mis_failed_steps, 0);
    // The registry's surfaced degrade count is the same number the stats
    // carry — one counting site per whole-step-empty event, no double
    // counting across the engine paths.
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .counter("engine.mis_failed_steps")
                  .value(),
              run.stats.mis_failed_steps)
        << "threads=" << threads;
  }
}

bool is_round_span(const obs::SpanRecord& rec) {
  return std::string(rec.category) == "wire" &&
         std::string(rec.name).rfind("round", 0) == 0;
}

bool is_idle_span(const obs::SpanRecord& rec) {
  return std::string(rec.category) == "wire" &&
         std::string(rec.name) == "idle";
}

TEST(ObsTrace, IdleRoundsCollapseIntoStretches) {
  // A round with traffic gets its own span; a run of idle rounds gets
  // one "idle" span whose "rounds" arg counts them, closed by the next
  // traffic round or, for a trailing stretch, by ~Runtime.
  TraceReset guard;
  obs::enable_tracing();
  {
    Runtime rt(3);
    rt.connect(0, 1);
    rt.post(Message{0, 1, 0, {1.0}});
    rt.step();
    for (int r = 0; r < 3; ++r) rt.step();
    rt.post(Message{1, 0, 0, {}});
    rt.post(Message{0, 1, 0, {}});
    rt.step();
    for (int r = 0; r < 2; ++r) rt.step();
  }
  obs::disable_tracing();

  std::vector<obs::SpanRecord> wire;
  for (const obs::SpanRecord& rec : obs::collect_spans())
    if (is_round_span(rec) || is_idle_span(rec)) wire.push_back(rec);
  // Recording order (one thread, so per-thread sequence order).
  std::sort(wire.begin(), wire.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.seq < b.seq;
            });
  ASSERT_EQ(wire.size(), 4u);
  EXPECT_TRUE(is_round_span(wire[0]));
  EXPECT_EQ(wire[0].arg_val[0], 1);  // messages
  EXPECT_TRUE(is_idle_span(wire[1]));
  EXPECT_STREQ(wire[1].arg_key[0], "rounds");
  EXPECT_EQ(wire[1].arg_val[0], 3);
  EXPECT_TRUE(is_round_span(wire[2]));
  EXPECT_EQ(wire[2].arg_val[0], 2);
  EXPECT_TRUE(is_idle_span(wire[3]));
  EXPECT_EQ(wire[3].arg_val[0], 2);
  // The stretches tile the timeline between the traffic rounds.
  EXPECT_EQ(wire[1].start_ns, wire[0].start_ns + wire[0].dur_ns);
  EXPECT_EQ(wire[2].start_ns, wire[1].start_ns + wire[1].dur_ns);
  EXPECT_EQ(wire[3].start_ns, wire[2].start_ns + wire[2].dur_ns);
}

TEST(ObsTrace, WireSpansAccountForEveryRoundStepped) {
  // On a whole protocol run — fixed schedule, mostly idle tuples —
  // traffic-round spans + the idle spans' rounds == rounds stepped, and
  // the trace keeps all of them.
  TraceReset guard;
  const Problem p = small_tree_problem(12, 32, 2, 18);
  ProtocolOptions options;
  options.epsilon = 0.25;
  options.seed = 3;
  obs::enable_tracing();
  const ProtocolDistResult traced = run_tree_arbitrary_protocol(p, options);
  obs::disable_tracing();

  std::int64_t traffic = 0, idle = 0, stretches = 0;
  for (const obs::SpanRecord& rec : obs::collect_spans()) {
    if (is_round_span(rec)) ++traffic;
    if (is_idle_span(rec)) {
      idle += rec.arg_val[0];
      ++stretches;
    }
  }
  EXPECT_EQ(traffic + idle, traced.run.rounds - traced.run.combine_rounds);
  EXPECT_GT(traffic, 0);
  EXPECT_GT(stretches, 0);
  EXPECT_GT(idle, traffic);  // the schedule is mostly idle
  EXPECT_EQ(obs::trace_stats().overwritten, 0);
}

TEST(ObsTrace, EpochSpansCountScannedAndSkippedStages) {
  // Each engine/epoch span says what its epoch did: its members, the
  // stages it scanned and the idle stages it jumped over, which together
  // make the schedule's stages per epoch.  On a line with wide windows
  // the later epochs have nobody unsatisfied in any stage, so each shows
  // as one scan.
  TraceReset guard;
  LineGenConfig cfg;
  cfg.num_slots = 64;
  cfg.num_resources = 2;
  cfg.num_demands = 48;
  cfg.min_proc_time = 2;
  cfg.max_proc_time = 32;
  cfg.window_slack = 2.0;
  cfg.profit_max = 1e3;
  Rng rng(1);
  const Problem p = make_random_line_problem(cfg, rng).lower();
  const LayeredPlan plan = build_line_layered_plan(p);
  obs::enable_tracing();
  const SolveResult run = solve_with_plan(p, plan, SolverConfig{});
  obs::disable_tracing();

  int epochs = 0, one_scan = 0;
  for (const obs::SpanRecord& rec : obs::collect_spans()) {
    if (std::string(rec.category) != "engine" ||
        std::string(rec.name) != "epoch")
      continue;
    std::int64_t group = -1, members = -1, scanned = -1, skipped = -1;
    for (int k = 0; k < obs::kSpanArgs; ++k) {
      if (rec.arg_key[k] == nullptr) continue;
      const std::string key = rec.arg_key[k];
      if (key == "group") group = rec.arg_val[k];
      if (key == "members") members = rec.arg_val[k];
      if (key == "stages_scanned") scanned = rec.arg_val[k];
      if (key == "stages_skipped") skipped = rec.arg_val[k];
    }
    ASSERT_GE(group, 0);
    EXPECT_EQ(members,
              static_cast<std::int64_t>(
                  plan.members[static_cast<std::size_t>(group)].size()));
    EXPECT_GE(scanned, 1);
    EXPECT_GE(skipped, 0);
    EXPECT_EQ(scanned + skipped, run.stats.stages_per_epoch);
    ++epochs;
    if (scanned == 1) ++one_scan;
  }
  EXPECT_EQ(epochs, run.stats.epochs);
  EXPECT_GT(one_scan, 0);
}

#endif  // TREESCHED_TRACING_DISABLED

// The invisibility contract, which must hold in BOTH build modes (in a
// TREESCHED_TRACING_DISABLED build enable_tracing() is a no-op and the
// equalities are trivially between two untraced runs).
TEST(ObsInvisibility, EngineRunIsBitIdenticalTracedAndUntraced) {
  const Problem p = small_tree_problem(7, 40, 2, 24);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  for (const bool lockstep : {false, true}) {
    SolverConfig config;
    config.epsilon = 0.15;
    config.lockstep = lockstep;
    config.keep_stack = true;
    config.threads = 4;

    obs::disable_tracing();
    const SolveResult plain = solve_with_plan(p, plan, config);
    obs::enable_tracing();
    const SolveResult traced = solve_with_plan(p, plan, config);
    obs::disable_tracing();
    // threads = 4 is a no-op: every span comes from the calling thread,
    // and the run builds no component forest.
    const std::vector<obs::SpanRecord> spans = obs::collect_spans();
#ifndef TREESCHED_TRACING_DISABLED
    EXPECT_FALSE(spans.empty());
#endif
    for (const obs::SpanRecord& rec : spans) {
      EXPECT_EQ(rec.tid, spans.front().tid) << rec.category << "/" << rec.name;
      EXPECT_STRNE(rec.category, "forest") << rec.name;
    }
    obs::reset_trace();
    obs::MetricsRegistry::global().reset();

    EXPECT_EQ(plain.solution.selected, traced.solution.selected);
    EXPECT_EQ(plain.raise_stack, traced.raise_stack);
    EXPECT_EQ(plain.stats.epochs, traced.stats.epochs);
    EXPECT_EQ(plain.stats.stages, traced.stats.stages);
    EXPECT_EQ(plain.stats.steps, traced.stats.steps);
    EXPECT_EQ(plain.stats.raises, traced.stats.raises);
    EXPECT_EQ(plain.stats.mis_rounds, traced.stats.mis_rounds);
    EXPECT_EQ(plain.stats.comm_rounds, traced.stats.comm_rounds);
    EXPECT_EQ(plain.stats.dual_objective, traced.stats.dual_objective);
    EXPECT_EQ(plain.stats.lambda_observed, traced.stats.lambda_observed);
    EXPECT_EQ(plain.stats.dual_upper_bound, traced.stats.dual_upper_bound);
    EXPECT_EQ(plain.stats.profit, traced.stats.profit);
    EXPECT_EQ(plain.stats.delta, traced.stats.delta);
    EXPECT_EQ(plain.stats.xi, traced.stats.xi);
    EXPECT_EQ(plain.stats.mis_ok, traced.stats.mis_ok);
    EXPECT_EQ(plain.stats.lockstep_ok, traced.stats.lockstep_ok);
    EXPECT_EQ(plain.stats.mis_failed_steps, traced.stats.mis_failed_steps);
  }
}

TEST(ObsInvisibility, ProtocolRunIsBitIdenticalTracedAndUntraced) {
  const Problem p = small_tree_problem(12, 32, 2, 18);
  ProtocolOptions options;
  options.epsilon = 0.25;
  options.seed = 3;

  obs::disable_tracing();
  const ProtocolDistResult plain = run_tree_arbitrary_protocol(p, options);
  obs::enable_tracing();
  const ProtocolDistResult traced = run_tree_arbitrary_protocol(p, options);
  obs::disable_tracing();
  obs::reset_trace();
  obs::MetricsRegistry::global().reset();

  EXPECT_EQ(plain.run.solution.selected, traced.run.solution.selected);
  EXPECT_EQ(plain.run.rounds, traced.run.rounds);
  EXPECT_EQ(plain.run.messages, traced.run.messages);
  EXPECT_EQ(plain.run.bytes, traced.run.bytes);
  EXPECT_EQ(plain.run.discovery_bytes, traced.run.discovery_bytes);
  EXPECT_EQ(plain.run.discovery_reply_bytes,
            traced.run.discovery_reply_bytes);
  EXPECT_EQ(plain.run.mis_ok, traced.run.mis_ok);
  EXPECT_EQ(plain.run.schedule_ok, traced.run.schedule_ok);
  EXPECT_EQ(plain.run.passes.size(), traced.run.passes.size());
}

}  // namespace
}  // namespace treesched
