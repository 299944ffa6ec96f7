// F12 — phase-1 engine throughput: the incremental frontier engine
// against the central-DualState reference engine (the pre-incremental
// implementation, preserved as EngineImpl::kCentralReference), at growing
// instance counts on line and tree workloads.
//
// The reference engine pays O(|members| * path_len) per step — every step
// rescans the whole group and recomputes each dual LHS from scratch.  The
// incremental engine pays O(1) per satisfaction test (a cached LHS over
// one alpha per demand and one beta per edge) plus work proportional to
// the instances whose paths intersect the raised edges.  The regimes
// differ:
//
//  - lockstep (the paper's Section 5 distributed schedule): every stage
//    runs the fixed Lemma 5.1 budget of steps, most of which touch few or
//    no unsatisfied instances — exactly the steps whose member rescans
//    the frontier eliminates.  This is the headline series; the speedup
//    target (>= 5x at the largest size) applies here.
//  - adaptive (the idealized schedule with global emptiness tests):
//    stages end the moment U is empty, so most stages run ~1 step and
//    every instance is touched anyway; the two engines are near parity,
//    with the incremental engine paying its propagation constant.
//
// All engines produce bit-identical output (tests/test_engine_parity),
// so every row below differs only in wall time, never in results.
#include <chrono>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "decomp/layered.hpp"
#include "framework/two_phase.hpp"
#include "obs/trace.hpp"
#include "workload/scenario.hpp"

using namespace treesched;
using namespace treesched::benchutil;

namespace {

struct Arm {
  const char* name;
  EngineImpl engine;
};

constexpr Arm kArms[] = {
    {"central", EngineImpl::kCentralReference},
    {"incr-t1", EngineImpl::kIncremental},
};

struct Measurement {
  double wall_ms = 0.0;
  int steps = 0;
  double steps_per_sec = 0.0;
  double profit = 0.0;
};

Measurement run_engine(const Problem& p, const LayeredPlan& plan,
                       const Arm& arm, bool lockstep) {
  SolverConfig config;
  config.epsilon = 0.1;
  config.lockstep = lockstep;
  config.engine = arm.engine;
  const auto start = std::chrono::steady_clock::now();
  const SolveResult run = solve_with_plan(p, plan, config);
  const auto stop = std::chrono::steady_clock::now();
  if (!run.stats.mis_ok)
    std::fprintf(stderr,
                 "WARNING: %s: MIS budget exhausted in %lld step(s) "
                 "(mis_ok=0) — the run degraded\n",
                 arm.name,
                 static_cast<long long>(run.stats.mis_failed_steps));
  Measurement m;
  m.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  m.steps = run.stats.steps;
  m.steps_per_sec =
      m.wall_ms > 0.0 ? run.stats.steps * 1000.0 / m.wall_ms : 0.0;
  m.profit = checked_profit(p, run.solution);
  return m;
}

Problem line_workload(int slots) {
  LineScenarioSpec spec;
  spec.line.num_slots = slots;
  spec.line.num_resources = 2;
  spec.line.num_demands = slots / 2;
  spec.line.min_proc_time = 8;
  spec.line.max_proc_time = slots / 8;
  spec.line.window_slack = 2.0;
  spec.line.profit_max = 1e4;  // wide range: deep lockstep budgets
  spec.seed = 42;
  return make_line_problem(spec);
}

Problem tree_workload(int n) {
  TreeScenarioSpec spec;
  spec.num_vertices = n;
  spec.num_networks = 2;
  spec.demands.num_demands = 3 * n / 4;
  spec.demands.profit_max = 1e4;
  spec.seed = 42;
  return make_tree_problem(spec);
}

}  // namespace

int main(int argc, char** argv) {
  // --trace=PATH: after the measured sweep, one extra traced run of the
  // largest lockstep line workload on the incr-t1 arm, dumped as a
  // Chrome trace.  The trace run is *outside* every measurement, so the
  // emitted BENCH series and the speedup gate are unaffected.
  std::string trace_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--trace=", 0) == 0) trace_path = arg.substr(8);
  }

  print_claim("F12  phase-1 engine throughput (incremental vs central)",
              "the frontier/shard engine eliminates the per-step "
              "O(|members| * path_len) rescan; >= 5x wall-clock at the "
              "largest size under the lockstep schedule, near parity "
              "under the adaptive schedule");

  std::vector<JsonRecord> runs;
  double largest_speedup = 0.0;

  for (const bool lockstep : {true, false}) {
    Table table(std::string("F12  ") +
                (lockstep ? "lockstep schedule (Section 5, fixed budgets)"
                          : "adaptive schedule (idealized emptiness tests)"));
    table.set_header({"workload", "instances", "engine", "wall(ms)", "steps",
                      "steps/sec", "speedup"});
    for (const int workload : {0, 1}) {  // 0 = line, 1 = tree
      const std::vector<int> sizes =
          workload == 0 ? std::vector<int>{256, 512, 1024, 2048}
                        : std::vector<int>{1024, 2048, 4096};
      for (const int n : sizes) {
        const Problem p = workload == 0 ? line_workload(n) : tree_workload(n);
        const LayeredPlan plan =
            workload == 0 ? build_line_layered_plan(p)
                          : build_tree_layered_plan(p, DecompKind::kIdeal);
        double central_ms = 0.0;
        for (const Arm& arm : kArms) {
          const Measurement m = run_engine(p, plan, arm, lockstep);
          if (arm.engine == EngineImpl::kCentralReference)
            central_ms = m.wall_ms;
          const double speedup =
              m.wall_ms > 0.0 ? central_ms / m.wall_ms : 0.0;
          table.add_row({workload == 0 ? "line" : "tree",
                         std::to_string(p.num_instances()), arm.name,
                         fmt(m.wall_ms, 1), std::to_string(m.steps),
                         fmt(m.steps_per_sec, 0), fmt(speedup, 2)});
          runs.push_back(
              {{"workload", static_cast<double>(workload)},
               {"n", static_cast<double>(n)},
               {"instances", static_cast<double>(p.num_instances())},
               {"lockstep", lockstep ? 1.0 : 0.0},
               {"engine",
                arm.engine == EngineImpl::kCentralReference ? 0.0 : 1.0},
               // A join key of the committed baseline rows.
               {"threads", 1.0},
               {"steps", static_cast<double>(m.steps)},
               {"wall_ms", m.wall_ms},
               {"steps_per_sec", m.steps_per_sec},
               {"profit", m.profit},
               {"speedup", speedup}});
          // The acceptance gate: the incremental engine at the largest
          // line size under the distributed schedule.
          if (lockstep && workload == 0 && n == sizes.back() &&
              arm.engine == EngineImpl::kIncremental)
            largest_speedup = speedup;
        }
      }
    }
    table.print(std::cout);
  }
  emit_json("f12_engine_throughput", runs);

  std::printf("\nlargest-size lockstep speedup (line, incr-t1 vs central): "
              "%.2fx %s\n",
              largest_speedup, largest_speedup >= 5.0 ? "(>= 5x: PASS)"
                                                      : "(< 5x: REGRESSION)");
  std::printf("expected shape: lockstep speedup grows with instance count "
              "(the eliminated rescan is steps * |members| * path_len); "
              "adaptive stays near 1x because nearly every stage touches "
              "every member once anyway.\n");
  if (!trace_path.empty()) {
    const Problem p = line_workload(2048);
    const LayeredPlan plan = build_line_layered_plan(p);
    obs::enable_tracing();
    run_engine(p, plan, kArms[1], /*lockstep=*/true);
    obs::disable_tracing();
    if (obs::write_chrome_trace(trace_path))
      std::printf("trace written to %s (largest lockstep line workload, "
                  "incr-t1; summarize with tools/trace_report.py)\n",
                  trace_path.c_str());
    else
      std::fprintf(stderr, "could not write trace to %s (tracing compiled "
                           "out, or path not writable)\n",
                   trace_path.c_str());
  }

  // The speedup gate is enforced, not just printed: a nonzero exit fails
  // the CI perf step.  It is a ratio of two runs on the same machine, so
  // host speed cancels out, and the measured ~100x leaves ample headroom
  // over the 5x bar before shared-runner variance could trip it.
  return largest_speedup >= 5.0 ? 0 : 1;
}
