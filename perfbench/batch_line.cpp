// batch-line: the largest f12 line shape (2048 slots, 2 resources, 1024
// unit-height demands with windows, ~272k instances), solved by
// solve_with_plan in a closed loop at threads 4.  One conflict component
// holds most instances, so the engine's parallel path — frontier scans,
// forest build, deferred merge — does all the work; no online, durability
// or wire code runs.  A lap is one solve.
//
// Two of the 1024 demands pin the ends of the profit range (1 and
// profit_max).  The lockstep step budget is 3 + ceil(log2(pmax/pmin)),
// so with free extremes the whole schedule would grow or shrink by a
// step per stage with the smallest profit a seed happens to draw.
#include <optional>
#include <string>

#include "bench.hpp"
#include "decomp/layered.hpp"
#include "framework/two_phase.hpp"
#include "model/line_problem.hpp"
#include "model/solution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/line_gen.hpp"

namespace perfbench {

using namespace treesched;

namespace {

constexpr int kSetups = 3;
constexpr int kMinLaps = 3;
constexpr int kThreads = 4;

LineGenConfig shape() {
  LineGenConfig cfg;
  cfg.num_slots = 2048;
  cfg.num_resources = 2;
  cfg.num_demands = 1024;
  cfg.min_proc_time = 8;
  cfg.max_proc_time = 256;
  cfg.window_slack = 2.0;
  cfg.profit_max = 1e4;
  return cfg;
}

SolverConfig solver(int threads) {
  SolverConfig config;
  config.epsilon = 0.1;
  config.lockstep = true;
  config.threads = threads;
  return config;
}

struct Setup {
  std::optional<Problem> problem;
  LayeredPlan plan;
  // The warm-up solve: every later solve must reproduce it exactly.
  SolveResult reference;
  double lower_ms = 0.0;
  double plan_ms = 0.0;
};

LineProblem make_line(std::uint64_t seed) {
  LineGenConfig cfg = shape();
  cfg.num_demands -= 2;
  Rng rng(seed);
  LineProblem line = make_random_line_problem(cfg, rng);
  line.add_demand(0, 127, 64, 1.0);
  line.add_demand(cfg.num_slots - 128, cfg.num_slots - 1, 64, cfg.profit_max);
  return line;
}

Setup set_up(std::uint64_t seed) {
  Setup s;
  const LineProblem line = make_line(seed);
  auto start = Clock::now();
  {
    obs::SpanGuard span("bench", "lower");
    s.problem.emplace(line.lower());
  }
  s.lower_ms = ms_since(start);
  start = Clock::now();
  {
    obs::SpanGuard span("bench", "plan");
    s.plan = build_line_layered_plan(*s.problem);
  }
  s.plan_ms = ms_since(start);
  s.reference = solve_with_plan(*s.problem, s.plan, solver(kThreads));
  return s;
}

bool same_solution(const SolveResult& a, const SolveResult& b) {
  return a.solution.selected == b.solution.selected &&
         a.stats.steps == b.stats.steps && a.stats.raises == b.stats.raises;
}

bool solve_ok(const Setup& s, const SolveResult& run) {
  return run.stats.lockstep_ok && run.stats.mis_ok &&
         check_feasibility(*s.problem, run.solution).feasible;
}

}  // namespace

Report run_batch_line(const Options& options) {
  Report r;
  std::optional<Setup> s;
  std::vector<double> lower_ms, plan_ms;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();
    const auto start = Clock::now();
    s.emplace(set_up(options.seed));
    r.setup_s.push_back(ms_since(start) / 1e3);
    lower_ms.push_back(s->lower_ms);
    plan_ms.push_back(s->plan_ms);
  }
  const Problem& problem = *s->problem;
  r.attempt(solve_ok(*s, s->reference), "batch-line: warm-up solve");
  r.profit_share =
      s->reference.solution.profit(problem) / offered_profit(problem);
  r.events = {1.0};

  const SolverConfig config = solver(kThreads);
  std::int64_t forest_ns = 0, setup_ns = 0, merge_ns = 0;
  double wall_ms = 0.0;
  const auto lap = [&](bool traced) {
    // A traced pass keeps only the last solve's spans for the trace file.
    if (traced) obs::reset_trace();
    const auto start = Clock::now();
    SolveResult run;
    {
      obs::SpanGuard span("bench", "solve");
      run = solve_with_plan(problem, s->plan, config);
    }
    const double ms = ms_since(start);
    (traced ? r.traced_laps : r.laps).push_back({ms});
    r.attempt(solve_ok(*s, run) && same_solution(run, s->reference),
              traced ? "batch-line: traced solve" : "batch-line: solve");
    if (traced) return;
    wall_ms += ms;
    forest_ns += run.stats.forest_build_ns;
    setup_ns += run.stats.epoch_setup_ns;
    merge_ns += run.stats.merge_ns;
  };
  run_laps(options.seconds, kMinLaps, [&](int) { lap(false); });
  if (!options.trace) return r;

  // Per-layer metrics, from the untraced laps and untraced probes so they
  // compare directly with the end-to-end timings.
  const double solves = static_cast<double>(r.laps.size());
  r.layer("model.lower_ms", median(lower_ms));
  r.layer("decomp.plan_ms", median(plan_ms));
  r.layer("framework.forest_build_ms", ms_of_ns(forest_ns) / solves);
  r.layer("framework.epoch_setup_ms", ms_of_ns(setup_ns) / solves);
  r.layer("framework.merge_ms", ms_of_ns(merge_ns) / solves);
  r.layer("framework.steps", s->reference.stats.steps);
  r.layer("framework.raises", static_cast<double>(s->reference.stats.raises));

  // Phase 2 alone: the reverse-greedy prune of the kept raise stack.
  SolverConfig keep = config;
  keep.keep_stack = true;
  const SolveResult kept = solve_with_plan(problem, s->plan, keep);
  std::vector<double> prune_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    Solution pruned;
    {
      obs::SpanGuard span("bench", "phase2");
      pruned = prune_stack(problem, kept.raise_stack);
    }
    prune_ms.push_back(ms_since(start));
    r.attempt(pruned.selected == s->reference.solution.selected,
              "batch-line: phase 2 of the kept stack");
  }
  const double phase2_ms = median(prune_ms);
  r.layer("framework.phase2_ms", phase2_ms);

  // The single-thread baseline of the same solve.
  std::vector<double> serial_ms;
  for (int rep = 0; rep < 2; ++rep) {
    const auto start = Clock::now();
    SolveResult run;
    {
      obs::SpanGuard span("bench", "solve_serial");
      run = solve_with_plan(problem, s->plan, solver(1));
    }
    serial_ms.push_back(ms_since(start));
    r.attempt(solve_ok(*s, run) && same_solution(run, s->reference),
              "batch-line: threads-1 solve");
  }
  r.layer("framework.serial_solve_ms", median(serial_ms));

  // Named layers against the solve they sit in.  Phase 1's component
  // solve has no public boundary, so it is the expected remainder.
  const double named = ms_of_ns(forest_ns + setup_ns + merge_ns) / solves +
                       phase2_ms;
  r.layer("obs.unattributed_share", 1.0 - named / (wall_ms / solves));

  obs::enable_tracing();
  obs::MetricsRegistry::global().reset();
  run_laps(options.seconds, kMinLaps, [&](int) { lap(true); });
  obs::disable_tracing();
  r.layer("framework.worker_busy_share", worker_busy_share());
  r.layer("framework.largest_component_share",
          largest_component_size() / problem.num_instances());
  obs::write_chrome_trace(options.workdir + "/trace.json");
  return r;
}

}  // namespace perfbench
