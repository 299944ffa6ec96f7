#include "dist/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "capacity/capacity_profile.hpp"
#include "dist/luby_mis.hpp"
#include "framework/certify.hpp"

namespace treesched {

namespace {

SolverConfig make_config(const DistOptions& options, RaiseRuleKind rule) {
  SolverConfig config;
  config.epsilon = options.epsilon;
  config.rule = rule;
  config.stage_mode = options.stage_mode;
  return config;
}

// Unit-height solvers (Theorems 5.3 and 7.1): one engine run with the
// kUnit rule; bound (Delta+1)/lambda over the observed Delta, times rho.
DistResult solve_unit(const Problem& problem, const LayeredPlan& plan,
                      const DistOptions& options) {
  LubyMis oracle(problem, options.seed);
  SolveResult run =
      solve_with_plan(problem, plan, make_config(options, RaiseRuleKind::kUnit),
                      &oracle);
  DistResult result;
  result.solution = std::move(run.solution);
  result.stats = run.stats;
  result.profit = result.stats.profit;
  result.ratio_bound = proven_ratio_bound(
      problem, /*unit_ran=*/true, /*narrow_ran=*/false, result.stats.delta,
      target_lambda(options.stage_mode, options.epsilon));
  return result;
}

// Arbitrary-height solvers (Theorems 6.3 and 7.2): wide/narrow split;
// the price factors of the classes that actually occurred add.  With
// Delta = 6 (trees, ideal) that is the 80+eps of Theorem 6.3; with
// Delta = 3 (lines) the 23+eps of Theorem 7.2.
DistResult solve_arbitrary(const Problem& problem, const LayeredPlan& plan,
                           const DistOptions& options) {
  LubyMis oracle(problem, options.seed);
  SolveResult run = solve_height_split(
      problem, plan, make_config(options, RaiseRuleKind::kUnit), &oracle);
  bool has_wide = false, has_narrow = false;
  for (InstanceId i = 0; i < problem.num_instances(); ++i) {
    if (is_wide_instance(problem.instance(i)))
      has_wide = true;
    else
      has_narrow = true;
    if (has_wide && has_narrow) break;
  }
  DistResult result;
  result.solution = std::move(run.solution);
  result.stats = run.stats;
  // Honest accounting of the per-network better-of combination: picking
  // the winner per network is not free in the distributed model — the
  // per-network profit totals of the two sub-solutions converge-cast up
  // each tree and the verdict broadcasts back, O(depth) rounds.  Charged
  // only when two classes actually ran (a single class has nothing to
  // combine), so the round identity becomes
  //   comm_rounds = mis_rounds + steps [+ better_of_convergecast_rounds].
  if (has_wide && has_narrow)
    result.stats.comm_rounds += better_of_convergecast_rounds(problem);
  result.profit = result.stats.profit;
  result.ratio_bound = proven_ratio_bound(
      problem, has_wide, has_narrow, result.stats.delta,
      target_lambda(options.stage_mode, options.epsilon));
  return result;
}

}  // namespace

DistResult solve_tree_unit_distributed(const Problem& problem,
                                       const DistOptions& options) {
  TS_REQUIRE(problem.unit_height());
  const LayeredPlan plan = build_tree_layered_plan(problem, options.decomp);
  return solve_unit(problem, plan, options);
}

DistResult solve_tree_arbitrary_distributed(const Problem& problem,
                                            const DistOptions& options) {
  const LayeredPlan plan = build_tree_layered_plan(problem, options.decomp);
  return solve_arbitrary(problem, plan, options);
}

DistResult solve_line_unit_distributed(const Problem& problem,
                                       const DistOptions& options) {
  TS_REQUIRE(problem.unit_height());
  const LayeredPlan plan = build_line_layered_plan(problem);
  return solve_unit(problem, plan, options);
}

DistResult solve_line_arbitrary_distributed(const Problem& problem,
                                            const DistOptions& options) {
  const LayeredPlan plan = build_line_layered_plan(problem);
  return solve_arbitrary(problem, plan, options);
}

// ---------------------------------------------------------------------------
// Message-level theorem wrappers.

namespace {

// The bound of an executed protocol run: the rule classes of its passes,
// each taken at the run's overall Delta like the modeled solve_arbitrary,
// at the certified lambda = min(1 - eps, observed) — the target when the
// budgets met it, the observed slackness otherwise (sound either way; 0
// -> no finite certificate).
double protocol_ratio_bound(const Problem& problem,
                            const ProtocolRunResult& run, double epsilon) {
  // Degraded-mode contract (dist/transport.hpp): a run that exhausted
  // the retransmit budget still yields a primal-feasible solution, but
  // its shard-reported lambda is only usable as a certificate when the
  // central replay validated it.  A failed validation never produces a
  // finite (unsound) bound.
  if (run.degraded && !run.certificate_ok)
    return std::numeric_limits<double>::infinity();
  int delta = 0;
  bool has_unit = false, has_narrow = false;
  for (const ProtocolPass& pass : run.passes) {
    delta = std::max(delta, pass.delta);
    if (pass.rule == RaiseRuleKind::kUnit)
      has_unit = true;
    else
      has_narrow = true;
  }
  return proven_ratio_bound(
      problem, has_unit, has_narrow, delta,
      std::min(target_lambda(StageMode::kMultiStage, epsilon),
               run.lambda_observed));
}

ProtocolDistResult finish_protocol(const Problem& problem,
                                   ProtocolRunResult run, double epsilon) {
  ProtocolDistResult result;
  result.profit = run.solution.profit(problem);
  result.ratio_bound = protocol_ratio_bound(problem, run, epsilon);
  result.run = std::move(run);
  return result;
}

}  // namespace

ProtocolDistResult run_tree_unit_protocol(const Problem& problem,
                                          const ProtocolOptions& options,
                                          DecompKind decomp) {
  TS_REQUIRE(problem.unit_height());
  const LayeredPlan plan = build_tree_layered_plan(problem, decomp);
  ProtocolOptions opt = options;
  opt.rule = RaiseRuleKind::kUnit;
  return finish_protocol(problem, run_distributed_protocol(problem, plan, opt),
                         opt.epsilon);
}

ProtocolDistResult run_tree_arbitrary_protocol(const Problem& problem,
                                               const ProtocolOptions& options,
                                               DecompKind decomp) {
  const LayeredPlan plan = build_tree_layered_plan(problem, decomp);
  return finish_protocol(problem,
                         run_height_split_protocol(problem, plan, options),
                         options.epsilon);
}

ProtocolDistResult run_line_unit_protocol(const Problem& problem,
                                          const ProtocolOptions& options) {
  TS_REQUIRE(problem.unit_height());
  const LayeredPlan plan = build_line_layered_plan(problem);
  ProtocolOptions opt = options;
  opt.rule = RaiseRuleKind::kUnit;
  return finish_protocol(problem, run_distributed_protocol(problem, plan, opt),
                         opt.epsilon);
}

ProtocolDistResult run_line_arbitrary_protocol(const Problem& problem,
                                               const ProtocolOptions& options) {
  const LayeredPlan plan = build_line_layered_plan(problem);
  return finish_protocol(problem,
                         run_height_split_protocol(problem, plan, options),
                         options.epsilon);
}

ProtocolDistResult run_nonuniform_protocol(const Problem& problem,
                                           const ProtocolOptions& options,
                                           bool line, DecompKind decomp) {
  ProtocolOptions opt = options;
  if (problem.unit_height()) {
    TS_REQUIRE(problem.min_capacity() >= 1.0 - kEps);
    opt.rule = RaiseRuleKind::kUnit;
  } else {
    TS_REQUIRE(all_instances_narrow(problem));
    opt.rule = RaiseRuleKind::kNarrow;
  }
  const LayeredPlan plan = line ? build_line_layered_plan(problem)
                                : build_tree_layered_plan(problem, decomp);
  return finish_protocol(problem, run_distributed_protocol(problem, plan, opt),
                         opt.epsilon);
}

}  // namespace treesched
