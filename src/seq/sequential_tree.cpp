#include "seq/sequential.hpp"

#include "framework/certify.hpp"

namespace treesched {

namespace {

SolverConfig sequential_config(const Problem& problem, RaiseRuleKind rule) {
  SolverConfig config;
  config.rule = rule;
  config.stage_mode = StageMode::kExact;  // lambda = 1
  // Single-network refinement (Appendix A): with one tree every demand
  // has at most one instance, so the per-demand dual alpha is never
  // needed and the price factor drops by one.
  bool single_instance_demands = true;
  for (DemandId d = 0; d < problem.num_demands(); ++d) {
    if (problem.instances_of_demand(d).size() > 1) {
      single_instance_demands = false;
      break;
    }
  }
  config.raise_alpha = !single_instance_demands;
  return config;
}

}  // namespace

SeqResult solve_tree_unit_sequential(const Problem& problem) {
  TS_REQUIRE(problem.unit_height());
  const LayeredPlan plan = build_tree_layered_plan(
      problem, DecompKind::kRootFixing, /*mu_wings_only=*/true);
  TS_REQUIRE(plan.delta <= 2);  // wings of the capture node
  const SolverConfig config = sequential_config(problem, RaiseRuleKind::kUnit);
  const SolveResult run = solve_with_plan(problem, plan, config);

  SeqResult result;
  result.solution = run.solution;
  result.stats = run.stats;
  result.profit = run.stats.profit;
  result.ratio_bound =
      proven_ratio_bound(problem, /*unit_ran=*/true, /*narrow_ran=*/false,
                         plan.delta, /*lambda=*/1.0, config.raise_alpha);
  return result;
}

SeqResult solve_tree_arbitrary_sequential(const Problem& problem) {
  const LayeredPlan plan = build_tree_layered_plan(
      problem, DecompKind::kRootFixing, /*mu_wings_only=*/true);
  TS_REQUIRE(plan.delta <= 2);
  const SolverConfig config =
      sequential_config(problem, RaiseRuleKind::kNarrow);
  const SolveResult run = solve_height_split(problem, plan, config);

  SeqResult result;
  result.solution = run.solution;
  result.stats = run.stats;
  result.profit = run.stats.profit;
  result.ratio_bound = proven_ratio_bound(problem, true, true, plan.delta,
                                          1.0, config.raise_alpha);
  return result;
}

}  // namespace treesched
