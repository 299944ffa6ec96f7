#include "seq/sequential.hpp"

#include "framework/certify.hpp"

namespace treesched {

LayeredPlan build_endtime_plan(const Problem& problem) {
  TS_REQUIRE(problem.finalized());
  LayeredPlan plan;
  plan.group.assign(static_cast<std::size_t>(problem.num_instances()), 0);
  plan.critical_edges.reserve(static_cast<std::size_t>(problem.num_instances()));
  plan.critical_offset.reserve(
      static_cast<std::size_t>(problem.num_instances()) + 1);

  plan.num_groups = 1;
  for (InstanceId i = 0; i < problem.num_instances(); ++i) {
    const IdRuns path = problem.path(i);
    // Instances of a path network have contiguous global edge ids; the
    // *local* end slot orders the processing (ascending), so overlapping
    // d1 before d2 implies end(d1) is on path(d2).
    const auto [network, local_end] = problem.edge_owner(path.back());
    (void)network;
    TS_REQUIRE(path.single_run());
    plan.group[static_cast<std::size_t>(i)] = local_end;
    plan.num_groups = std::max(plan.num_groups, local_end + 1);
    plan.critical_edges.push_back(path.back());
    plan.critical_offset.push_back(
        static_cast<std::int64_t>(plan.critical_edges.size()));
  }
  plan.delta = 1;
  plan.members.assign(static_cast<std::size_t>(plan.num_groups), {});
  for (InstanceId i = 0; i < problem.num_instances(); ++i)
    plan.members[static_cast<std::size_t>(
                     plan.group[static_cast<std::size_t>(i)])]
        .push_back(i);
  return plan;
}

namespace detail {

SolverConfig line_sequential_config(RaiseRuleKind rule) {
  SolverConfig config;
  config.rule = rule;
  config.stage_mode = StageMode::kExact;  // lambda = 1
  return config;
}

}  // namespace detail

SeqResult solve_line_unit_sequential(const Problem& problem) {
  TS_REQUIRE(problem.unit_height());
  const LayeredPlan plan = build_endtime_plan(problem);
  const SolverConfig config =
      detail::line_sequential_config(RaiseRuleKind::kUnit);
  const SolveResult run = solve_with_plan(problem, plan, config);

  SeqResult result;
  result.solution = run.solution;
  result.stats = run.stats;
  result.profit = run.stats.profit;
  // Delta = 1, lambda = 1: the classical 2-approximation.
  result.ratio_bound =
      proven_ratio_bound(problem, /*unit_ran=*/true, /*narrow_ran=*/false,
                         plan.delta, /*lambda=*/1.0);
  return result;
}

SeqResult solve_line_arbitrary_sequential(const Problem& problem) {
  const LayeredPlan plan = build_endtime_plan(problem);
  const SolverConfig config =
      detail::line_sequential_config(RaiseRuleKind::kNarrow);
  const SolveResult run = solve_height_split(problem, plan, config);

  SeqResult result;
  result.solution = run.solution;
  result.stats = run.stats;
  result.profit = run.stats.profit;
  // Wide 2 + narrow (1+2*1) = 5: the classical Bar-Noy 5-approximation.
  result.ratio_bound = proven_ratio_bound(problem, true, true, plan.delta, 1.0);
  return result;
}

}  // namespace treesched
