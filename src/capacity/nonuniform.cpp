#include "capacity/nonuniform.hpp"

#include <algorithm>
#include <vector>

#include "dist/luby_mis.hpp"
#include "framework/certify.hpp"

namespace treesched {

namespace {

LayeredPlan make_plan(const Problem& problem, const NonuniformOptions& opt) {
  return opt.line ? build_line_layered_plan(problem)
                  : build_tree_layered_plan(problem, opt.dist.decomp);
}

SolverConfig make_config(const NonuniformOptions& opt, RaiseRuleKind rule) {
  SolverConfig config;
  config.epsilon = opt.dist.epsilon;
  config.rule = rule;
  config.stage_mode = opt.dist.stage_mode;
  config.capacity_aware_raises = opt.capacity_aware;
  return config;
}

NonuniformResult solve_impl(const Problem& problem,
                            const NonuniformOptions& opt,
                            RaiseRuleKind rule) {
  const LayeredPlan plan = make_plan(problem, opt);
  const SolverConfig config = make_config(opt, rule);
  LubyMis oracle(problem, opt.dist.seed);

  NonuniformResult result;
  result.path_spread = max_path_capacity_spread(problem);
  result.classes = num_bottleneck_classes(problem);

  if (!opt.by_class) {
    TwoPhaseEngine engine(problem, plan, config, &oracle);
    SolveResult run = engine.run();
    result.solution = std::move(run.solution);
    result.stats = run.stats;
  } else {
    // One restricted run per bottleneck class (finest capacity locality),
    // then a greedy merge in descending per-class profit order.  Any
    // refinement of the group order keeps the interference property, so
    // each class run is itself a valid two-phase execution.
    std::vector<std::vector<InstanceId>> classes(
        static_cast<std::size_t>(result.classes));
    for (InstanceId i = 0; i < problem.num_instances(); ++i)
      classes[static_cast<std::size_t>(bottleneck_class(problem, i))]
          .push_back(i);

    std::vector<SolveResult> runs;
    for (auto& members : classes) {
      if (members.empty()) continue;
      TwoPhaseEngine engine(problem, plan, config, &oracle);
      engine.restrict_to(members);
      runs.push_back(engine.run());
    }
    std::sort(runs.begin(), runs.end(),
              [](const SolveResult& a, const SolveResult& b) {
                return a.stats.profit > b.stats.profit;
              });
    LoadTracker tracker(problem);
    for (const SolveResult& run : runs) {
      for (InstanceId i : run.solution.selected) {
        if (tracker.fits(i)) {
          tracker.add(i);
          result.solution.selected.push_back(i);
        }
      }
      if (result.stats.lambda_observed == 0.0)
        result.stats = run.stats;
      else
        result.stats.merge(run.stats);
    }
  }

  result.profit = result.solution.profit(problem);
  result.stats.profit = result.profit;

  result.ratio_bound = proven_ratio_bound(
      problem, rule == RaiseRuleKind::kUnit, rule == RaiseRuleKind::kNarrow,
      result.stats.delta,
      target_lambda(opt.dist.stage_mode, opt.dist.epsilon));
  return result;
}

}  // namespace

NonuniformResult solve_nonuniform_unit(const Problem& problem,
                                       const NonuniformOptions& options) {
  TS_REQUIRE(problem.unit_height());
  TS_REQUIRE(problem.min_capacity() >= 1.0 - kEps);
  return solve_impl(problem, options, RaiseRuleKind::kUnit);
}

NonuniformResult solve_nonuniform_narrow(const Problem& problem,
                                         const NonuniformOptions& options) {
  TS_REQUIRE(all_instances_narrow(problem));
  return solve_impl(problem, options, RaiseRuleKind::kNarrow);
}

}  // namespace treesched
