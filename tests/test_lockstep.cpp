// Lockstep schedule (paper, Section 5 "Distributed Implementation"):
// processors execute a *fixed* number of steps per stage derived from
// log2(pmax/pmin), because global emptiness of U is not observable.
// Lemma 5.1 predicts the budget suffices; these tests verify that the
// lockstep run still reaches lambda = 1-eps, stays feasible and within
// bound, and that its round accounting includes the idle steps.
#include <gtest/gtest.h>

#include <cmath>

#include "decomp/layered.hpp"
#include "dist/luby_mis.hpp"
#include "framework/two_phase.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::exact_opt;
using testutil::require_feasible;
using testutil::small_tree_problem;

TEST(Lockstep, FixedBudgetStillReachesTargetSlackness) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem p = small_tree_problem(seed + 500, 28, 2, 14);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.epsilon = 0.1;
    config.lockstep = true;
    LubyMis oracle(p, seed);
    const SolveResult run = solve_with_plan(p, plan, config, &oracle);
    EXPECT_TRUE(run.stats.lockstep_ok)
        << "Lemma 5.1 budget insufficient at seed " << seed;
    EXPECT_GE(run.stats.lambda_observed, 0.9 - 1e-6);
    require_feasible(p, run.solution);
  }
}

TEST(Lockstep, WithinBoundAgainstExact) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem p = small_tree_problem(seed + 600, 20, 2, 9);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.epsilon = 0.1;
    config.lockstep = true;
    const SolveResult run = solve_with_plan(p, plan, config);
    const Profit profit = require_feasible(p, run.solution);
    const Profit opt = exact_opt(p);
    const double bound = (run.stats.delta + 1.0) / 0.9;
    EXPECT_GE(profit * bound, opt - 1e-6) << "seed " << seed;
  }
}

TEST(Lockstep, EveryStageRunsTheFullBudget) {
  const Problem p = small_tree_problem(42, 28, 2, 14);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  SolverConfig config;
  config.epsilon = 0.2;
  config.lockstep = true;
  const SolveResult run = solve_with_plan(p, plan, config);
  const int budget =
      1 + kLockstepSlack +
      static_cast<int>(std::ceil(std::log2(p.max_profit() / p.min_profit())));
  // Non-empty epochs run stages of exactly `budget` steps each.
  EXPECT_EQ(run.stats.steps,
            run.stats.epochs * run.stats.stages_per_epoch * budget);
  EXPECT_EQ(run.stats.max_steps_in_stage, budget);
}

TEST(Lockstep, CostsMoreRoundsThanAdaptive) {
  const Problem p = small_tree_problem(43, 28, 2, 14);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  SolverConfig adaptive, lockstep;
  adaptive.epsilon = lockstep.epsilon = 0.1;
  lockstep.lockstep = true;
  const SolveResult a = solve_with_plan(p, plan, adaptive);
  const SolveResult b = solve_with_plan(p, plan, lockstep);
  EXPECT_GE(b.stats.comm_rounds, a.stats.comm_rounds);
  // Same final slackness either way.
  EXPECT_GE(b.stats.lambda_observed, 0.9 - 1e-6);
}

}  // namespace
}  // namespace treesched
