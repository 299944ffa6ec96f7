#include "framework/two_phase.hpp"

#include <gtest/gtest.h>

#include "decomp/layered.hpp"
#include "model/line_problem.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::expect_raises_follow_group_order;
using testutil::require_feasible;
using testutil::small_line_problem;
using testutil::small_tree_problem;

TEST(GreedyMis, ProducesMaximalIndependentSets) {
  const Problem p = small_tree_problem(3, 30, 2, 15);
  GreedyMis mis(p);
  std::vector<InstanceId> all(static_cast<std::size_t>(p.num_instances()));
  for (InstanceId i = 0; i < p.num_instances(); ++i)
    all[static_cast<std::size_t>(i)] = i;
  const MisResult result = mis.run(all);
  ASSERT_FALSE(result.selected.empty());
  // Independence.
  for (std::size_t a = 0; a < result.selected.size(); ++a)
    for (std::size_t b = a + 1; b < result.selected.size(); ++b)
      EXPECT_FALSE(p.conflicting(result.selected[a], result.selected[b]));
  // Maximality.
  for (InstanceId i : all) {
    bool in = false, blocked = false;
    for (InstanceId s : result.selected) {
      in |= (s == i);
      blocked |= p.conflicting(i, s);
    }
    EXPECT_TRUE(in || blocked) << "instance " << i << " not dominated";
  }
}

TEST(TwoPhase, ForcedChoiceTinyInstance) {
  // Two unit demands over one shared edge: only the more profitable one
  // can win; a third disjoint demand must always be schedulable.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(7));
  Problem p(7, std::move(networks));
  p.add_demand(0, 3, 1.0);   // slots 0-2
  p.add_demand(1, 4, 10.0);  // slots 1-3 (conflicts with the first)
  p.add_demand(4, 6, 2.0);   // slots 4-5 (free)
  p.finalize();
  const LayeredPlan plan = build_line_layered_plan(p);
  SolverConfig config;
  config.epsilon = 0.05;
  const SolveResult run = solve_with_plan(p, plan, config);
  EXPECT_NEAR(run.stats.profit, 12.0, 1e-9);  // must take demands 1 and 2
  require_feasible(p, run.solution);
}

TEST(TwoPhase, OutputAlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem p = small_tree_problem(seed, 32, 2, 20,
                                         HeightLaw::kUniformRange);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.rule = RaiseRuleKind::kNarrow;
    const SolveResult run = solve_with_plan(p, plan, config);
    require_feasible(p, run.solution);
  }
}

TEST(TwoPhase, MultiStageReachesOneMinusEps) {
  const Problem p = small_tree_problem(4, 40, 2, 25);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  SolverConfig config;
  config.epsilon = 0.2;
  const SolveResult run = solve_with_plan(p, plan, config);
  // Section 5: at the end of phase 1 every instance is (1-eps)-satisfied.
  EXPECT_GE(run.stats.lambda_observed, 1.0 - 0.2 - 1e-6);
  // xi is derived from the *observed* Delta (<= 6 for the ideal plan;
  // small instances often realize a smaller critical-set size).
  EXPECT_LE(run.stats.delta, 6);
  EXPECT_DOUBLE_EQ(run.stats.xi, RaiseRule::default_xi(RaiseRuleKind::kUnit,
                                                       run.stats.delta, 1.0));
}

TEST(TwoPhase, SingleStagePsReachesOneFifth) {
  const Problem p = small_tree_problem(5, 40, 2, 25);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  SolverConfig config;
  config.epsilon = 0.1;
  config.stage_mode = StageMode::kSingleStagePS;
  const SolveResult run = solve_with_plan(p, plan, config);
  EXPECT_GE(run.stats.lambda_observed, 1.0 / 5.1 - 1e-6);
  EXPECT_EQ(run.stats.stages_per_epoch, 1);
}

TEST(TwoPhase, ExactModeSatisfiesEverythingTightly) {
  const Problem p = small_tree_problem(6, 30, 2, 18);
  const LayeredPlan plan = build_tree_layered_plan(
      p, DecompKind::kRootFixing, /*mu_wings_only=*/true);
  SolverConfig config;
  config.stage_mode = StageMode::kExact;
  const SolveResult run = solve_with_plan(p, plan, config);
  EXPECT_GE(run.stats.lambda_observed, 1.0 - 1e-6);
  // Exact mode: dual upper bound equals the raw dual objective.
  EXPECT_NEAR(run.stats.dual_upper_bound, run.stats.dual_objective,
              1e-6 * run.stats.dual_objective);
}

TEST(TwoPhase, RaisesFollowGroupOrder) {
  // A valid plan plus raises in group order is the interference property
  // of every raise (see expect_raises_follow_group_order), on both
  // engines under both schedules.
  const Problem tree = small_tree_problem(7, 24, 2, 14);
  const Problem line = small_line_problem(7, 30, 2, 10);
  const LayeredPlan tree_plan =
      build_tree_layered_plan(tree, DecompKind::kIdeal);
  const LayeredPlan line_plan = build_line_layered_plan(line);
  EXPECT_FALSE(interference_violation(tree, tree_plan).has_value());
  EXPECT_FALSE(interference_violation(line, line_plan).has_value());
  for (const EngineImpl engine :
       {EngineImpl::kCentralReference, EngineImpl::kIncremental}) {
    for (const bool lockstep : {false, true}) {
      SolverConfig config;
      config.engine = engine;
      config.lockstep = lockstep;
      config.keep_stack = true;
      const std::string what =
          "engine=" + std::to_string(static_cast<int>(engine)) +
          " lockstep=" + std::to_string(lockstep);
      expect_raises_follow_group_order(
          tree_plan, solve_with_plan(tree, tree_plan, config), "tree " + what);
      expect_raises_follow_group_order(
          line_plan, solve_with_plan(line, line_plan, config), "line " + what);
    }
  }
}

TEST(TwoPhase, RestrictToSubset) {
  const Problem p = small_tree_problem(8, 24, 2, 14);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  std::vector<InstanceId> evens;
  for (InstanceId i = 0; i < p.num_instances(); i += 2) evens.push_back(i);
  TwoPhaseEngine engine(p, plan, SolverConfig{});
  engine.restrict_to(evens);
  const SolveResult run = engine.run();
  require_feasible(p, run.solution);
  for (InstanceId i : run.solution.selected) EXPECT_EQ(i % 2, 0);
}

TEST(TwoPhase, EmptyRestrictionYieldsEmptySolution) {
  const Problem p = small_tree_problem(9, 20, 2, 10);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  TwoPhaseEngine engine(p, plan, SolverConfig{});
  engine.restrict_to({});
  const SolveResult run = engine.run();
  EXPECT_TRUE(run.solution.selected.empty());
  EXPECT_EQ(run.stats.lambda_observed, 1.0);
}

TEST(TwoPhase, HeightSplitCombinationIsFeasibleAndNoWorse) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem p = small_tree_problem(seed + 100, 32, 2, 20,
                                         HeightLaw::kBimodal);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.rule = RaiseRuleKind::kNarrow;
    const SolveResult combined = solve_height_split(p, plan, config);
    require_feasible(p, combined.solution);
    // The per-network better-of cannot fall below either sub-run's profit
    // restricted to... at minimum it's at least max of the parts' total
    // profits divided across networks; we check the cheap invariant:
    // profit > 0 whenever some demand fits alone.
    EXPECT_GT(combined.stats.profit, 0.0);
  }
}

TEST(TwoPhase, DualBoundDominatesOwnProfit) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem p = small_tree_problem(seed + 40, 28, 2, 16);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    const SolveResult run = solve_with_plan(p, plan, SolverConfig{});
    EXPECT_GE(run.stats.dual_upper_bound, run.stats.profit - 1e-6);
  }
}

TEST(TwoPhase, StatsMergeIgnoresUnsetLambda) {
  // Regression: an unset (0.0) lambda on *either* side must not clobber
  // a real value through std::min — a merged lambda of 0.0 poisons every
  // dual_upper_bound derived from it.
  SolveStats real, unset;
  real.lambda_observed = 0.9;
  real.merge(unset);
  EXPECT_DOUBLE_EQ(real.lambda_observed, 0.9);

  SolveStats fresh;
  fresh.merge(real);
  EXPECT_DOUBLE_EQ(fresh.lambda_observed, 0.9);

  SolveStats both_unset;
  both_unset.merge(SolveStats{});
  EXPECT_DOUBLE_EQ(both_unset.lambda_observed, 0.0);
}

TEST(TwoPhase, LockstepBudgetSurvivesDegenerateProfits) {
  // Equal profits: the log term vanishes, budget = 1 + slack.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(6));
  Problem equal(6, std::move(networks));
  equal.add_demand(0, 2, 5.0);
  equal.add_demand(3, 5, 5.0);
  equal.finalize();
  EXPECT_EQ(lockstep_step_budget(equal), 1 + kLockstepSlack);

  // An astronomically spread (overflowing) profit ratio must yield a
  // finite budget — casting inf/NaN to int is UB.
  std::vector<TreeNetwork> networks2;
  networks2.push_back(TreeNetwork::line(6));
  Problem spread(6, std::move(networks2));
  spread.add_demand(0, 2, 1e-300);
  spread.add_demand(3, 5, 1e300);
  spread.finalize();
  const int budget = lockstep_step_budget(spread);
  EXPECT_GE(budget, 1);
  EXPECT_LE(budget, 1 + kLockstepSlack + 62);
}

// An oracle that always comes back empty-handed, as a budget-limited
// randomized MIS legitimately can (with vanishing probability).
class FailingMis : public MisOracle {
 public:
  MisResult run(std::span<const InstanceId>) override {
    MisResult result;
    result.rounds = 2;
    return result;
  }
};

TEST(TwoPhase, EmptyMisResultDoesNotAbort) {
  const Problem p = small_tree_problem(21, 20, 2, 10);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  FailingMis oracle;
  // threads is a no-op: threads = 4 runs the same serial loop on the
  // oracle as threads = 1.
  for (const int threads : {1, 4}) {
    for (const bool lockstep : {false, true}) {
      SolverConfig config;
      config.lockstep = lockstep;
      config.threads = threads;
      const SolveResult run = solve_with_plan(p, plan, config, &oracle);
      EXPECT_TRUE(run.solution.selected.empty());
      EXPECT_FALSE(run.stats.mis_ok);
      EXPECT_FALSE(run.stats.lockstep_ok);
      EXPECT_EQ(run.stats.raises, 0);
      EXPECT_GT(run.stats.steps, 0);  // idle steps are still counted
      // The degrade must be *counted*, not just flagged: every idle step
      // contributes, so the CLI/bench warnings can say how bad it was.
      EXPECT_GT(run.stats.mis_failed_steps, 0);
      EXPECT_LE(run.stats.mis_failed_steps,
                static_cast<std::int64_t>(run.stats.steps));
    }
  }
}

TEST(TwoPhase, StageTotalsPast32Bits) {
  // One wide demand and two narrow ones at h = 3e-8 on a 12-slot line:
  // the narrow class runs 1,458,303,949 stages per epoch over two epochs,
  // and the wide class 20 stages, so the run's stage total passes 2^31.
  // Idle stages cost nothing, so this takes milliseconds; the central
  // reference would step through every stage for minutes.
  LineProblem line(12, 1);
  line.add_demand(0, 10, 3, 5.0, 1.0);
  line.add_demand(1, 8, 3, 2.0, 3e-8);
  line.add_demand(0, 11, 6, 3.0, 3e-8);
  const Problem p = line.lower();
  const LayeredPlan plan = build_line_layered_plan(p);
  const int budget = lockstep_step_budget(p);
  for (const bool lockstep : {false, true}) {
    SolverConfig config;
    config.lockstep = lockstep;
    const SolveResult run = solve_height_split(p, plan, config);
    EXPECT_EQ(run.stats.stages, 2916607918) << "lockstep=" << lockstep;
    if (lockstep) {
      EXPECT_EQ(run.stats.steps, run.stats.stages * budget);
      EXPECT_EQ(run.stats.max_steps_in_stage, budget);
    }
    EXPECT_TRUE(run.stats.lockstep_ok) << "lockstep=" << lockstep;
    require_feasible(p, run.solution);
  }
}

TEST(TwoPhase, StatsMergeTakesWorstLambdaAndSums) {
  SolveStats a, b;
  a.steps = 3;
  a.lambda_observed = 0.9;
  a.dual_upper_bound = 10.0;
  a.delta = 6;
  b.steps = 4;
  b.lambda_observed = 0.8;
  b.dual_upper_bound = 5.0;
  b.delta = 3;
  a.merge(b);
  EXPECT_EQ(a.steps, 7);
  EXPECT_DOUBLE_EQ(a.lambda_observed, 0.8);
  EXPECT_DOUBLE_EQ(a.dual_upper_bound, 15.0);
  EXPECT_EQ(a.delta, 6);
}

TEST(TwoPhase, StatsMergeCoversEveryField) {
  // Guard against the PR-2 bug class: a field added to SolveStats but
  // forgotten in merge() silently drops half of a combined run's stats.
  // The static_assert trips whenever the struct grows or shrinks; when
  // it fires, extend merge(), then teach THIS test the new field's merge
  // semantics, then update the expected size.
  static_assert(sizeof(SolveStats) == 160,
                "SolveStats changed size: update SolveStats::merge and "
                "TwoPhase.StatsMergeCoversEveryField");

  SolveStats a, b;
  a.epochs = 1;
  b.epochs = 2;
  a.stages = 3;
  b.stages = 4;
  a.steps = 5;
  b.steps = 6;
  a.max_steps_in_stage = 7;
  b.max_steps_in_stage = 8;
  a.raises = 9;
  b.raises = 10;
  a.mis_rounds = 11;
  b.mis_rounds = 12;
  a.comm_rounds = 13;
  b.comm_rounds = 14;
  a.dual_objective = 19.0;
  b.dual_objective = 20.0;
  a.lambda_observed = 0.9;
  b.lambda_observed = 0.8;
  a.dual_upper_bound = 21.0;
  b.dual_upper_bound = 22.0;
  a.delta = 23;
  b.delta = 24;
  a.xi = 25.0;
  b.xi = 26.0;
  a.stages_per_epoch = 27;
  b.stages_per_epoch = 28;
  a.profit = 29.0;
  b.profit = 30.0;
  a.lockstep_ok = false;
  b.lockstep_ok = true;
  a.mis_ok = true;
  b.mis_ok = false;
  a.mis_failed_steps = 31;
  b.mis_failed_steps = 32;
  a.mis_retries = 39;
  b.mis_retries = 40;
  a.epoch_setup_ns = 33;
  b.epoch_setup_ns = 34;
  a.forest_build_ns = 35;
  b.forest_build_ns = 36;
  a.merge_ns = 37;
  b.merge_ns = 38;

  a.merge(b);
  EXPECT_EQ(a.epochs, 3);
  EXPECT_EQ(a.stages, 7);
  EXPECT_EQ(a.steps, 11);
  EXPECT_EQ(a.max_steps_in_stage, 8);
  EXPECT_EQ(a.raises, 19);
  EXPECT_EQ(a.mis_rounds, 23);
  EXPECT_EQ(a.comm_rounds, 27);
  EXPECT_DOUBLE_EQ(a.dual_objective, 39.0);
  EXPECT_DOUBLE_EQ(a.lambda_observed, 0.8);  // worst (min of set values)
  EXPECT_DOUBLE_EQ(a.dual_upper_bound, 43.0);
  EXPECT_EQ(a.delta, 24);
  EXPECT_DOUBLE_EQ(a.xi, 26.0);
  EXPECT_EQ(a.stages_per_epoch, 28);
  // profit is deliberately NOT merged: it is recomputed from the
  // combined solution, never summed (the runs share instances).
  EXPECT_DOUBLE_EQ(a.profit, 29.0);
  EXPECT_FALSE(a.lockstep_ok);      // AND
  EXPECT_FALSE(a.mis_ok);           // AND
  EXPECT_EQ(a.mis_failed_steps, 63);
  EXPECT_EQ(a.mis_retries, 79);
  EXPECT_EQ(a.epoch_setup_ns, 67);
  EXPECT_EQ(a.forest_build_ns, 71);
  EXPECT_EQ(a.merge_ns, 75);
}

}  // namespace
}  // namespace treesched
