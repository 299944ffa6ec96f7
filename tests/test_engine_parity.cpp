// Central-vs-incremental engine parity (the oracle that keeps the
// incremental rewrite honest): the cached-LHS frontier engine must
// reproduce the central-DualState reference engine EXACTLY, at every
// SolverConfig::threads value (a no-op the threads axes pin).  Selected set, raise stack,
// lambda_observed, dual_objective and every count are compared with ==,
// no tolerances: the incremental path replays the reference path's
// floating-point operation order (every alpha and beta takes the same
// increments in the same order, stale LHS values are recomputed by the
// same ascending-edge walk, the objective accumulates chronologically),
// so even the doubles are bit-identical.
#include "framework/two_phase.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "decomp/layered.hpp"
#include "dist/luby_mis.hpp"
#include "common/rng.hpp"
#include "model/line_problem.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "workload/line_gen.hpp"
#include "workload/scenario.hpp"

namespace treesched {
namespace {

// TREESCHED_TRACE=1 reruns this whole suite with the flight recorder on:
// the CI sanitizer job uses it to prove tracing cannot perturb any field
// compared with == below (the ISSUE's "tracing is invisible" guarantee).
[[maybe_unused]] const bool trace_env_hook = [] {
  if (std::getenv("TREESCHED_TRACE") != nullptr) obs::enable_tracing();
  return true;
}();

using testutil::require_feasible;
using testutil::small_line_problem;
using testutil::small_tree_problem;

// Whether some epoch's consecutive raise rows lie three or more stages
// apart: the stages between them were idle, and the incremental engine
// skipped them with one jump that had to land on the later row's stage.
bool has_multi_stage_jump(const std::vector<StackTag>& tags) {
  for (std::size_t k = 1; k < tags.size(); ++k)
    if (tags[k].group == tags[k - 1].group &&
        tags[k].stage >= tags[k - 1].stage + 3)
      return true;
  return false;
}

// Compares two runs field by field with exact equality.
void expect_identical(const SolveResult& ref, const SolveResult& got,
                      const std::string& what) {
  EXPECT_EQ(ref.solution.selected, got.solution.selected) << what;
  EXPECT_EQ(ref.raise_stack, got.raise_stack) << what;
  // The online warm-start cache splices rows by these tags and caches the
  // final LHS, so both must match too.
  EXPECT_EQ(ref.stack_tags, got.stack_tags) << what;
  EXPECT_EQ(ref.final_lhs, got.final_lhs) << what;
  EXPECT_EQ(ref.stats.epochs, got.stats.epochs) << what;
  EXPECT_EQ(ref.stats.stages, got.stats.stages) << what;
  EXPECT_EQ(ref.stats.steps, got.stats.steps) << what;
  EXPECT_EQ(ref.stats.max_steps_in_stage, got.stats.max_steps_in_stage)
      << what;
  EXPECT_EQ(ref.stats.raises, got.stats.raises) << what;
  EXPECT_EQ(ref.stats.mis_rounds, got.stats.mis_rounds) << what;
  EXPECT_EQ(ref.stats.comm_rounds, got.stats.comm_rounds) << what;
  // Doubles with ==: bit-identical, not merely close.
  EXPECT_EQ(ref.stats.dual_objective, got.stats.dual_objective) << what;
  EXPECT_EQ(ref.stats.lambda_observed, got.stats.lambda_observed) << what;
  EXPECT_EQ(ref.stats.dual_upper_bound, got.stats.dual_upper_bound) << what;
  EXPECT_EQ(ref.stats.profit, got.stats.profit) << what;
  EXPECT_EQ(ref.stats.delta, got.stats.delta) << what;
  EXPECT_EQ(ref.stats.xi, got.stats.xi) << what;
  EXPECT_EQ(ref.stats.stages_per_epoch, got.stats.stages_per_epoch) << what;
  EXPECT_EQ(ref.stats.lockstep_ok, got.stats.lockstep_ok) << what;
  EXPECT_EQ(ref.stats.mis_ok, got.stats.mis_ok) << what;
  EXPECT_EQ(ref.stats.mis_failed_steps, got.stats.mis_failed_steps) << what;
  EXPECT_EQ(ref.stats.mis_retries, got.stats.mis_retries) << what;
}

// Runs the reference engine and the incremental engine (threads = 1 and
// threads = 4) on the same problem/plan/config and demands bitwise
// equality: all three runs must coincide exactly.  A nonzero luby_seed
// gives each run a fresh LubyMis on that seed instead of GreedyMis.
// Returns the reference run.
SolveResult expect_parity(const Problem& p, const LayeredPlan& plan,
                          SolverConfig config, const std::string& what,
                          std::uint64_t luby_seed = 0) {
  config.keep_stack = true;
  config.keep_lhs = true;
  const auto solve = [&](const SolverConfig& run_config) {
    if (luby_seed == 0) return solve_with_plan(p, plan, run_config);
    LubyMis oracle(p, luby_seed);
    return solve_with_plan(p, plan, run_config, &oracle);
  };

  SolverConfig central = config;
  central.engine = EngineImpl::kCentralReference;
  const SolveResult ref = solve(central);

  for (const int threads : {1, 4}) {
    SolverConfig incremental = config;
    incremental.engine = EngineImpl::kIncremental;
    incremental.threads = threads;
    const SolveResult got = solve(incremental);
    expect_identical(ref, got,
                     what + " threads=" + std::to_string(threads));
    require_feasible(p, got.solution);
  }
  return ref;
}

TEST(EngineParity, TreeUnitAcrossLockstepAndThreads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = small_tree_problem(seed, 40, 2, 24);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    for (const bool lockstep : {false, true}) {
      SolverConfig config;
      config.epsilon = 0.15;
      config.lockstep = lockstep;
      expect_parity(p, plan, config,
                    "tree-unit seed=" + std::to_string(seed) +
                        " lockstep=" + std::to_string(lockstep));
    }
  }
}

TEST(EngineParity, TreeArbitraryHeightsNarrowRule) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem p = small_tree_problem(seed + 30, 36, 2, 20,
                                         HeightLaw::kUniformRange);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.rule = RaiseRuleKind::kNarrow;
    expect_parity(p, plan, config,
                  "tree-narrow seed=" + std::to_string(seed));
  }
}

TEST(EngineParity, LineUnitAndArbitrary) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem unit = small_line_problem(seed, 30, 2, 10);
    const LayeredPlan unit_plan = build_line_layered_plan(unit);
    SolverConfig config;
    config.epsilon = 0.2;
    expect_parity(unit, unit_plan,
                  config, "line-unit seed=" + std::to_string(seed));

    const Problem arb = small_line_problem(seed + 60, 30, 2, 10,
                                           HeightLaw::kUniformRange);
    const LayeredPlan arb_plan = build_line_layered_plan(arb);
    SolverConfig narrow = config;
    narrow.rule = RaiseRuleKind::kNarrow;
    expect_parity(arb, arb_plan, narrow,
                  "line-narrow seed=" + std::to_string(seed));
  }
}

TEST(EngineParity, StageModesAndRefinements) {
  const Problem p = small_tree_problem(77, 36, 2, 20);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  for (const StageMode mode :
       {StageMode::kMultiStage, StageMode::kSingleStagePS,
        StageMode::kExact}) {
    SolverConfig config;
    config.stage_mode = mode;
    expect_parity(p, plan, config,
                  "mode=" + std::to_string(static_cast<int>(mode)));
  }
  // Appendix-A refinement: no alpha raise.  (Approximation-wise this is
  // only sound for single-instance demands, but both engines must agree
  // mechanically on any input.)
  const LayeredPlan mu_plan = build_tree_layered_plan(
      p, DecompKind::kRootFixing, /*mu_wings_only=*/true);
  SolverConfig no_alpha;
  no_alpha.raise_alpha = false;
  expect_parity(p, mu_plan, no_alpha, "no-alpha root-fixing");
}

TEST(EngineParity, HeightSplitAndRestriction) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem p = small_tree_problem(seed + 200, 32, 2, 20,
                                         HeightLaw::kBimodal);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    for (const int threads : {1, 4}) {
      SolverConfig central;
      central.engine = EngineImpl::kCentralReference;
      SolverConfig incremental;
      incremental.engine = EngineImpl::kIncremental;
      incremental.threads = threads;
      const SolveResult ref = solve_height_split(p, plan, central);
      const SolveResult got = solve_height_split(p, plan, incremental);
      EXPECT_EQ(ref.solution.selected, got.solution.selected);
      EXPECT_EQ(ref.stats.steps, got.stats.steps);
      EXPECT_EQ(ref.stats.dual_objective, got.stats.dual_objective);
      EXPECT_EQ(ref.stats.lambda_observed, got.stats.lambda_observed);
      EXPECT_EQ(ref.stats.profit, got.stats.profit);
    }
    // restrict_to: the subset runs must also coincide.
    std::vector<InstanceId> evens;
    for (InstanceId i = 0; i < p.num_instances(); i += 2) evens.push_back(i);
    SolverConfig central;
    central.engine = EngineImpl::kCentralReference;
    central.keep_stack = true;
    TwoPhaseEngine ref_engine(p, plan, central);
    ref_engine.restrict_to(evens);
    const SolveResult ref = ref_engine.run();
    for (const int threads : {1, 4}) {
      SolverConfig incremental;
      incremental.keep_stack = true;
      incremental.threads = threads;
      TwoPhaseEngine engine(p, plan, incremental);
      engine.restrict_to(evens);
      const SolveResult got = engine.run();
      expect_identical(ref, got, "restricted threads=" +
                                     std::to_string(threads));
    }
  }
}

TEST(EngineParity, LubyOracleSerialIsBitIdenticalToCentral) {
  // A stateful randomized oracle consumes one global stream: with
  // threads == 1 the incremental engine presents it the exact same
  // candidate sequences as the reference engine, so the whole run —
  // draws included — is reproduced bit for bit.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Problem p = small_tree_problem(seed + 400, 40, 2, 24);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.keep_stack = true;
    config.engine = EngineImpl::kCentralReference;
    LubyMis ref_oracle(p, seed);
    const SolveResult ref = solve_with_plan(p, plan, config, &ref_oracle);
    config.engine = EngineImpl::kIncremental;
    LubyMis inc_oracle(p, seed);
    const SolveResult got = solve_with_plan(p, plan, config, &inc_oracle);
    expect_identical(ref, got, "luby seed=" + std::to_string(seed));
    // threads = 4 is the same serial loop, so it reproduces central too.
    config.threads = 4;
    LubyMis oracle4(p, seed);
    const SolveResult got4 = solve_with_plan(p, plan, config, &oracle4);
    expect_identical(ref, got4,
                     "luby threads=4 seed=" + std::to_string(seed));
  }
}

TEST(EngineParity, LubyParallelIsDeterministicAndCertified) {
  // SolverConfig::threads is a no-op: LubyMis at threads {1, 2, 4}
  // consumes its one stream exactly as the central reference does, so
  // every run equals the reference bit for bit and meets the stage
  // targets.  Both tree decompositions: their plans group the instances
  // differently.
  const Problem p = small_tree_problem(500, 48, 2, 28);
  for (const DecompKind kind :
       {DecompKind::kIdeal, DecompKind::kRootFixing}) {
    const LayeredPlan plan = build_tree_layered_plan(p, kind);
    SolverConfig config;
    config.keep_stack = true;
    config.epsilon = 0.2;
    SolverConfig central = config;
    central.engine = EngineImpl::kCentralReference;
    LubyMis ref_oracle(p, 9);
    const SolveResult ref = solve_with_plan(p, plan, central, &ref_oracle);
    for (const int threads : {1, 2, 4}) {
      SolverConfig run_config = config;
      run_config.threads = threads;
      LubyMis oracle(p, 9);
      const SolveResult got = solve_with_plan(p, plan, run_config, &oracle);
      require_feasible(p, got.solution);
      EXPECT_GE(got.stats.lambda_observed, 1.0 - 0.2 - 1e-6);
      expect_identical(ref, got, std::string("luby ") + to_string(kind) +
                                     " threads=" + std::to_string(threads));
    }
  }
}

TEST(EngineParity, NonUniformCapacitiesAndXiOverride) {
  TreeScenarioSpec spec;
  spec.num_vertices = 36;
  spec.num_networks = 2;
  spec.demands.num_demands = 22;
  spec.demands.profit_max = 40.0;
  spec.seed = 321;
  spec.capacities = CapacityLaw::kTwoClass;
  spec.capacity_spread = 4.0;
  const Problem p = make_tree_problem(spec);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  for (const bool aware : {true, false}) {
    SolverConfig config;
    config.capacity_aware_raises = aware;
    expect_parity(p, plan, config,
                  "nonuniform aware=" + std::to_string(aware));
  }
  SolverConfig override_config;
  override_config.xi_override = 0.9;
  expect_parity(p, plan, override_config, "xi-override");

  // Extreme magnitudes: profits pinned at exactly 1 and profit_max (one
  // extra demand each, so pmax/pmin = profit_max; at 1e300 the lockstep
  // budget hits its log cap) over capacities near 0.  Every arm must
  // still be bit-identical, feasible and certify a finite bound.
  for (const double profit_max : {1e12, 1e300}) {
    for (const double capacity_base : {1e-9, 1e-300}) {
      spec.demands.profit_max = profit_max;
      spec.capacity_base = capacity_base;
      Problem extreme = make_tree_problem(spec);
      extreme.reopen();
      extreme.add_demand(0, 1, 1.0);
      extreme.add_demand(2, 3, profit_max);
      extreme.finalize();
      const LayeredPlan extreme_plan =
          build_tree_layered_plan(extreme, DecompKind::kIdeal);
      for (const bool lockstep : {false, true}) {
        SolverConfig aware, uniform, xi;
        uniform.capacity_aware_raises = false;
        xi.xi_override = 0.9;
        for (SolverConfig config : {aware, uniform, xi}) {
          config.lockstep = lockstep;
          char what[96];
          std::snprintf(what, sizeof what,
                        "pmax=%g cap=%g lockstep=%d aware=%d xi=%g",
                        profit_max, capacity_base, lockstep,
                        config.capacity_aware_raises, config.xi_override);
          const SolveResult ref =
              expect_parity(extreme, extreme_plan, config, what);
          EXPECT_TRUE(std::isfinite(ref.stats.dual_upper_bound)) << what;
        }
      }
    }
  }
}

TEST(EngineParity, TinyHeightsJumpOverIdleStages) {
  // Narrow-only problems with one demand pinned at h_min: xi = c/(c+h_min)
  // runs ~c ln(1/eps)/h_min stages per epoch (~10^3 to ~10^6 here), nearly
  // all idle, so the incremental engine jumps over almost every stage the
  // central reference steps through, under both schedules and both
  // oracles.
  for (const double h_min : {1e-2, 1e-3, 1e-4}) {
    LineProblem line(12, 1);
    line.add_demand(0, 4, 3, 5.0, 0.5);
    line.add_demand(1, 4, 2, 2.0, h_min);
    line.add_demand(0, 7, 6, 3.0, 0.3);
    line.add_demand(3, 9, 4, 4.0, 0.2);
    const Problem line_p = line.lower();
    const LayeredPlan line_plan = build_line_layered_plan(line_p);

    TreeScenarioSpec spec;
    spec.num_vertices = 12;
    spec.num_networks = 2;
    spec.demands.num_demands = 5;
    spec.demands.heights = HeightLaw::kNarrowOnly;
    spec.demands.profit_max = 20.0;
    spec.seed = 17;
    Problem tree_p = make_tree_problem(spec);
    tree_p.reopen();
    tree_p.add_demand(0, 5, 7.0, h_min);
    tree_p.finalize();
    const LayeredPlan tree_plan =
        build_tree_layered_plan(tree_p, DecompKind::kIdeal);

    for (const bool lockstep : {false, true}) {
      for (const std::uint64_t luby_seed : {0, 5}) {
        SolverConfig config;
        config.rule = RaiseRuleKind::kNarrow;
        config.lockstep = lockstep;
        char what[64];
        std::snprintf(what, sizeof what, "h_min=%g lockstep=%d luby=%d",
                      h_min, lockstep, static_cast<int>(luby_seed));
        const SolveResult on_line = expect_parity(
            line_p, line_plan, config, std::string("line ") + what,
            luby_seed);
        const SolveResult on_tree = expect_parity(
            tree_p, tree_plan, config, std::string("tree ") + what,
            luby_seed);
        EXPECT_GE(on_line.stats.stages_per_epoch, 1000) << what;
        EXPECT_GE(on_tree.stats.stages_per_epoch, 1000) << what;
        EXPECT_TRUE(has_multi_stage_jump(on_line.stack_tags) ||
                    has_multi_stage_jump(on_tree.stack_tags))
            << what;
      }
    }
  }
}

TEST(EngineParity, LaterEpochsIdleInEveryStage) {
  // batch-line's pattern at a small size: a line with wide windows, so
  // every demand has many placements.  The first epochs raise one
  // placement of every demand, whose alpha then satisfies the other
  // placements, so the later epochs find nobody unsatisfied in any
  // stage: one scan and one jump each.
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
  for (const bool lockstep : {false, true}) {
    SolverConfig config;
    config.lockstep = lockstep;
    const SolveResult ref = expect_parity(
        p, plan, config, "idle epochs lockstep=" + std::to_string(lockstep));
    // Some epoch has members but no raise row: every stage was idle.
    std::vector<char> raised(static_cast<std::size_t>(plan.num_groups), 0);
    for (const StackTag& tag : ref.stack_tags)
      raised[static_cast<std::size_t>(tag.group)] = 1;
    int idle_epochs = 0;
    for (int g = 0; g < plan.num_groups; ++g)
      if (!plan.members[static_cast<std::size_t>(g)].empty() &&
          !raised[static_cast<std::size_t>(g)])
        ++idle_epochs;
    EXPECT_GT(idle_epochs, 0) << "lockstep=" << lockstep;
  }
}

TEST(EngineParity, JumpLandsOnFirstFailingStage) {
  // Three demands on an 8-vertex line share one epoch.  Stage 1 raises
  // the long demand, whose beta leaves the two short ones part-satisfied;
  // each then passes every stage until the target first exceeds its
  // level, so the epoch's next row lands after a run of idle stages.  The
  // sweep over the middle demand's profit moves its level, and with it
  // the landing stage (6 to 15 of 15); the tags must match the central
  // reference's every time.
  for (int k = 1; k <= 24; ++k) {
    std::vector<TreeNetwork> networks;
    networks.push_back(TreeNetwork::line(8));
    Problem p(8, std::move(networks));
    p.add_demand(0, 7, 10.0);
    p.add_demand(3, 4, 0.25 * k);
    p.add_demand(1, 3, 4.0);
    p.finalize();
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    for (const bool lockstep : {false, true}) {
      SolverConfig config;
      config.lockstep = lockstep;
      const std::string what =
          "k=" + std::to_string(k) + " lockstep=" + std::to_string(lockstep);
      const SolveResult ref = expect_parity(p, plan, config, what);
      EXPECT_TRUE(has_multi_stage_jump(ref.stack_tags)) << what;
    }
  }
}

}  // namespace
}  // namespace treesched
