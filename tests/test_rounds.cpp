// Round-complexity claims: Lemma 5.1 (steps per stage = O(log pmax/pmin)
// via the kill chain of Claim 5.2), the epoch bound from Lemma 4.1, the
// stage count ceil(log_xi eps), and the accounting identities of the
// stats.
#include <gtest/gtest.h>

#include <cmath>

#include "decomp/layered.hpp"
#include "dist/luby_mis.hpp"
#include "dist/scheduler.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace treesched {
namespace {

using testutil::require_feasible;

Problem profit_range_problem(std::uint64_t seed, double pmax, int m = 40,
                             VertexId n = 64) {
  TreeScenarioSpec spec;
  spec.num_vertices = n;
  spec.num_networks = 2;
  spec.demands.num_demands = m;
  spec.demands.profit_max = pmax;
  spec.seed = seed;
  return make_tree_problem(spec);
}

TEST(Rounds, StepsPerStageBoundedByProfitRange) {
  // Claim 5.2: along a kill chain profits double, so a stage runs at most
  // ~1 + log2(pmax/pmin) steps.  Allow +2 slack for threshold rounding.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem p = profit_range_problem(seed, 64.0);
    DistOptions options;
    options.seed = seed;
    const DistResult run = solve_tree_unit_distributed(p, options);
    const double budget =
        3.0 + std::log2(p.max_profit() / p.min_profit());
    EXPECT_LE(run.stats.max_steps_in_stage, budget) << "seed " << seed;
  }
}

TEST(Rounds, EpochsBoundedByIdealDepth) {
  for (VertexId n : {32, 128, 512}) {
    const Problem p = profit_range_problem(3, 16.0, 30, n);
    DistOptions options;
    const DistResult run = solve_tree_unit_distributed(p, options);
    int log2n = 0;
    while ((1 << log2n) < n) ++log2n;
    EXPECT_LE(run.stats.epochs, 2 * log2n + 1) << "n=" << n;
  }
}

TEST(Rounds, StageCountMatchesXiSchedule) {
  const Problem p = profit_range_problem(5, 16.0);
  for (double eps : {0.3, 0.1, 0.05}) {
    DistOptions options;
    options.epsilon = eps;
    const DistResult run = solve_tree_unit_distributed(p, options);
    // xi derives from the observed Delta (<= 6): ceil(log_xi eps) stages.
    EXPECT_NEAR(run.stats.xi,
                2.0 * (run.stats.delta + 1.0) /
                    (2.0 * (run.stats.delta + 1.0) + 1.0),
                1e-12);
    const int expected = static_cast<int>(
        std::ceil(std::log(eps) / std::log(run.stats.xi)));
    EXPECT_EQ(run.stats.stages_per_epoch, expected) << "eps=" << eps;
  }
}

TEST(Rounds, AccountingIdentities) {
  const Problem p = profit_range_problem(7, 32.0);
  const DistResult run = solve_tree_unit_distributed(p);
  // comm_rounds = mis_rounds + one propagation round per step.
  EXPECT_EQ(run.stats.comm_rounds, run.stats.mis_rounds + run.stats.steps);
  EXPECT_GE(run.stats.mis_rounds, 2 * run.stats.steps);  // >= 1 Luby iter
  EXPECT_GE(run.stats.raises, run.stats.steps);          // >= 1 raise/step
}

// Wraps the Luby oracle and records every MIS round count it reports, so
// the engine's aggregate accounting can be checked against ground truth.
class RecordingLuby : public MisOracle {
 public:
  RecordingLuby(const Problem& problem, std::uint64_t seed)
      : inner_(problem, seed) {}
  MisResult run(std::span<const InstanceId> candidates) override {
    MisResult result = inner_.run(candidates);
    total_rounds_ += result.rounds;
    ++calls_;
    return result;
  }
  std::int64_t total_rounds() const { return total_rounds_; }
  int calls() const { return calls_; }

 private:
  LubyMis inner_;
  std::int64_t total_rounds_ = 0;
  int calls_ = 0;
};

TEST(Rounds, CommRoundsEqualSumOfLubyOracleRounds) {
  // The exact accounting identity of the modeled engine: mis_rounds is
  // *precisely* the sum of the per-MIS round counts the Luby oracle
  // reported, and comm_rounds adds exactly one dual-propagation round per
  // step.  A fixed seed makes the Luby randomness reproducible, so the
  // identity is exact, not statistical.
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const Problem p = profit_range_problem(seed, 32.0);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.epsilon = 0.1;
    RecordingLuby oracle(p, seed);
    const SolveResult run = solve_with_plan(p, plan, config, &oracle);
    EXPECT_EQ(run.stats.mis_rounds, oracle.total_rounds()) << "seed " << seed;
    EXPECT_EQ(run.stats.steps, oracle.calls()) << "seed " << seed;
    EXPECT_EQ(run.stats.comm_rounds, oracle.total_rounds() + run.stats.steps)
        << "seed " << seed;
    // The modeled run and a fresh DistResult on the same seed agree.
    DistOptions options;
    options.epsilon = 0.1;
    options.seed = seed;
    const DistResult dist = solve_tree_unit_distributed(p, options);
    EXPECT_EQ(dist.stats.comm_rounds, run.stats.comm_rounds);
    EXPECT_EQ(dist.stats.mis_rounds, run.stats.mis_rounds);
  }
}

TEST(Rounds, BetterOfCombinationChargesConvergecast) {
  // The arbitrary-height solvers' per-network better-of combination is
  // charged an honest converge-cast (2 * max depth + 1 rounds): the
  // extended identity is comm_rounds = mis_rounds + steps + converge-
  // cast when both classes ran, and the unit solvers (one class, nothing
  // to combine) keep the original identity.
  TreeScenarioSpec spec;
  spec.num_vertices = 24;
  spec.num_networks = 2;
  spec.demands.num_demands = 12;
  spec.demands.heights = HeightLaw::kBimodal;
  spec.demands.height_min = 0.4;
  spec.demands.profit_max = 50.0;
  spec.seed = 31;
  const Problem p = make_tree_problem(spec);
  bool has_wide = false, has_narrow = false;
  for (InstanceId i = 0; i < p.num_instances(); ++i)
    (is_wide_instance(p.instance(i)) ? has_wide : has_narrow) = true;
  ASSERT_TRUE(has_wide && has_narrow);

  DistOptions options;
  options.epsilon = 0.35;
  const DistResult split = solve_tree_arbitrary_distributed(p, options);
  const std::int64_t cast = better_of_convergecast_rounds(p);
  EXPECT_GT(cast, 0);
  EXPECT_EQ(split.stats.comm_rounds,
            split.stats.mis_rounds + split.stats.steps + cast);

  const Problem unit = profit_range_problem(7, 32.0);
  const DistResult one_class = solve_tree_unit_distributed(unit, options);
  EXPECT_EQ(one_class.stats.comm_rounds,
            one_class.stats.mis_rounds + one_class.stats.steps);
}

TEST(Rounds, MoreStagesForSmallerHmin) {
  // Section 6: the narrow schedule runs O((1/h_min) log(1/eps)) stages.
  TreeScenarioSpec spec;
  spec.num_vertices = 40;
  spec.demands.num_demands = 25;
  spec.demands.heights = HeightLaw::kNarrowOnly;
  spec.seed = 11;

  spec.demands.height_min = 0.4;
  const Problem coarse = make_tree_problem(spec);
  spec.demands.height_min = 0.1;
  const Problem fine = make_tree_problem(spec);

  DistOptions options;
  const DistResult a = solve_tree_arbitrary_distributed(coarse, options);
  const DistResult b = solve_tree_arbitrary_distributed(fine, options);
  EXPECT_GT(b.stats.stages_per_epoch, a.stats.stages_per_epoch);
}

TEST(Rounds, RoundsGrowSlowlyWithN) {
  // Thm 5.3: rounds scale with log n (for fixed eps and profit range).
  // Compare n = 64 against n = 1024: rounds may grow, but far less than
  // the 16x size factor — we allow 4x.
  DistOptions options;
  options.epsilon = 0.2;
  const Problem small = profit_range_problem(13, 8.0, 60, 64);
  const Problem large = profit_range_problem(13, 8.0, 60, 1024);
  const DistResult rs = solve_tree_unit_distributed(small, options);
  const DistResult rl = solve_tree_unit_distributed(large, options);
  require_feasible(large, rl.solution);
  EXPECT_LE(rl.stats.comm_rounds, 4 * std::max<std::int64_t>(
                                          rs.stats.comm_rounds, 1));
}

}  // namespace
}  // namespace treesched
