// Non-uniform bandwidth extension (DESIGN.md Section 6): capacity laws,
// NBA checks, and the capacitated solvers' guarantees.
#include "capacity/nonuniform.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "seq/sequential.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::exact_opt;
using testutil::require_feasible;

Problem capacitated_tree_problem(std::uint64_t seed, CapacityLaw law,
                                 double spread,
                                 HeightLaw heights = HeightLaw::kUnit,
                                 int m = 9) {
  TreeScenarioSpec spec;
  spec.num_vertices = 20;
  spec.num_networks = 2;
  spec.demands.num_demands = m;
  spec.demands.heights = heights;
  spec.demands.height_min = 0.2;
  spec.demands.profit_max = 50.0;
  spec.capacities = law;
  spec.capacity_base = 1.0;
  spec.capacity_spread = spread;
  spec.seed = seed;
  return make_tree_problem(spec);
}

TEST(CapacityProfile, LawsProduceExpectedSpread) {
  for (CapacityLaw law : {CapacityLaw::kTwoClass, CapacityLaw::kPowerClasses,
                          CapacityLaw::kHotspot}) {
    const Problem p = capacitated_tree_problem(3, law, 4.0);
    EXPECT_GE(p.min_capacity(), 1.0 - kEps) << to_string(law);
    EXPECT_LE(p.max_capacity(), 4.0 + kEps) << to_string(law);
  }
}

TEST(CapacityProfile, NbaAndNarrowChecks) {
  const Problem unit = capacitated_tree_problem(1, CapacityLaw::kTwoClass,
                                                2.0);
  EXPECT_TRUE(satisfies_nba(unit));  // h = 1 <= c_min = 1
  EXPECT_FALSE(all_instances_narrow(unit));

  // Narrow heights (<= 1/2) against capacity >= 1: all-narrow holds.
  const Problem narrow = capacitated_tree_problem(
      2, CapacityLaw::kTwoClass, 2.0, HeightLaw::kNarrowOnly);
  EXPECT_TRUE(all_instances_narrow(narrow));
}

TEST(CapacityProfile, BottleneckAndSpread) {
  const Problem p = capacitated_tree_problem(4, CapacityLaw::kPowerClasses,
                                             8.0);
  for (InstanceId i = 0; i < p.num_instances(); ++i) {
    const Capacity b = bottleneck_capacity(p, i);
    EXPECT_GE(b, p.min_capacity() - kEps);
    EXPECT_LE(b, p.max_capacity() + kEps);
    const int cls = bottleneck_class(p, i);
    EXPECT_GE(cls, 0);
    EXPECT_LT(cls, num_bottleneck_classes(p));
    // Class k means bottleneck in [cmin 2^k, cmin 2^(k+1)).
    EXPECT_GE(b + kEps, p.min_capacity() * std::pow(2.0, cls));
    EXPECT_LT(b, p.min_capacity() * std::pow(2.0, cls + 1) + kEps);
  }
  EXPECT_GE(max_path_capacity_spread(p), 1.0);
  EXPECT_LE(max_path_capacity_spread(p),
            p.max_capacity() / p.min_capacity() + kEps);
}

TEST(NonuniformUnit, UniformCapacityReducesToPaper) {
  // With spread 1 the capacitated solver must behave exactly like the
  // paper's algorithm: same bound (Delta+1)/(1-eps), rho = 1.
  const Problem p = capacitated_tree_problem(5, CapacityLaw::kUniform, 1.0);
  NonuniformOptions options;
  options.dist.epsilon = 0.1;
  const NonuniformResult run = solve_nonuniform_unit(p, options);
  require_feasible(p, run.solution);
  EXPECT_DOUBLE_EQ(run.path_spread, 1.0);
  // rho = 1: the derived bound collapses to the paper's (Delta+1)/(1-eps)
  // with Delta <= 6.
  EXPECT_LE(run.ratio_bound, 7.0 / 0.9 + 1e-9);
}

TEST(NonuniformUnit, EveryEntryPointReportsTheSameRhoScaledBound) {
  // Unit heights over capacities of spread 4: the theorem wrappers and
  // the non-uniform solvers run the same kUnit rule on the same plan, so
  // they report the same bound, rho included.
  const Problem p = capacitated_tree_problem(2, CapacityLaw::kPowerClasses,
                                             4.0);
  const double rho = max_path_capacity_spread(p);
  ASSERT_GT(rho, 1.0);
  NonuniformOptions options;
  EXPECT_EQ(solve_tree_unit_distributed(p, options.dist).ratio_bound,
            solve_nonuniform_unit(p, options).ratio_bound);
  const ProtocolOptions protocol;
  EXPECT_EQ(run_tree_unit_protocol(p, protocol).ratio_bound,
            run_nonuniform_protocol(p, protocol).ratio_bound);
  // Two networks: the multi-network Appendix-A bound 3, scaled by rho.
  EXPECT_DOUBLE_EQ(solve_tree_unit_sequential(p).ratio_bound, 3.0 * rho);
}

TEST(NonuniformUnit, WithinDerivedBoundAcrossSpreads) {
  for (double spread : {2.0, 4.0, 8.0}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Problem p = capacitated_tree_problem(
          seed * 10 + static_cast<std::uint64_t>(spread),
          CapacityLaw::kPowerClasses, spread);
      NonuniformOptions options;
      options.dist.seed = seed;
      const NonuniformResult run = solve_nonuniform_unit(p, options);
      const Profit profit = require_feasible(p, run.solution);
      const Profit opt = exact_opt(p);
      EXPECT_GE(profit * run.ratio_bound, opt - 1e-6)
          << "spread " << spread << " seed " << seed;
      EXPECT_GE(run.stats.dual_upper_bound, opt - 1e-6)
          << "dual certificate must dominate OPT";
    }
  }
}

TEST(NonuniformUnit, ByClassSolvesAndStaysFeasible) {
  const Problem p = capacitated_tree_problem(7, CapacityLaw::kPowerClasses,
                                             8.0, HeightLaw::kUnit, 12);
  NonuniformOptions options;
  options.by_class = true;
  const NonuniformResult run = solve_nonuniform_unit(p, options);
  require_feasible(p, run.solution);
  EXPECT_GE(run.classes, 1);
  EXPECT_GT(run.profit, 0.0);
}

TEST(NonuniformNarrow, WithinDerivedBound) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = capacitated_tree_problem(
        seed + 90, CapacityLaw::kTwoClass, 4.0, HeightLaw::kNarrowOnly);
    ASSERT_TRUE(all_instances_narrow(p));
    NonuniformOptions options;
    options.dist.seed = seed;
    const NonuniformResult run = solve_nonuniform_narrow(p, options);
    const Profit profit = require_feasible(p, run.solution);
    const Profit opt = exact_opt(p);
    EXPECT_GE(profit * run.ratio_bound, opt - 1e-6) << "seed " << seed;
    EXPECT_GE(run.stats.dual_upper_bound, opt - 1e-6);
  }
}

TEST(NonuniformUnit, NaiveRaisesStillFeasibleButWorseCertificate) {
  const Problem p = capacitated_tree_problem(11, CapacityLaw::kTwoClass,
                                             8.0);
  NonuniformOptions aware, naive;
  naive.capacity_aware = false;
  const NonuniformResult ra = solve_nonuniform_unit(p, aware);
  const NonuniformResult rn = solve_nonuniform_unit(p, naive);
  require_feasible(p, ra.solution);
  require_feasible(p, rn.solution);
  // The naive rule over-pays high-capacity edges in the dual objective;
  // its certificate can only be as good or worse.
  EXPECT_GE(rn.stats.dual_upper_bound, ra.stats.dual_upper_bound - 1e-6);
}

TEST(NonuniformUnit, HigherCapacityAdmitsMoreDemands) {
  // Many parallel demands over one shared path: capacity c admits c of
  // them; the solver must find them all.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(5));
  Problem p(5, std::move(networks));
  p.set_uniform_capacity(3.0);
  for (int k = 0; k < 5; ++k) p.add_demand(0, 4, 1.0);
  p.finalize();
  NonuniformOptions options;
  const NonuniformResult run = solve_nonuniform_unit(p, options);
  require_feasible(p, run.solution);
  EXPECT_NEAR(run.profit, 3.0, 1e-9);
}

}  // namespace
}  // namespace treesched
