#include "lp/relaxation.hpp"

#include <gtest/gtest.h>

#include "dist/scheduler.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::exact_opt;
using testutil::small_line_problem;
using testutil::small_tree_problem;

TEST(Simplex, TextbookInstance) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  36 at (2, 6).
  const LpResult lp = solve_lp_max(
      {{1, 0}, {0, 2}, {3, 2}}, {4, 12, 18}, {3, 5});
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.value, 36.0, 1e-9);
  EXPECT_NEAR(lp.x[0], 2.0, 1e-9);
  EXPECT_NEAR(lp.x[1], 6.0, 1e-9);
}

TEST(Simplex, DetectsUnbounded) {
  // max x + y  s.t. x - y <= 1: y can grow without bound.
  const LpResult lp = solve_lp_max({{1, -1}}, {1}, {1, 1});
  EXPECT_EQ(lp.status, LpResult::Status::kUnbounded);
}

TEST(Simplex, DegenerateInstanceTerminates) {
  // Classic degenerate LP (multiple constraints tight at the origin);
  // Bland's rule must still terminate at the optimum.
  const LpResult lp = solve_lp_max(
      {{0.5, -5.5, -2.5, 9}, {0.5, -1.5, -0.5, 1}, {1, 0, 0, 0}},
      {0, 0, 1}, {10, -57, -9, -24});
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.value, 1.0, 1e-9);
}

TEST(Simplex, ZeroObjective) {
  const LpResult lp = solve_lp_max({{1.0}}, {5.0}, {0.0});
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.value, 0.0, 1e-12);
}

TEST(Relaxation, FractionalOptimumOnSharedEdge) {
  // Three unit demands over one shared edge with capacity 1: the LP packs
  // x = (1,1,1)/... no — paths share one edge, so sum x <= 1 and the LP
  // picks the most profitable demand fully: LP == ILP == 5 here.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(3));
  Problem p(3, std::move(networks));
  p.add_demand(0, 2, 5.0);
  p.add_demand(0, 2, 4.0);
  p.add_demand(0, 2, 3.0);
  p.finalize();
  const LpRelaxationResult lp = lp_optimum(p);
  EXPECT_NEAR(lp.value, 5.0, 1e-9);
}

TEST(Relaxation, HeightsPackFractionally) {
  // Two demands of height 0.6 on one edge: integrally only one fits, but
  // the LP serves 1 + 2/3 of them: value 5 + (2/3)*5 = 25/3.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(2));
  Problem p(2, std::move(networks));
  p.add_demand(0, 1, 5.0, 0.6);
  p.add_demand(0, 1, 5.0, 0.6);
  p.finalize();
  const LpRelaxationResult lp = lp_optimum(p);
  EXPECT_NEAR(lp.value, 5.0 + 5.0 * (2.0 / 3.0), 1e-9);
}

TEST(Relaxation, SandwichedBetweenOptAndDualBound) {
  // The verification triangle: OPT <= LP <= certified dual bound.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem p = small_tree_problem(seed + 800, 18, 2, 8);
    const Profit opt = exact_opt(p);
    const LpRelaxationResult lp = lp_optimum(p);
    EXPECT_GE(lp.value, opt - 1e-6) << "seed " << seed;

    DistOptions options;
    options.seed = seed;
    const DistResult run = solve_tree_unit_distributed(p, options);
    EXPECT_GE(run.stats.dual_upper_bound, lp.value - 1e-6)
        << "scaled dual must be feasible for the same LP, seed " << seed;
  }
}

TEST(Relaxation, SandwichOnLinesWithHeights) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem p = small_line_problem(seed + 20, 20, 2, 7,
                                         HeightLaw::kBimodal, 1.6);
    const Profit opt = exact_opt(p);
    const LpRelaxationResult lp = lp_optimum(p);
    EXPECT_GE(lp.value, opt - 1e-6) << "seed " << seed;
    Profit total = 0.0;
    for (DemandId d = 0; d < p.num_demands(); ++d) total += p.demand(d).profit;
    EXPECT_LE(lp.value, total + 1e-6);
  }
}

TEST(Relaxation, CapacitatedEdgesRelaxCorrectly) {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(4));
  Problem p(4, std::move(networks));
  p.set_uniform_capacity(2.0);
  p.add_demand(0, 3, 4.0);
  p.add_demand(0, 3, 3.0);
  p.add_demand(0, 3, 2.0);
  p.finalize();
  // Capacity 2 admits the two best demands fully.
  const LpRelaxationResult lp = lp_optimum(p);
  EXPECT_NEAR(lp.value, 7.0, 1e-9);
}

TEST(Relaxation, SolutionWithinBoxBounds) {
  const Problem p = small_tree_problem(33, 18, 2, 8);
  const LpRelaxationResult lp = lp_optimum(p);
  ASSERT_EQ(lp.x.size(), static_cast<std::size_t>(p.num_instances()));
  for (double v : lp.x) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace treesched
