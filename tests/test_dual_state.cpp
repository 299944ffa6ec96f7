#include "framework/dual_state.hpp"

#include <gtest/gtest.h>

namespace treesched {
namespace {

Problem small_problem() {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(5));
  Problem p(5, std::move(networks));
  p.set_capacity(0, 1, 3.0);  // non-uniform edge for objective weighting
  p.add_demand(0, 3, 10.0, 0.5);  // instance 0: edges {0,1,2}
  p.add_demand(2, 4, 4.0);        // instance 1: edges {2,3}
  p.finalize();
  return p;
}

TEST(DualState, StartsAtZero) {
  const Problem p = small_problem();
  DualState dual(p);
  EXPECT_DOUBLE_EQ(dual.alpha(0), 0.0);
  EXPECT_DOUBLE_EQ(dual.beta(2), 0.0);
  EXPECT_DOUBLE_EQ(dual.objective(), 0.0);
  EXPECT_DOUBLE_EQ(dual.lhs(p.instance(0), 1.0), 0.0);
}

TEST(DualState, LhsUsesBetaCoefficient) {
  const Problem p = small_problem();
  DualState dual(p);
  dual.raise_alpha(0, 2.0);
  dual.raise_beta(0, 1.0);
  dual.raise_beta(2, 0.5);
  // Instance 0 (demand 0, edges 0,1,2): the beta sum is 1.5.
  EXPECT_DOUBLE_EQ(dual.lhs(p.instance(0), 1.0), 2.0 + 1.5);
  EXPECT_DOUBLE_EQ(dual.lhs(p.instance(0), 0.5), 2.0 + 0.75);
  // Instance 1 (demand 1, edges 2,3): alpha(1) = 0.
  EXPECT_DOUBLE_EQ(dual.lhs(p.instance(1), 1.0), 0.5);
}

TEST(DualState, ObjectiveWeighsCapacities) {
  const Problem p = small_problem();
  DualState dual(p);
  dual.raise_alpha(1, 2.0);
  EXPECT_DOUBLE_EQ(dual.objective(), 2.0);
  dual.raise_beta(1, 1.0);  // capacity 3 edge: adds 3
  EXPECT_DOUBLE_EQ(dual.objective(), 5.0);
  dual.raise_beta(0, 0.25);  // capacity 1 edge
  EXPECT_DOUBLE_EQ(dual.objective(), 5.25);
}

TEST(DualState, RaisesAccumulate) {
  const Problem p = small_problem();
  DualState dual(p);
  dual.raise_alpha(0, 1.0);
  dual.raise_alpha(0, 2.5);
  EXPECT_DOUBLE_EQ(dual.alpha(0), 3.5);
  dual.raise_beta(3, 0.5);
  dual.raise_beta(3, 0.5);
  EXPECT_DOUBLE_EQ(dual.beta(3), 1.0);
}

TEST(DualState, ResetZeroesEveryVariable) {
  const Problem p = small_problem();
  DualState dual(p);
  dual.raise_alpha(0, 2.0);
  dual.raise_beta(1, 1.0);
  dual.reset();
  EXPECT_DOUBLE_EQ(dual.alpha(0), 0.0);
  EXPECT_DOUBLE_EQ(dual.beta(1), 0.0);
  EXPECT_DOUBLE_EQ(dual.objective(), 0.0);
  EXPECT_DOUBLE_EQ(dual.lhs(p.instance(0), 1.0), 0.0);
}

}  // namespace
}  // namespace treesched
