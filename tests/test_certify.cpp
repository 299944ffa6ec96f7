#include "framework/certify.hpp"

#include <gtest/gtest.h>

namespace treesched {
namespace {

Problem tiny_problem() {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(4));
  Problem p(4, std::move(networks));
  p.add_demand(0, 2, 10.0);  // instance 0: edges {0,1}
  p.add_demand(1, 3, 4.0);   // instance 1: edges {1,2}
  p.finalize();
  return p;
}

TEST(Certify, ObservedLambdaIsTheMinimumSatisfaction) {
  const Problem p = tiny_problem();
  DualState dual(p);
  const RaiseRule rule(RaiseRuleKind::kUnit, p);
  std::vector<char> active(2, 1);

  EXPECT_DOUBLE_EQ(observed_lambda(p, dual, rule, active), 0.0);
  dual.raise_alpha(0, 5.0);   // instance 0: LHS 5/10 = 0.5
  dual.raise_beta(2, 1.0);    // instance 1: LHS 1/4  = 0.25
  EXPECT_DOUBLE_EQ(observed_lambda(p, dual, rule, active), 0.25);
  dual.raise_beta(1, 3.0);    // both instances use edge 1
  // instance 0: (5+3)/10 = 0.8; instance 1: (1+3)/4 = 1.0.
  EXPECT_DOUBLE_EQ(observed_lambda(p, dual, rule, active), 0.8);
}

TEST(Certify, MaskRestrictsTheMinimum) {
  const Problem p = tiny_problem();
  DualState dual(p);
  const RaiseRule rule(RaiseRuleKind::kUnit, p);
  dual.raise_alpha(1, 4.0);  // instance 1 fully satisfied, instance 0 at 0
  std::vector<char> only_second{0, 1};
  EXPECT_DOUBLE_EQ(observed_lambda(p, dual, rule, only_second), 1.0);
  std::vector<char> none{0, 0};
  EXPECT_DOUBLE_EQ(observed_lambda(p, dual, rule, none), 1.0);  // vacuous
}

TEST(Certify, NarrowRuleUsesHeightCoefficient) {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(3));
  Problem p(3, std::move(networks));
  p.add_demand(0, 2, 8.0, 0.25);
  p.finalize();
  DualState dual(p);
  const RaiseRule rule(RaiseRuleKind::kNarrow, p);
  std::vector<char> active(1, 1);
  dual.raise_beta(0, 8.0);
  dual.raise_beta(1, 8.0);
  // LHS = h * beta_sum = 0.25 * 16 = 4 -> lambda = 0.5.
  EXPECT_DOUBLE_EQ(observed_lambda(p, dual, rule, active), 0.5);
}

}  // namespace
}  // namespace treesched
