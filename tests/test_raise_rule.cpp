#include "framework/raise_rule.hpp"

#include <gtest/gtest.h>

#include "framework/certify.hpp"
#include "framework/dual_state.hpp"

namespace treesched {
namespace {

Problem capacitated_problem() {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(6));
  Problem p(6, std::move(networks));
  p.set_uniform_capacity(1.0);
  p.set_capacity(0, 2, 4.0);
  p.add_demand(0, 5, 12.0, 0.4);  // instance 0: edges 0..4
  p.finalize();
  return p;
}

// Raising by the rule's delta must satisfy the constraint tightly (paper,
// Section 3.2 / 6.1) — for every rule variant.
void check_tightness(const Problem& p, RaiseRuleKind kind, bool raise_alpha,
                     bool capacity_aware) {
  const RaiseRule rule(kind, p, raise_alpha, capacity_aware);
  const DemandInstance& inst = p.instance(0);
  const std::vector<EdgeId> critical{0, 2};
  DualState dual(p);
  const double slack = inst.profit - dual.lhs(inst, rule.beta_coeff(inst));
  const double delta = rule.delta(inst, critical, slack);
  EXPECT_GT(delta, 0.0);
  if (raise_alpha) dual.raise_alpha(inst.demand, delta);
  for (EdgeId e : critical)
    dual.raise_beta(e, rule.beta_increment(inst, critical, delta, e));
  EXPECT_NEAR(dual.lhs(inst, rule.beta_coeff(inst)), inst.profit, 1e-9);
}

TEST(RaiseRule, TightnessAllVariants) {
  const Problem p = capacitated_problem();
  for (RaiseRuleKind kind : {RaiseRuleKind::kUnit, RaiseRuleKind::kNarrow}) {
    for (bool alpha : {true, false}) {
      for (bool aware : {true, false}) {
        SCOPED_TRACE(std::string(to_string(kind)) + " alpha=" +
                     std::to_string(alpha) + " aware=" +
                     std::to_string(aware));
        check_tightness(p, kind, alpha, aware);
      }
    }
  }
}

TEST(RaiseRule, UniformUnitMatchesPaperFormula) {
  // With c == 1, delta = slack / (|pi| + 1) and beta += delta.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(6));
  Problem p(6, std::move(networks));
  p.add_demand(0, 5, 14.0);
  p.finalize();
  const RaiseRule rule(RaiseRuleKind::kUnit, p);
  const std::vector<EdgeId> critical{0, 2, 4};
  const double delta = rule.delta(p.instance(0), critical, 14.0);
  EXPECT_DOUBLE_EQ(delta, 14.0 / 4.0);
  EXPECT_DOUBLE_EQ(rule.beta_increment(p.instance(0), critical, delta, 0),
                   delta);
}

TEST(RaiseRule, UniformNarrowMatchesPaperFormula) {
  // With c == 1, delta = slack / (1 + 2 h |pi|^2), beta += 2 |pi| delta.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(6));
  Problem p(6, std::move(networks));
  p.add_demand(0, 5, 10.0, 0.25);
  p.finalize();
  const RaiseRule rule(RaiseRuleKind::kNarrow, p);
  const std::vector<EdgeId> critical{0, 4};
  const double delta = rule.delta(p.instance(0), critical, 10.0);
  EXPECT_DOUBLE_EQ(delta, 10.0 / (1.0 + 2.0 * 0.25 * 2.0 * 2.0));
  EXPECT_DOUBLE_EQ(rule.beta_increment(p.instance(0), critical, delta, 0),
                   2.0 * 2.0 * delta);
}

TEST(RaiseRule, PriceFactors) {
  const Problem p = capacitated_problem();
  const RaiseRule unit(RaiseRuleKind::kUnit, p);
  const RaiseRule narrow(RaiseRuleKind::kNarrow, p);
  // The constants behind 7+eps, 4+eps, 73+eps, 19+eps.
  EXPECT_DOUBLE_EQ(unit.price_factor(6), 7.0);
  EXPECT_DOUBLE_EQ(unit.price_factor(3), 4.0);
  EXPECT_DOUBLE_EQ(narrow.price_factor(6), 73.0);
  EXPECT_DOUBLE_EQ(narrow.price_factor(3), 19.0);
  EXPECT_DOUBLE_EQ(narrow.price_factor(1), 3.0);  // sequential line narrow
  // Without the alpha raise (single-network Appendix A): one less.
  const RaiseRule no_alpha(RaiseRuleKind::kUnit, p, /*raise_alpha=*/false);
  EXPECT_DOUBLE_EQ(no_alpha.price_factor(2), 2.0);
}

TEST(RaiseRule, RatioBounds) {
  // Equal capacities on every path: rho = 1, the paper's bounds.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(6));
  Problem p(6, std::move(networks));
  p.add_demand(0, 5, 12.0, 0.4);
  p.finalize();
  EXPECT_NEAR(proven_ratio_bound(p, true, false, 6, 1.0 - 0.1), 7.0 / 0.9,
              1e-12);
  EXPECT_NEAR(proven_ratio_bound(p, true, false, 3, 1.0 / 5.1), 4.0 * 5.1,
              1e-12);  // PS 20+eps
}

TEST(RaiseRule, DefaultXiMatchesPaper) {
  // Section 5: xi = 14/15 for Delta = 6; Section 7: 8/9 for Delta = 3.
  EXPECT_DOUBLE_EQ(RaiseRule::default_xi(RaiseRuleKind::kUnit, 6, 1.0),
                   14.0 / 15.0);
  EXPECT_DOUBLE_EQ(RaiseRule::default_xi(RaiseRuleKind::kUnit, 3, 1.0),
                   8.0 / 9.0);
  // Section 6: xi = C/(C + h_min) with C = 1 + 2 Delta^2.
  const double xi = RaiseRule::default_xi(RaiseRuleKind::kNarrow, 6, 0.25);
  EXPECT_DOUBLE_EQ(xi, 73.0 / 73.25);
  // Monotone: smaller h_min pushes xi towards 1 (more stages).
  EXPECT_GT(RaiseRule::default_xi(RaiseRuleKind::kNarrow, 6, 0.1), xi);
}

TEST(RaiseRule, CapacityAwareDeltaUsesInverseCapacities) {
  const Problem p = capacitated_problem();  // edge 2 has capacity 4
  const RaiseRule rule(RaiseRuleKind::kUnit, p);
  const std::vector<EdgeId> critical{0, 2};
  // delta = slack / (1 + 1/1 + 1/4).
  EXPECT_NEAR(rule.delta(p.instance(0), critical, 9.0), 9.0 / 2.25, 1e-12);
  EXPECT_NEAR(rule.beta_increment(p.instance(0), critical, 1.0, 2), 0.25,
              1e-12);
}

}  // namespace
}  // namespace treesched
