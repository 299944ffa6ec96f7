#include "framework/certify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "capacity/capacity_profile.hpp"
#include "common/prelude.hpp"

namespace treesched {

double observed_lambda(const Problem& problem, const DualState& dual,
                       const RaiseRule& rule,
                       const std::vector<char>& active_mask) {
  double lambda = 1.0;
  bool any = false;
  for (InstanceId i = 0; i < problem.num_instances(); ++i) {
    if (!active_mask[static_cast<std::size_t>(i)]) continue;
    const DemandInstance& inst = problem.instance(i);
    const double lhs = dual.lhs(inst, rule.beta_coeff(inst));
    const double level = lhs / inst.profit;
    lambda = any ? std::min(lambda, level) : level;
    any = true;
  }
  return any ? lambda : 1.0;
}

double proven_ratio_bound(const Problem& problem, bool unit_ran,
                          bool narrow_ran, int delta, double lambda,
                          bool raise_alpha) {
  if (!(lambda > 0.0)) return std::numeric_limits<double>::infinity();
  const auto term = [&](RaiseRuleKind kind) {
    const RaiseRule rule(kind, problem, raise_alpha);
    return std::max(rule.price_factor(delta) / lambda, 1.0);
  };
  double bound = 0.0;
  if (unit_ran) bound += term(RaiseRuleKind::kUnit);
  if (narrow_ran) bound += term(RaiseRuleKind::kNarrow);
  return std::max(bound, 1.0) * max_path_capacity_spread(problem);
}

ShardCertificate validate_shard_certificate(
    const Problem& problem, const LayeredPlan& plan, const RaiseRule& rule,
    const std::vector<std::vector<InstanceId>>& stack,
    const std::vector<std::vector<double>>& amounts,
    std::span<const double> reported_lhs, double reported_lambda,
    const std::vector<char>& active_mask) {
  TS_REQUIRE(stack.size() == amounts.size());
  ShardCertificate cert;
  // Replay the logged raises into a central DualState: the ground-truth
  // aggregate dual of the degraded run.  Amounts are replayed verbatim
  // (beta_increments, not tight_raise) — the slack each winner saw on its
  // possibly-stale shard is exactly what it applied and shipped, so the
  // replay reconstructs the true dual vector regardless of which
  // propagations were lost.
  DualState dual(problem);
  std::vector<double> increments;
  for (std::size_t s = 0; s < stack.size(); ++s) {
    const auto& step = stack[s];
    const auto& amount = amounts[s];
    TS_REQUIRE(step.size() == amount.size());
    for (std::size_t k = 0; k < step.size(); ++k) {
      const InstanceId i = step[k];
      const DemandInstance& inst = problem.instance(i);
      const std::span<const EdgeId> critical = plan.critical(i);
      rule.beta_increments(inst, critical, amount[k], increments);
      dual.raise_alpha(inst.demand, amount[k]);
      for (std::size_t c = 0; c < critical.size(); ++c)
        dual.raise_beta(critical[c], increments[c]);
    }
  }
  cert.replay_lambda = observed_lambda(problem, dual, rule, active_mask);
  // Conservativeness: a shard that missed raise propagations can only
  // report a *smaller* LHS than the replay (every lost increment is
  // non-negative).  The tolerance absorbs subset-sum float rounding.
  bool ok = reported_lambda <= cert.replay_lambda + kEps;
  for (InstanceId i = 0; ok && i < problem.num_instances(); ++i) {
    const DemandInstance& inst = problem.instance(i);
    const double replay = dual.lhs(inst, rule.beta_coeff(inst));
    const double tol = kEps * (1.0 + std::abs(replay));
    if (reported_lhs[static_cast<std::size_t>(i)] > replay + tol) ok = false;
  }
  cert.valid = ok;
  return cert;
}

}  // namespace treesched
