// Dual certification helpers (paper, Lemma 3.1 proof): the dual
// assignment produced by phase 1 is generally infeasible, but scaling it
// by 1/lambda — where lambda is the minimum satisfaction level over all
// (active) instances — yields a feasible dual whose objective upper
// bounds OPT by weak duality.  These helpers compute the observed lambda,
// validate a degraded run's reported one, and build the proven
// approximation bound every solver reports; the benchmarks use the
// resulting certified bound wherever exact optima are out of reach.
#pragma once

#include <span>
#include <vector>

#include "decomp/layered.hpp"
#include "framework/dual_state.hpp"
#include "framework/raise_rule.hpp"
#include "model/problem.hpp"

namespace treesched {

// min over active instances of LHS(d)/p(d); instances with mask 0 are
// ignored.  An empty active set yields 1.0.
double observed_lambda(const Problem& problem, const DualState& dual,
                       const RaiseRule& rule,
                       const std::vector<char>& active_mask);

// The proven approximation bound of a run, and the one place a reported
// ratio_bound is built:
//   max(sum over the rules that ran of max(price_factor(delta) / lambda,
//   1), 1) * rho.
// The Lemma 3.1 / 6.1 price factors add because OPT <= OPT_wide +
// OPT_narrow (Theorems 6.3, 7.2).  rho = max_path_capacity_spread is
// exactly 1 on equal capacities, where the bound is the paper's; rho > 1
// is claimed for unit and all-narrow heights (capacity/nonuniform.hpp),
// and on other heights the same formula is reported with its proof open.
// `raise_alpha = false` is Appendix A's single-network refinement.  A
// lambda <= 0 certifies nothing: +infinity, never a finite bound.
double proven_ratio_bound(const Problem& problem, bool unit_ran,
                          bool narrow_ran, int delta, double lambda,
                          bool raise_alpha = true);

// Degraded-mode certificate validation (wire protocol over a lossy
// transport).  Under message loss a processor's shard can miss incoming
// raise propagations, so its reported LHS — and hence the pass's
// reported lambda — can only *undercount* the true dual assignment: the
// raises actually applied are exactly (stack, amounts), and every
// increment is non-negative.  This helper replays the logged raise
// amounts into a central DualState (the ground-truth dual vector the
// degraded run really produced) and checks the shard-reported values
// are conservative:
//   reported_lhs[i] <= replay_lhs[i] + tol   for every instance, and
//   reported_lambda <= replay lambda over active + tol.
// When that holds, scaling the true dual by 1/reported_lambda is still
// feasible (reported_lambda <= true lambda), so the degraded run's
// certified bound remains a valid upper bound on OPT by weak duality —
// the degraded-mode contract.
struct ShardCertificate {
  bool valid = false;
  double replay_lambda = 1.0;  // lambda of the central replay
};
ShardCertificate validate_shard_certificate(
    const Problem& problem, const LayeredPlan& plan, const RaiseRule& rule,
    const std::vector<std::vector<InstanceId>>& stack,
    const std::vector<std::vector<double>>& amounts,
    std::span<const double> reported_lhs, double reported_lambda,
    const std::vector<char>& active_mask);

}  // namespace treesched
