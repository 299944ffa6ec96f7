// Dual variable state for the primal-dual framework (paper, Section 3).
//
// alpha(a): one variable per demand (the "at most one instance per demand"
// constraints); beta(e): one variable per global edge (the bandwidth
// constraints).  The dual objective is sum alpha(a) + sum c(e) beta(e) —
// with uniform capacities c == 1 this is the paper's objective; the
// capacity weights implement the non-uniform LP of DESIGN.md Section 6.
//
// The LHS of the dual constraint of instance d is
//     alpha(a_d) + coeff * sum_{e on path(d)} beta(e),
// where coeff = 1 for the unit-height LP (Section 3.1) and coeff = h(d)
// for the arbitrary-height LP (Section 6.1).  The raising rules supply
// the coefficient.
#pragma once

#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "model/problem.hpp"

namespace treesched {

// The LHS of a dual constraint from its beta sum: the one expression
// every LHS walk ends in.
inline double dual_lhs_of_sum(std::span<const double> alpha, DemandId demand,
                              double beta_sum, double beta_coeff) {
  return alpha[static_cast<std::size_t>(demand)] + beta_coeff * beta_sum;
}

// LHS of the dual constraint of an instance of `demand` routed along
// `path`, over dense alpha (per demand) and beta (per global edge)
// vectors, summing beta in ascending edge order.  The one walk behind DualState::lhs and the incremental engine's
// cached LHS, so the two agree bit for bit; the engine's interleaved
// refresh adds the same ascending chain per instance.
inline double dual_lhs(std::span<const double> alpha,
                       std::span<const double> beta, DemandId demand,
                       IdRuns path, double beta_coeff) {
  double s = 0.0;
  path.for_each_id([&](EdgeId e) { s += beta[static_cast<std::size_t>(e)]; });
  return dual_lhs_of_sum(alpha, demand, s, beta_coeff);
}

class DualState {
 public:
  explicit DualState(const Problem& problem);

  double alpha(DemandId a) const {
    return alpha_[static_cast<std::size_t>(a)];
  }
  double beta(EdgeId e) const { return beta_[static_cast<std::size_t>(e)]; }
  std::span<const double> alphas() const { return alpha_; }
  std::span<const double> betas() const { return beta_; }

  // LHS of the dual constraint of `inst` under the given beta coefficient.
  double lhs(const DemandInstance& inst, double beta_coeff) const {
    return dual_lhs(alpha_, beta_, inst.demand, problem_->path(inst.id),
                    beta_coeff);
  }

  void raise_alpha(DemandId a, double amount) {
    TS_DCHECK(amount >= 0.0);
    alpha_[static_cast<std::size_t>(a)] += amount;
    objective_ += amount;
  }
  void raise_beta(EdgeId e, double amount) {
    TS_DCHECK(amount >= 0.0);
    beta_[static_cast<std::size_t>(e)] += amount;
    objective_ += problem_->capacity(e) * amount;
  }

  // Dual objective sum alpha + sum c(e) beta(e), maintained incrementally.
  double objective() const { return objective_; }

  // Back to all-zero duals, keeping the storage.
  void reset();

  const Problem& problem() const { return *problem_; }

 private:
  const Problem* problem_;
  std::vector<double> alpha_;
  std::vector<double> beta_;
  double objective_ = 0.0;
};

}  // namespace treesched
