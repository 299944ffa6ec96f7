#include "framework/dual_state.hpp"

namespace treesched {

DualState::DualState(const Problem& problem)
    : problem_(&problem),
      alpha_(static_cast<std::size_t>(problem.num_demands()), 0.0),
      beta_(static_cast<std::size_t>(problem.num_global_edges()), 0.0) {}

double DualState::beta_sum(const DemandInstance& inst) const {
  double s = 0.0;
  for (EdgeId e : problem_->path(inst.id))
    s += beta_[static_cast<std::size_t>(e)];
  return s;
}

double DualState::lhs(const DemandInstance& inst, double beta_coeff) const {
  return dual_lhs(alpha_, beta_, inst.demand, problem_->path(inst.id),
                  beta_coeff);
}

void DualState::raise_alpha(DemandId a, double amount) {
  TS_DCHECK(amount >= 0.0);
  alpha_[static_cast<std::size_t>(a)] += amount;
  objective_ += amount;
}

void DualState::raise_beta(EdgeId e, double amount) {
  TS_DCHECK(amount >= 0.0);
  beta_[static_cast<std::size_t>(e)] += amount;
  objective_ += problem_->capacity(e) * amount;
}

}  // namespace treesched
