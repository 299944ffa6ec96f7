#include "framework/dual_state.hpp"

#include <algorithm>

namespace treesched {

DualState::DualState(const Problem& problem)
    : problem_(&problem),
      alpha_(static_cast<std::size_t>(problem.num_demands()), 0.0),
      beta_(static_cast<std::size_t>(problem.num_global_edges()), 0.0) {}

void DualState::reset() {
  std::fill(alpha_.begin(), alpha_.end(), 0.0);
  std::fill(beta_.begin(), beta_.end(), 0.0);
  objective_ = 0.0;
}

}  // namespace treesched
