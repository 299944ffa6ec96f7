#include "model/solution.hpp"

#include <algorithm>
#include <sstream>

namespace treesched {

Profit Solution::profit(const Problem& problem) const {
  Profit total = 0.0;
  for (InstanceId i : selected) total += problem.instance(i).profit;
  return total;
}

bool Solution::contains(InstanceId i) const {
  return std::find(selected.begin(), selected.end(), i) != selected.end();
}

FeasibilityReport check_feasibility(const Problem& problem,
                                    const Solution& solution) {
  FeasibilityReport report;
  std::vector<char> demand_used(static_cast<std::size_t>(problem.num_demands()),
                                0);
  std::vector<double> load(
      static_cast<std::size_t>(problem.num_global_edges()), 0.0);
  std::vector<char> seen(static_cast<std::size_t>(problem.num_instances()), 0);

  for (InstanceId i : solution.selected) {
    if (i < 0 || i >= problem.num_instances()) {
      report.feasible = false;
      report.violation = "instance id out of range";
      return report;
    }
    if (seen[static_cast<std::size_t>(i)]) {
      report.feasible = false;
      report.violation = "instance selected twice";
      return report;
    }
    seen[static_cast<std::size_t>(i)] = 1;
    const DemandInstance& inst = problem.instance(i);
    if (demand_used[static_cast<std::size_t>(inst.demand)]) {
      std::ostringstream os;
      os << "demand " << inst.demand << " scheduled more than once";
      report.feasible = false;
      report.violation = os.str();
      return report;
    }
    demand_used[static_cast<std::size_t>(inst.demand)] = 1;
    for (EdgeId e : problem.path(i)) load[static_cast<std::size_t>(e)] += inst.height;
  }
  for (EdgeId e = 0; e < problem.num_global_edges(); ++e) {
    if (load[static_cast<std::size_t>(e)] > problem.capacity(e) + kEps) {
      std::ostringstream os;
      const auto [q, local] = problem.edge_owner(e);
      os << "edge (network " << q << ", edge " << local << ") overloaded: "
         << load[static_cast<std::size_t>(e)] << " > " << problem.capacity(e);
      report.feasible = false;
      report.violation = os.str();
      return report;
    }
  }
  return report;
}

LoadTracker::LoadTracker(const Problem& problem)
    : problem_(&problem),
      load_(static_cast<std::size_t>(problem.num_global_edges()), 0.0),
      demand_used_(static_cast<std::size_t>(problem.num_demands()), 0) {}

bool LoadTracker::fits(InstanceId i) const {
  const DemandInstance& inst = problem_->instance(i);
  if (demand_used_[static_cast<std::size_t>(inst.demand)]) return false;
  for (EdgeId e : problem_->path(i)) {
    if (load_[static_cast<std::size_t>(e)] + inst.height >
        problem_->capacity(e) + kEps)
      return false;
  }
  return true;
}

void LoadTracker::add(InstanceId i) {
  TS_DCHECK(fits(i));
  const DemandInstance& inst = problem_->instance(i);
  demand_used_[static_cast<std::size_t>(inst.demand)] = 1;
  for (EdgeId e : problem_->path(i)) load_[static_cast<std::size_t>(e)] += inst.height;
}

void LoadTracker::remove(InstanceId i) {
  const DemandInstance& inst = problem_->instance(i);
  TS_REQUIRE(demand_used_[static_cast<std::size_t>(inst.demand)]);
  demand_used_[static_cast<std::size_t>(inst.demand)] = 0;
  for (EdgeId e : problem_->path(i)) load_[static_cast<std::size_t>(e)] -= inst.height;
}

void LoadTracker::clear() {
  std::fill(load_.begin(), load_.end(), 0.0);
  std::fill(demand_used_.begin(), demand_used_.end(), 0);
}

}  // namespace treesched
