#include "capacity/capacity_profile.hpp"

#include <algorithm>
#include <cmath>

namespace treesched {

const char* to_string(CapacityLaw law) {
  switch (law) {
    case CapacityLaw::kUniform:
      return "uniform";
    case CapacityLaw::kTwoClass:
      return "two-class";
    case CapacityLaw::kPowerClasses:
      return "power-classes";
    case CapacityLaw::kHotspot:
      return "hotspot";
  }
  return "?";
}

void apply_capacity_law(Problem& problem, CapacityLaw law, Capacity base,
                        double spread, Rng& rng) {
  check_input(base > 0.0, "capacity base must be positive");
  check_input(spread >= 1.0, "capacity spread must be >= 1");
  const int max_class =
      std::max(0, static_cast<int>(std::floor(std::log2(spread) + 1e-9)));
  for (NetworkId q = 0; q < problem.num_networks(); ++q) {
    const EdgeId edges = problem.network(q).num_edges();
    for (EdgeId e = 0; e < edges; ++e) {
      Capacity c = base;
      switch (law) {
        case CapacityLaw::kUniform:
          break;
        case CapacityLaw::kTwoClass:
          c = rng.chance(0.5) ? base : base * spread;
          break;
        case CapacityLaw::kPowerClasses:
          c = base * std::pow(2.0, static_cast<double>(
                                       rng.uniform_int(0, max_class)));
          break;
        case CapacityLaw::kHotspot:
          c = rng.chance(0.1) ? base : base * spread;
          break;
      }
      problem.set_capacity(q, e, c);
    }
  }
}

bool satisfies_nba(const Problem& problem) {
  return problem.max_height() <= problem.min_capacity() + kEps;
}

bool all_instances_narrow(const Problem& problem) {
  for (const DemandInstance& inst : problem.instances()) {
    for (EdgeId e : problem.path(inst.id))
      if (inst.height > problem.capacity(e) / 2.0 + kEps) return false;
  }
  return true;
}

Capacity bottleneck_capacity(const Problem& problem, InstanceId i) {
  const IdRuns path = problem.path(i);
  Capacity c = problem.capacity(path.front());
  for (EdgeId e : path) c = std::min(c, problem.capacity(e));
  return c;
}

int bottleneck_class(const Problem& problem, InstanceId i) {
  const double ratio =
      bottleneck_capacity(problem, i) / problem.min_capacity();
  return std::max(0, static_cast<int>(std::floor(std::log2(ratio) + 1e-9)));
}

int num_bottleneck_classes(const Problem& problem) {
  int classes = 1;
  for (InstanceId i = 0; i < problem.num_instances(); ++i)
    classes = std::max(classes, bottleneck_class(problem, i) + 1);
  return classes;
}

double max_path_capacity_spread(const Problem& problem) {
  // Equal capacities everywhere: every path's spread is exactly 1, and
  // the scan over every path id is skipped.
  if (problem.min_capacity() == problem.max_capacity()) return 1.0;
  double rho = 1.0;
  const InstanceId n = problem.num_instances();
  for (InstanceId i = 0; i < n; ++i) {
    const IdRuns path = problem.path(i);
    Capacity lo = problem.capacity(path.front());
    Capacity hi = lo;
    for (EdgeId e : path) {
      lo = std::min(lo, problem.capacity(e));
      hi = std::max(hi, problem.capacity(e));
    }
    rho = std::max(rho, hi / lo);
  }
  return rho;
}

}  // namespace treesched
