// Datacenter fabric scenario: the workload the paper's introduction
// motivates — agents compete for exclusive routes between machine pairs
// over several parallel tree fabrics with *fractional* bandwidth
// requirements (the arbitrary-height case, Theorem 6.3).
//
// Topology: r parallel aggregation trees over the same hosts (a
// multi-rooted fat-tree abstraction).  Flows request bandwidth between
// random host pairs; profits follow a Zipf law (few large tenants).
//
//   $ ./datacenter_fabric
#include <cstdio>
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "dist/scheduler.hpp"
#include "model/solution.hpp"
#include "workload/scenario.hpp"

using namespace treesched;

int main() {
  TreeScenarioSpec spec;
  spec.shape = TreeShape::kBinary;  // aggregation tree
  spec.num_vertices = 255;          // hosts + switches
  spec.num_networks = 3;            // three parallel fabrics
  spec.demands.num_demands = 400;   // tenant flows
  spec.demands.heights = HeightLaw::kBimodal;  // mice and elephants
  spec.demands.height_min = 0.05;
  spec.demands.profits = ProfitLaw::kZipf;
  spec.demands.profit_max = 1000.0;
  spec.seed = 2024;
  const Problem problem = make_tree_problem(spec);

  std::printf("fabric: %s\n", describe(spec).c_str());
  std::printf("instances: %d\n", problem.num_instances());

  DistOptions options;
  options.epsilon = 0.1;
  const DistResult result = solve_tree_arbitrary_distributed(problem,
                                                             options);
  const auto report = check_feasibility(problem, result.solution);

  Table table("datacenter fabric allocation (Theorem 6.3 algorithm)");
  table.set_header({"metric", "value"});
  table.add_row({"feasible", report.feasible ? "yes" : "no"});
  table.add_row({"flows admitted", std::to_string(result.solution.size())});
  table.add_row({"profit", fmt(result.profit, 1)});
  table.add_row({"certified OPT bound", fmt(result.stats.dual_upper_bound,
                                            1)});
  table.add_row({"certified gap",
                 fmt(result.stats.dual_upper_bound / result.profit, 2)});
  table.add_row({"proven worst-case bound", fmt(result.ratio_bound, 1)});
  table.add_row({"communication rounds",
                 std::to_string(result.stats.comm_rounds)});
  table.print(std::cout);

  // Which fabric carries the most profit?
  std::vector<double> per_fabric(3, 0.0);
  for (InstanceId i : result.solution.selected)
    per_fabric[static_cast<std::size_t>(problem.instance(i).network)] +=
        problem.instance(i).profit;
  for (int q = 0; q < 3; ++q)
    std::printf("fabric %d carries profit %.1f\n", q, per_fabric[q]);
  return report.feasible ? 0 : 1;
}
