// Shared helpers for the treesched test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "capacity/capacity_profile.hpp"
#include "decomp/layered.hpp"
#include "dist/transport.hpp"
#include "exact/branch_and_bound.hpp"
#include "framework/dual_state.hpp"
#include "framework/raise_rule.hpp"
#include "framework/two_phase.hpp"
#include "model/problem.hpp"
#include "model/solution.hpp"
#include "online/event_stream.hpp"
#include "workload/scenario.hpp"

namespace treesched::testutil {

// A small random tree problem sized for exact solving.
inline Problem small_tree_problem(std::uint64_t seed, VertexId n = 24,
                                  int r = 2, int m = 10,
                                  HeightLaw heights = HeightLaw::kUnit,
                                  TreeShape shape =
                                      TreeShape::kRandomAttachment) {
  TreeScenarioSpec spec;
  spec.shape = shape;
  spec.num_vertices = n;
  spec.num_networks = r;
  spec.demands.num_demands = m;
  spec.demands.heights = heights;
  spec.demands.profit_max = 50.0;
  spec.seed = seed;
  return make_tree_problem(spec);
}

// A small random line-with-windows problem sized for exact solving.
inline Problem small_line_problem(std::uint64_t seed, int slots = 24,
                                  int resources = 2, int m = 8,
                                  HeightLaw heights = HeightLaw::kUnit,
                                  double window_slack = 1.5) {
  LineScenarioSpec spec;
  spec.line.num_slots = slots;
  spec.line.num_resources = resources;
  spec.line.num_demands = m;
  spec.line.max_proc_time = slots / 3;
  spec.line.window_slack = window_slack;
  spec.line.heights = heights;
  spec.line.profit_max = 50.0;
  spec.seed = seed;
  return make_line_problem(spec);
}

// Every FaultStats field in declaration order, for EXPECT_EQ comparisons
// whose failures name the values.
inline std::vector<std::int64_t> fault_fields(const FaultStats& s) {
  return {s.frames_posted,   s.frames_delivered, s.frames_dropped,
          s.frames_duplicated, s.frames_corrupted, s.frames_delayed,
          s.frames_reordered, s.retransmits,      s.dup_dropped,
          s.corrupt_dropped, s.corrupt_undetected, s.frames_lost};
}

// Instance i's routing path as a vector, for EXPECT_EQ comparisons.
inline std::vector<EdgeId> path_of(const Problem& problem, InstanceId i) {
  const IdRuns path = problem.path(i);
  return {path.begin(), path.end()};
}

// Central DualState replay of a protocol raise stack under `kind`: the
// same tight_raise arithmetic, applied in the same order, to the
// pre-sharding central state.  Winners within one step are an independent
// set, so their raises commute and the stored order is authoritative.
// Returns every instance's final LHS: the exact (==) oracle for a
// protocol pass's final_lhs.
inline std::vector<double> replay_central_lhs(
    const Problem& p, const LayeredPlan& plan, RaiseRuleKind kind,
    const std::vector<std::vector<InstanceId>>& stack) {
  DualState dual(p);
  const RaiseRule rule(kind, p);
  std::vector<double> increments;
  for (const auto& step : stack) {
    for (InstanceId i : step) {
      const DemandInstance& inst = p.instance(i);
      const std::span<const EdgeId> critical = plan.critical(i);
      const double slack =
          inst.profit - dual.lhs(inst, rule.beta_coeff(inst));
      const double amount =
          rule.tight_raise(inst, critical, slack, increments);
      dual.raise_alpha(inst.demand, amount);
      for (std::size_t c = 0; c < critical.size(); ++c)
        dual.raise_beta(critical[c], increments[c]);
    }
  }
  std::vector<double> lhs(static_cast<std::size_t>(p.num_instances()), 0.0);
  for (InstanceId i = 0; i < p.num_instances(); ++i)
    lhs[static_cast<std::size_t>(i)] =
        dual.lhs(p.instance(i), rule.beta_coeff(p.instance(i)));
  return lhs;
}

// Exact optimum; fails the test if the search did not complete.
inline Profit exact_opt(const Problem& problem) {
  const ExactResult exact = solve_exact(problem);
  EXPECT_TRUE(exact.completed) << "exact search hit node limit";
  const auto report = check_feasibility(problem, exact.solution);
  EXPECT_TRUE(report.feasible) << report.violation;
  return exact.profit;
}

// Asserts the solution is feasible and returns its profit.
inline Profit require_feasible(const Problem& problem,
                               const Solution& solution) {
  const auto report = check_feasibility(problem, solution);
  EXPECT_TRUE(report.feasible) << report.violation;
  return solution.profit(problem);
}

// Checks that a run kept with keep_stack raised in the plan's group
// order: the stack tags strictly increase, and every row raises only
// members of its tag's group.  With interference_violation(plan) ==
// nullopt this is the interference property of every raise (Lemma 3.1):
// an earlier raise that overlaps a later one lies in the same or an
// earlier group, so its critical set meets the later one's path.
inline void expect_raises_follow_group_order(const LayeredPlan& plan,
                                             const SolveResult& run,
                                             const std::string& what) {
  EXPECT_FALSE(run.raise_stack.empty()) << what;
  ASSERT_EQ(run.raise_stack.size(), run.stack_tags.size()) << what;
  for (std::size_t r = 0; r < run.stack_tags.size(); ++r) {
    if (r > 0) {
      EXPECT_TRUE(run.stack_tags[r - 1] < run.stack_tags[r])
          << what << " row " << r;
    }
    for (InstanceId id : run.raise_stack[r])
      EXPECT_EQ(plan.group[static_cast<std::size_t>(id)],
                run.stack_tags[r].group)
          << what << " row " << r << " instance " << id;
  }
}

// An online trace that empties the scheduler: one batch of `arrivals`
// fresh demands (keys 0, 1, ...), then one batch that departs every live
// demand — the base's residents (keys -1, -2, ...) and the arrivals —
// then, when `refill` > 0, one batch of `refill` more arrivals.
inline std::vector<EventBatch> emptying_trace(const Problem& base,
                                              int arrivals, int refill,
                                              std::uint64_t seed) {
  DemandGenConfig cfg;
  cfg.heights = HeightLaw::kBimodal;
  const DemandSampler sampler(base, cfg);
  Rng rng(seed);
  DemandKey next_key = 0;
  const auto arrive = [&](EventBatch& batch, int count) {
    for (int k = 0; k < count; ++k)
      batch.arrivals.push_back({next_key++, 0, sampler.next(rng)});
  };
  std::vector<EventBatch> trace(refill > 0 ? 3 : 2);
  for (std::size_t b = 0; b < trace.size(); ++b)
    trace[b].time = static_cast<double>(b + 1);
  arrive(trace[0], arrivals);
  for (DemandId d = 0; d < base.num_demands(); ++d)
    trace[1].departures.push_back(-static_cast<DemandKey>(d) - 1);
  for (DemandKey key = 0; key < arrivals; ++key)
    trace[1].departures.push_back(key);
  if (refill > 0) arrive(trace[2], refill);
  return trace;
}

}  // namespace treesched::testutil
