// Distributed scheduling with non-uniform bandwidths — the IPDPS 2013
// extension, reconstructed per DESIGN.md Section 6.
//
// Supported regimes (each with a valid LP relaxation, hence a sound dual
// certificate):
//  * unit heights, arbitrary capacities >= 1 ("multi-channel" edges):
//    primal constraint sum x(d) <= c(e); kUnit rule with capacity-aware
//    increments; derived bound (Delta+1) * rho / lambda, rho = max path
//    capacity spread (rho = 1 reproduces the paper's 7+eps / 4+eps).
//  * all-narrow heights (h(d) <= c(e)/2 on every edge of every instance,
//    implied by h_max <= c_min/2): kNarrow rule; derived bound
//    (1+2 Delta^2) * rho / lambda.
// Both come from proven_ratio_bound (framework/certify.hpp), as every
// solver's bound does, so the unit wrappers of dist/scheduler.hpp report
// the same one.  The arbitrary-height wrappers on capacities other than
// 1 lie outside these two regimes: they report the same rho-scaled
// formula, whose proof there is open.
//
// Options:
//  * by_class: solve each bottleneck-capacity class separately and merge
//    greedily — the class-grouping arm of the T5 ablation;
//  * capacity_aware = false: apply the paper's uniform increments
//    verbatim (the "naive" ablation arm; its dual certificate degrades
//    with the spread, demonstrating why the capacity-aware rule exists).
#pragma once

#include "capacity/capacity_profile.hpp"
#include "decomp/layered.hpp"
#include "dist/scheduler.hpp"
#include "model/problem.hpp"

namespace treesched {

struct NonuniformOptions {
  DistOptions dist;
  bool line = false;            // use the line layered plan (Delta = 3)
  bool by_class = false;        // per-bottleneck-class solve + greedy merge
  bool capacity_aware = true;   // false: naive uniform increments
};

struct NonuniformResult {
  Solution solution;
  SolveStats stats;
  double profit = 0.0;
  double ratio_bound = 0.0;   // derived bound (see header comment)
  double path_spread = 1.0;   // rho
  int classes = 1;            // bottleneck classes present
};

// Unit-height demands over non-uniform capacities.
NonuniformResult solve_nonuniform_unit(const Problem& problem,
                                       const NonuniformOptions& options = {});

// All-narrow demands (checked) over non-uniform capacities.
NonuniformResult solve_nonuniform_narrow(
    const Problem& problem, const NonuniformOptions& options = {});

}  // namespace treesched
