// Exact weighted-interval-scheduling dynamic program: the polynomial
// special case of the line problem with a single resource, unit heights,
// uniform capacity 1 and fixed placements (one instance per demand).
// Used to cross-validate the branch-and-bound solver (test_exact) and as
// the exact reference of the sequential line tests (test_sequential); the
// line benchmarks take their optima from branch and bound, not from here.
#pragma once

#include "exact/branch_and_bound.hpp"
#include "model/problem.hpp"

namespace treesched {

// True iff the DP's preconditions hold for `problem`.
bool line_dp_applicable(const Problem& problem);

// Exact optimum; requires line_dp_applicable(problem).
ExactResult solve_line_dp(const Problem& problem);

}  // namespace treesched
