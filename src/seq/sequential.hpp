// Sequential baselines expressed in the two-phase framework.
//
// Trees (paper, Appendix A): root-fixing decomposition, groups by capture
// depth (deepest first), pi(d) = wings of the capture node only
// (Observation A.1), Delta = 2, lambda = 1 (kExact stage mode) — a
// 3-approximation; when the input has a single network the alpha raise is
// skipped and the bound improves to 2 (the Lewin-Eytan / Tarjan regime).
//
// Lines (Bar-Noy et al. / Berman-Dasgupta): instances ordered by end
// slot, pi(d) = {end slot}, Delta = 1, lambda = 1 — the classical
// 2-approximation for unit heights; the narrow rule with Delta = 1 gives
// 3, and the wide/narrow combination gives the classical 5-approximation
// for arbitrary heights.
//
// These run in the same engine as the distributed algorithms, so every
// property test (feasibility, interference, dual certification) covers
// them too.  Their bounds (both classes always, for the height-split
// forms) come from proven_ratio_bound (framework/certify.hpp) and so are
// scaled by the path capacity spread rho like every other solver's; the
// constants above are the rho = 1 values.
#pragma once

#include "decomp/layered.hpp"
#include "framework/two_phase.hpp"
#include "model/problem.hpp"

namespace treesched {

struct SeqResult {
  Solution solution;
  SolveStats stats;
  double ratio_bound = 0.0;
  double profit = 0.0;
};

// End-time ordering plan for line problems: group = last slot of the
// placement, pi(d) = {last slot}.  Two overlapping placements with
// end(d1) <= end(d2) share slot end(d1), which is why Delta = 1 works.
LayeredPlan build_endtime_plan(const Problem& problem);

// Appendix-A sequential algorithm for trees, unit heights.
SeqResult solve_tree_unit_sequential(const Problem& problem);

// Height-split sequential algorithm for trees (bound 3 + 9 = 12 from our
// framework constants; measured ratios are far smaller).
SeqResult solve_tree_arbitrary_sequential(const Problem& problem);

// Bar-Noy-style sequential algorithms for line problems (with windows).
SeqResult solve_line_unit_sequential(const Problem& problem);
SeqResult solve_line_arbitrary_sequential(const Problem& problem);

}  // namespace treesched
