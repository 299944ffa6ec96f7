// Layered decompositions (paper, Section 4.4 and Section 7).
//
// A layered decomposition assigns every demand instance a group index and
// a set of *critical edges* pi(d) on its path such that for any two
// overlapping instances d1 in G_i and d2 in G_j with i <= j, path(d2)
// contains at least one edge of pi(d1).  The two-phase framework raises
// groups in ascending order; the property above is exactly the
// "interference property" that powers Lemma 3.1.
//
// Tree networks (Lemma 4.2): from a tree decomposition with pivot size
// theta and depth l we derive groups by *capture depth* (deepest captured
// first) and pi(d) = wings of the capture node mu(d) plus wings of the
// bending points of path(d) w.r.t. each pivot of C(mu(d)).  The critical
// set size is Delta <= 2(theta+1): Delta = 6 with the ideal decomposition
// (Lemma 4.3), 4 with root-fixing, 2(log n + 1) with balancing.
//
// Line networks (Section 7): groups by length class (factor-2 buckets
// above the minimum length) and pi(d) = {start, mid, end} timeslots,
// Delta = 3.  This is the decomposition implicit in Panconesi-Sozio.
//
// The Appendix-A sequential ordering is the root-fixing plan with
// mu-wings only (Delta = 2, Observation A.1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/prelude.hpp"
#include "decomp/tree_decomposition.hpp"
#include "model/problem.hpp"

namespace treesched {

struct LayeredPlan {
  int num_groups = 0;  // l_max: number of epochs of the distributed run
  int delta = 0;       // max |pi(d)| over all instances
  std::vector<int> group;  // per instance, 0-based

  // Critical sets, CSR: pi(i) is the ascending global edge ids
  // critical_edges[critical_offset[i] .. critical_offset[i + 1]).  Every
  // plan builder appends one instance's set at a time.
  std::vector<std::int64_t> critical_offset{0};
  std::vector<EdgeId> critical_edges;
  std::span<const EdgeId> critical(InstanceId i) const {
    const auto k = static_cast<std::size_t>(i);
    TS_REQUIRE(i >= 0 && k + 1 < critical_offset.size());
    const auto lo = static_cast<std::size_t>(critical_offset[k]);
    return {critical_edges.data() + lo,
            static_cast<std::size_t>(critical_offset[k + 1]) - lo};
  }

  // Instances listed per group (built by finalize_plan).
  std::vector<std::vector<InstanceId>> members;
};

// Lemma 4.2/4.3 plan: one tree decomposition per network, groups aligned
// by capture depth from the bottom.  `mu_wings_only` restricts pi(d) to
// the wings of the capture node (valid for root-fixing by Observation
// A.1; used by the sequential Appendix-A algorithm, Delta = 2).
LayeredPlan build_tree_layered_plan(const Problem& problem, DecompKind kind,
                                    bool mu_wings_only = false);

// Same plan, but against caller-held decompositions (one per network, in
// network order).  The decompositions depend only on the topology, never
// on the demand set, so a caller whose demands churn against a fixed
// topology (the online scheduler) computes them once and rebuilds the
// per-instance plan cheaply per batch.  build_tree_layered_plan(problem,
// kind) is exactly this with freshly built decompositions, and this is
// extend_tree_layered_plan run on an empty plan.
LayeredPlan build_tree_layered_plan(
    const Problem& problem, const std::vector<TreeDecomposition>& decomps,
    bool mu_wings_only = false);

// Extends `plan` in place to cover instances appended to `problem` since
// the plan was built (plan.group.size() marks the first new instance).
// Groups, criticals, members and delta come out identical to rebuilding
// from scratch: the group count is a property of the decompositions
// alone, and appended ids are larger than every existing id, so the
// per-group member lists stay ascending.  This turns the online
// scheduler's per-batch plan rebuild into O(new instances).
void extend_tree_layered_plan(const Problem& problem,
                              const std::vector<TreeDecomposition>& decomps,
                              LayeredPlan& plan, bool mu_wings_only = false);

// Section 7 plan for line networks: length classes + {start, mid, end}.
LayeredPlan build_line_layered_plan(const Problem& problem);

// Exhaustive check of the layered-decomposition property; returns a
// description of the first violation, or nullopt when the plan is valid.
// O(#overlapping pairs * Delta); intended for tests.
std::optional<std::string> interference_violation(const Problem& problem,
                                                  const LayeredPlan& plan);

}  // namespace treesched
