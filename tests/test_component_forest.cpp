// ComponentForest correctness: the partition must split the active
// instances into exactly the connected components of the conflict graph
// — checked against an independent BFS over Problem::conflicting — in
// the deterministic order the online caches key on (components by
// smallest id, members ascending).  The last case reuses one engine
// across restrictions: nothing of one run may leak into the next.
#include "framework/component_forest.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "decomp/layered.hpp"
#include "framework/two_phase.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace treesched {
namespace {

using testutil::small_line_problem;
using testutil::small_tree_problem;

// Independent reference partition: BFS over the conflict relation
// restricted to the active instances, components emitted in smallest-id
// order, members ascending.
std::vector<std::vector<InstanceId>> bfs_components(
    const Problem& p, const std::vector<char>& active) {
  std::vector<InstanceId> members;
  for (InstanceId i = 0; i < p.num_instances(); ++i)
    if (active[static_cast<std::size_t>(i)]) members.push_back(i);
  const int m = static_cast<int>(members.size());
  std::vector<char> visited(static_cast<std::size_t>(m), 0);
  std::vector<std::vector<InstanceId>> comps;
  for (int r = 0; r < m; ++r) {
    if (visited[static_cast<std::size_t>(r)]) continue;
    std::vector<int> frontier{r};
    visited[static_cast<std::size_t>(r)] = 1;
    std::vector<char> in_comp(static_cast<std::size_t>(m), 0);
    in_comp[static_cast<std::size_t>(r)] = 1;
    while (!frontier.empty()) {
      const int a = frontier.back();
      frontier.pop_back();
      for (int b = 0; b < m; ++b) {
        if (visited[static_cast<std::size_t>(b)]) continue;
        if (!p.conflicting(members[static_cast<std::size_t>(a)],
                           members[static_cast<std::size_t>(b)]))
          continue;
        visited[static_cast<std::size_t>(b)] = 1;
        in_comp[static_cast<std::size_t>(b)] = 1;
        frontier.push_back(b);
      }
    }
    std::vector<InstanceId> comp;
    for (int b = 0; b < m; ++b)
      if (in_comp[static_cast<std::size_t>(b)])
        comp.push_back(members[static_cast<std::size_t>(b)]);
    comps.push_back(std::move(comp));
  }
  return comps;
}

void expect_forest_matches_reference(const Problem& p,
                                     const std::vector<char>& active,
                                     const std::string& what) {
  ComponentForest forest;
  forest.build(p, active);
  const auto ref = bfs_components(p, active);
  ASSERT_EQ(static_cast<std::size_t>(forest.num_components()), ref.size())
      << what;
  for (std::size_t c = 0; c < ref.size(); ++c) {
    const auto ids = forest.component_members(static_cast<int>(c));
    EXPECT_EQ(std::vector<InstanceId>(ids.begin(), ids.end()), ref[c])
        << what << " comp " << c;
    for (InstanceId i : ids)
      EXPECT_EQ(forest.component_of(i), static_cast<int>(c)) << what;
  }
  // Inactive instances belong to no component.
  for (InstanceId i = 0; i < p.num_instances(); ++i) {
    if (!active[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(forest.component_of(i), -1) << what << " id " << i;
    }
  }
}

TEST(ComponentForest, MatchesBfsReferenceOnTreesAndLines) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem tree = small_tree_problem(seed + 500, 32, 2, 18);
    std::vector<char> all(static_cast<std::size_t>(tree.num_instances()), 1);
    expect_forest_matches_reference(tree, all,
                                    "tree seed=" + std::to_string(seed));
    // Restricted mask: every other instance (the wide/narrow regime's
    // shape — the forest must partition the *active* subset only).
    std::vector<char> evens(all.size(), 0);
    for (std::size_t i = 0; i < evens.size(); i += 2) evens[i] = 1;
    expect_forest_matches_reference(
        tree, evens, "tree-evens seed=" + std::to_string(seed));
    const Problem line = small_line_problem(seed + 70, 28, 2, 9);
    std::vector<char> line_all(static_cast<std::size_t>(line.num_instances()),
                               1);
    expect_forest_matches_reference(line, line_all,
                                    "line seed=" + std::to_string(seed));
  }
}

// Field-by-field exact comparison of two engine runs.
void expect_same_run(const SolveResult& a, const SolveResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.solution.selected, b.solution.selected) << what;
  EXPECT_EQ(a.raise_stack, b.raise_stack) << what;
  EXPECT_EQ(a.stats.epochs, b.stats.epochs) << what;
  EXPECT_EQ(a.stats.stages, b.stats.stages) << what;
  EXPECT_EQ(a.stats.steps, b.stats.steps) << what;
  EXPECT_EQ(a.stats.raises, b.stats.raises) << what;
  EXPECT_EQ(a.stats.mis_rounds, b.stats.mis_rounds) << what;
  EXPECT_EQ(a.stats.comm_rounds, b.stats.comm_rounds) << what;
  // Doubles with ==: bit-identical, not merely close.
  EXPECT_EQ(a.stats.dual_objective, b.stats.dual_objective) << what;
  EXPECT_EQ(a.stats.lambda_observed, b.stats.lambda_observed) << what;
  EXPECT_EQ(a.stats.profit, b.stats.profit) << what;
  EXPECT_EQ(a.stats.lockstep_ok, b.stats.lockstep_ok) << what;
  EXPECT_EQ(a.stats.mis_ok, b.stats.mis_ok) << what;
}

TEST(ComponentForest, ReusedEngineResetsAcrossRestrictions) {
  // One engine object, two different restrictions: the per-run reset of
  // the dual variables and the LHS cache must leave nothing of the first
  // run behind, at every threads value.  Each restricted run must match a
  // fresh central-reference engine bit for bit.
  const Problem p = small_tree_problem(888, 32, 2, 18,
                                       HeightLaw::kBimodal);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  const HeightClasses classes = classify_wide_narrow(p);
  ASSERT_TRUE(classes.has_wide());
  ASSERT_TRUE(classes.has_narrow());

  for (const int threads : {1, 4}) {
    SolverConfig config;
    config.keep_stack = true;
    config.threads = threads;
    TwoPhaseEngine reused(p, plan, config);
    for (const bool wide : {true, false}) {
      const auto& ids = wide ? classes.wide_ids : classes.narrow_ids;
      reused.restrict_to(ids);
      const SolveResult got = reused.run();

      SolverConfig central = config;
      central.engine = EngineImpl::kCentralReference;
      TwoPhaseEngine fresh(p, plan, central);
      fresh.restrict_to(ids);
      const SolveResult want = fresh.run();
      expect_same_run(want, got,
                      "restricted wide=" + std::to_string(wide) +
                          " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace treesched
