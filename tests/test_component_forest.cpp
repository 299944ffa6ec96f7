// ComponentForest correctness: the persistent forest must partition
// every group's active members into exactly the connected components of
// the conflict graph restricted to the group — checked against an
// independent BFS over Problem::conflicting — with the engine's
// deterministic ordering (components by first member rank, members
// rank-ascending), and must be rebuilt whenever the engine's active set
// changes.  Engine-level parity of the parallel path is
// tests/test_engine_parity.cpp's subject.
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

// Independent reference partition of one group: BFS over the conflict
// relation restricted to the group's active members, components emitted
// in first-member-rank order, members in rank order.
std::vector<std::vector<InstanceId>> bfs_components(
    const Problem& p, const LayeredPlan& plan,
    const std::vector<char>& active, int group) {
  std::vector<InstanceId> members;
  for (InstanceId i : plan.members[static_cast<std::size_t>(group)])
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
                                     const LayeredPlan& plan,
                                     const std::vector<char>& active,
                                     const std::string& what) {
  ComponentForest forest;
  forest.build(p, plan, active);
  ASSERT_TRUE(forest.built()) << what;
  ASSERT_EQ(forest.num_groups(), plan.num_groups) << what;
  for (int g = 0; g < plan.num_groups; ++g) {
    const auto ref = bfs_components(p, plan, active, g);
    ASSERT_EQ(static_cast<std::size_t>(forest.components_in_group(g)),
              ref.size())
        << what << " group " << g;
    int members_seen = 0;
    for (std::size_t c = 0; c < ref.size(); ++c) {
      const auto ids = forest.component_ids(g, static_cast<int>(c));
      const std::vector<InstanceId> got(ids.begin(), ids.end());
      EXPECT_EQ(got, ref[c]) << what << " group " << g << " comp " << c;
      members_seen += static_cast<int>(ids.size());
    }
    // Every active member appears exactly once across the components.
    int active_members = 0;
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)])
      if (active[static_cast<std::size_t>(i)]) ++active_members;
    EXPECT_EQ(members_seen, active_members) << what << " group " << g;
  }
}

TEST(ComponentForest, MatchesBfsReferenceOnTreesAndLines) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem tree = small_tree_problem(seed + 500, 32, 2, 18);
    for (const DecompKind kind :
         {DecompKind::kIdeal, DecompKind::kRootFixing}) {
      const LayeredPlan plan = build_tree_layered_plan(tree, kind);
      std::vector<char> all(static_cast<std::size_t>(tree.num_instances()),
                            1);
      expect_forest_matches_reference(
          tree, plan, all,
          "tree seed=" + std::to_string(seed) + " " + to_string(kind));
      // Restricted mask: every other instance (the wide/narrow regime's
      // shape — the forest must partition the *active* subset only).
      std::vector<char> evens(all.size(), 0);
      for (std::size_t i = 0; i < evens.size(); i += 2) evens[i] = 1;
      expect_forest_matches_reference(
          tree, plan, evens,
          "tree-evens seed=" + std::to_string(seed) + " " +
              to_string(kind));
    }
    const Problem line = small_line_problem(seed + 70, 28, 2, 9);
    const LayeredPlan plan = build_line_layered_plan(line);
    std::vector<char> all(static_cast<std::size_t>(line.num_instances()), 1);
    expect_forest_matches_reference(line, plan, all,
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

TEST(ComponentForest, RestrictToInvalidatesAndRebuilds) {
  // One engine object, two different restrictions: the forest must be
  // rebuilt after restrict_to (a stale partition over the old active set
  // would run wrong components), and at every thread count the per-run
  // reset of the dual variables and the LHS cache must leave nothing of
  // the first run behind.  Each restricted run must match a fresh
  // central-reference engine bit for bit.
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
