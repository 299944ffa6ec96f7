// ComponentForest correctness: the partition must split the active
// instances into exactly the connected components of the conflict graph
// — checked against an independent BFS over Problem::conflicting — in
// the deterministic order the online caches are indexed by (components
// by smallest id, members ascending).  update() must reproduce a fresh
// build() through random deltas, and its carry-over report must name
// exactly the old components no delta touched.  The last case reuses
// one engine across restrictions: nothing of one run may leak into the
// next.
#include "framework/component_forest.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "decomp/layered.hpp"
#include "framework/two_phase.hpp"
#include "test_util.hpp"
#include "workload/demand_gen.hpp"
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

// The incremental forest equals a fresh build over the same mask: the
// component count, every member list and every component_of().
void expect_same_forest(const ComponentForest& incremental,
                        const ComponentForest& reference,
                        const std::vector<char>& mask,
                        const std::string& what) {
  ASSERT_EQ(incremental.num_components(), reference.num_components()) << what;
  for (int c = 0; c < reference.num_components(); ++c) {
    const auto got = incremental.component_members(c);
    const auto want = reference.component_members(c);
    ASSERT_EQ(std::vector<InstanceId>(got.begin(), got.end()),
              std::vector<InstanceId>(want.begin(), want.end()))
        << what << " comp " << c;
  }
  for (InstanceId i = 0; i < static_cast<InstanceId>(mask.size()); ++i) {
    EXPECT_EQ(incremental.component_of(i) >= 0,
              mask[static_cast<std::size_t>(i)] != 0)
        << what << " id " << i;
    EXPECT_EQ(incremental.component_of(i), reference.component_of(i))
        << what << " id " << i;
  }
}

// The partition as member lists, in component order.
std::vector<std::vector<InstanceId>> components_of(
    const ComponentForest& forest) {
  std::vector<std::vector<InstanceId>> comps;
  for (int c = 0; c < forest.num_components(); ++c) {
    const auto ids = forest.component_members(c);
    comps.emplace_back(ids.begin(), ids.end());
  }
  return comps;
}

// The carry-over report of the last update() against an independent
// oracle: an old component is untouched iff none of its members left the
// mask and no added instance conflicts with one of them
// (Problem::conflicting).  Each untouched old component is carried over
// exactly once, each touched one never, and a carried component has
// exactly its old members.
void expect_carry_over(const Problem& p,
                       const std::vector<std::vector<InstanceId>>& before,
                       const std::vector<char>& mask,
                       const std::vector<InstanceId>& added,
                       const ComponentForest& forest,
                       const std::string& what) {
  std::vector<int> carried(before.size(), 0);
  for (int c = 0; c < forest.num_components(); ++c) {
    const int old = forest.carried_from(c);
    if (old < 0) continue;
    ASSERT_LT(static_cast<std::size_t>(old), before.size()) << what;
    ++carried[static_cast<std::size_t>(old)];
    const auto ids = forest.component_members(c);
    EXPECT_EQ(std::vector<InstanceId>(ids.begin(), ids.end()),
              before[static_cast<std::size_t>(old)])
        << what << " comp " << c;
  }
  for (std::size_t old = 0; old < before.size(); ++old) {
    bool touched = false;
    for (const InstanceId m : before[old]) {
      touched |= mask[static_cast<std::size_t>(m)] == 0;
      for (const InstanceId a : added) touched |= p.conflicting(a, m);
    }
    EXPECT_EQ(carried[old], touched ? 0 : 1) << what << " old comp " << old;
  }
}

// ComponentForest::update must produce the identical forest a fresh
// build over the revised mask would, through a chain of random deltas,
// and report what it carried over.  build() carries nothing, and an
// empty delta carries every component under its own number.
// The second problem (local pairs on identical networks) splits into
// ~20 components, so most stay clean through a delta and keep the edge
// representatives an earlier walk left; a later delta must still find
// them.
TEST(ComponentForestUpdate, MatchesFreshBuildThroughRandomDeltas) {
  TreeScenarioSpec local;
  local.num_vertices = 128;
  local.identical_networks = true;
  local.demands.num_demands = 24;
  local.demands.endpoints = EndpointLaw::kLocalPair;
  local.demands.locality = 2;
  local.seed = 56;
  const Problem problems[] = {
      small_tree_problem(55, 32, 2, 20, HeightLaw::kBimodal),
      make_tree_problem(local)};
  for (const Problem& problem : problems) {
    const int n = problem.num_instances();
    Rng rng(123);
    std::vector<char> mask(static_cast<std::size_t>(n), 0);
    for (InstanceId i = 0; i < n; ++i)
      mask[static_cast<std::size_t>(i)] = rng.chance(0.7) ? 1 : 0;

    ComponentForest incremental, reference;
    incremental.build(problem, mask);
    for (int c = 0; c < incremental.num_components(); ++c)
      EXPECT_EQ(incremental.carried_from(c), -1) << "after build, comp " << c;
    incremental.update(problem, mask, {}, {});
    for (int c = 0; c < incremental.num_components(); ++c)
      EXPECT_EQ(incremental.carried_from(c), c) << "empty delta, comp " << c;
    for (int round = 0; round < 20; ++round) {
      const auto before = components_of(incremental);
      std::vector<InstanceId> added, removed;
      for (InstanceId i = 0; i < n; ++i) {
        if (!rng.chance(0.15)) continue;
        auto& m = mask[static_cast<std::size_t>(i)];
        if (m) {
          m = 0;
          removed.push_back(i);
        } else {
          m = 1;
          added.push_back(i);
        }
      }
      incremental.update(problem, mask, added, removed);
      reference.build(problem, mask);
      const std::string what =
          std::to_string(n) + " instances, round " + std::to_string(round);
      expect_same_forest(incremental, reference, mask, what);
      expect_carry_over(problem, before, mask, added, incremental, what);
    }
  }
}

// The online-dense shape: uniform-pair demands on two random trees, so
// the conflict graph percolates and nearly every delta touches the one
// giant component.  The problem grows the online service's way (reopen,
// append, finalize), so `added` holds ids beyond the count the forest was
// built with, and departures tombstone live demands.  One forest per
// height class, as the scheduler keeps them: each edge's bucket also
// holds the other class's and the tombstoned instances.
TEST(ComponentForestUpdate, MatchesFreshBuildOnAGrowingPercolatedProblem) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Problem base = small_tree_problem(seed + 900, 96, 2, 40,
                                            HeightLaw::kBimodal);
    DemandGenConfig demand_cfg;
    demand_cfg.heights = HeightLaw::kBimodal;
    const DemandSampler sampler(base, demand_cfg);
    Rng rng(seed);

    Problem problem(base.num_vertices(), base.shared_networks());
    std::vector<char> alive;  // per demand
    const auto append = [&](const DemandDraw& draw) {
      problem.add_demand(draw.u, draw.v, draw.profit, draw.height);
      alive.push_back(1);
    };
    for (int k = 0; k < 40; ++k) append(sampler.next(rng));
    problem.finalize();

    const auto class_mask = [&](bool wide) {
      std::vector<char> mask(static_cast<std::size_t>(problem.num_instances()));
      for (const DemandInstance& inst : problem.instances())
        mask[static_cast<std::size_t>(inst.id)] =
            alive[static_cast<std::size_t>(inst.demand)] &&
            (inst.height > 0.5) == wide;
      return mask;
    };
    std::vector<char> masks[2] = {class_mask(false), class_mask(true)};
    ComponentForest forests[2];
    for (int w = 0; w < 2; ++w)
      forests[w].build(problem, masks[w]);

    // Some rounds only depart, and some only arrive: then the giant
    // component is dirtied through the added instances' edges alone.
    for (int round = 0; round < 24; ++round) {
      if (round % 4 != 3) {
        problem.reopen();
        const auto arrivals = rng.uniform_int(1, 12);
        for (std::int64_t k = 0; k < arrivals; ++k) append(sampler.next(rng));
        problem.finalize();
      }
      if (round % 3 != 1) {
        for (std::size_t d = 0; d < alive.size(); ++d)
          if (alive[d] && rng.chance(0.12)) alive[d] = 0;
      }

      for (int w = 0; w < 2; ++w) {
        const std::vector<char> mask = class_mask(w == 1);
        std::vector<InstanceId> added, removed;
        for (InstanceId i = 0; i < problem.num_instances(); ++i) {
          const bool now = mask[static_cast<std::size_t>(i)] != 0;
          const bool before =
              static_cast<std::size_t>(i) < masks[w].size() &&
              masks[w][static_cast<std::size_t>(i)] != 0;
          if (now && !before) added.push_back(i);
          if (!now && before) removed.push_back(i);
        }
        const auto before = components_of(forests[w]);
        forests[w].update(problem, mask, added, removed);
        masks[w] = mask;
        ComponentForest reference;
        reference.build(problem, mask);
        const std::string what = "seed " + std::to_string(seed) + " round " +
                                 std::to_string(round) + " wide " +
                                 std::to_string(w);
        expect_same_forest(forests[w], reference, mask, what);
        expect_carry_over(problem, before, mask, added, forests[w], what);
      }
    }
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
