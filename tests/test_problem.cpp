#include "model/problem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "model/line_problem.hpp"
#include "test_util.hpp"
#include "workload/tree_gen.hpp"

namespace treesched {
namespace {

Problem two_network_problem() {
  // Network 0: path 0-1-2-3.  Network 1: star centered at 1.
  std::vector<TreeNetwork> networks;
  networks.emplace_back(4, std::vector<std::pair<VertexId, VertexId>>{
                               {0, 1}, {1, 2}, {2, 3}});
  networks.emplace_back(4, std::vector<std::pair<VertexId, VertexId>>{
                               {1, 0}, {1, 2}, {1, 3}});
  Problem problem(4, std::move(networks));
  problem.add_demand(0, 3, 10.0);        // d0, both networks
  problem.add_demand(0, 2, 5.0);         // d1
  problem.set_access(1, {0});            // d1 restricted to network 0
  problem.add_demand(2, 3, 2.0, 0.5);    // d2, height 1/2
  problem.finalize();
  return problem;
}

TEST(Problem, InstanceExpansionFollowsAccessSets) {
  const Problem p = two_network_problem();
  EXPECT_EQ(p.num_demands(), 3);
  // d0: 2 instances, d1: 1, d2: 2.
  EXPECT_EQ(p.num_instances(), 5);
  EXPECT_EQ(p.instances_of_demand(0).size(), 2u);
  EXPECT_EQ(p.instances_of_demand(1).size(), 1u);
  EXPECT_EQ(p.instances_of_demand(2).size(), 2u);
}

TEST(Problem, GlobalEdgeMappingRoundTrips) {
  const Problem p = two_network_problem();
  EXPECT_EQ(p.num_global_edges(), 6);
  for (NetworkId q = 0; q < p.num_networks(); ++q) {
    for (EdgeId e = 0; e < p.network(q).num_edges(); ++e) {
      const auto [qq, ee] = p.edge_owner(p.global_edge(q, e));
      EXPECT_EQ(qq, q);
      EXPECT_EQ(ee, e);
    }
  }
}

TEST(Problem, InstancePathsAreCorrect) {
  const Problem p = two_network_problem();
  // d0 on network 0: path 0-1-2-3 = local edges {0,1,2} = global {0,1,2}.
  const auto& i0 = p.instance(p.instances_of_demand(0)[0]);
  EXPECT_EQ(i0.network, 0);
  EXPECT_EQ(testutil::path_of(p, i0.id), (std::vector<EdgeId>{0, 1, 2}));
  // d0 on network 1 (star at 1): path 0-1-3 = local edges {0,2} =
  // global {3, 5}.
  const auto& i1 = p.instance(p.instances_of_demand(0)[1]);
  EXPECT_EQ(i1.network, 1);
  EXPECT_EQ(testutil::path_of(p, i1.id), (std::vector<EdgeId>{3, 5}));
}

TEST(Problem, OverlapAndConflict) {
  const Problem p = two_network_problem();
  const InstanceId d0n0 = p.instances_of_demand(0)[0];
  const InstanceId d0n1 = p.instances_of_demand(0)[1];
  const InstanceId d1n0 = p.instances_of_demand(1)[0];
  const InstanceId d2n0 = p.instances_of_demand(2)[0];
  // Same demand, different networks: conflicting but not overlapping.
  EXPECT_FALSE(p.overlap(d0n0, d0n1));
  EXPECT_TRUE(p.conflicting(d0n0, d0n1));
  // d0 and d1 share edges 0,1 on network 0.
  EXPECT_TRUE(p.overlap(d0n0, d1n0));
  EXPECT_TRUE(p.overlap(d1n0, d0n0));  // symmetry
  // d1 [0-2] and d2 [2-3] touch at vertex 2 but share no edge.
  EXPECT_FALSE(p.overlap(d1n0, d2n0));
  EXPECT_FALSE(p.conflicting(d1n0, d2n0));
}

TEST(Problem, InstancesOnEdgeIndex) {
  const Problem p = two_network_problem();
  for (EdgeId e = 0; e < p.num_global_edges(); ++e) {
    for (InstanceId i : p.instances_on_edge(e)) {
      const auto path = p.path(i);
      EXPECT_TRUE(std::binary_search(path.begin(), path.end(), e));
    }
  }
  // Every instance-edge incidence appears in the index.
  for (const DemandInstance& inst : p.instances()) {
    for (EdgeId e : p.path(inst.id)) {
      const auto& lst = p.instances_on_edge(e);
      EXPECT_NE(std::find(lst.begin(), lst.end(), inst.id), lst.end());
    }
  }
}

// --- the path store -------------------------------------------------------

// Adds demands [from, to) of `src` to `dst` with their access sets; with
// `manual`, also their instances, explicitly, as LineProblem::lower() does.
void append_demands(Problem& dst, const Problem& src, DemandId from,
                    DemandId to, bool manual) {
  for (DemandId d = from; d < to; ++d) {
    const Demand& dem = src.demand(d);
    ASSERT_EQ(dst.add_demand(dem.u, dem.v, dem.profit, dem.height), d);
    dst.set_access(d, src.access(d));
    if (!manual) continue;
    for (InstanceId i : src.instances_of_demand(d)) {
      const DemandInstance& inst = src.instance(i);
      dst.add_instance(d, inst.network, inst.u, inst.v);
    }
  }
}

// `src` rebuilt over its own networks the way the online service grows a
// problem: its demands split over `batches` finalize() calls, with a
// reopen() before each later one.  Every capacity is set afterwards, in a
// reopen() that appends no demand; then one more reopen() changes nothing.
Problem rebuilt_in_batches(const Problem& src, bool manual, int batches) {
  Problem p(src.num_vertices(), src.shared_networks());
  for (int b = 0; b < batches; ++b) {
    if (b > 0) p.reopen();
    append_demands(p, src, src.num_demands() * b / batches,
                   src.num_demands() * (b + 1) / batches, manual);
    p.finalize();
  }
  p.reopen();
  for (EdgeId e = 0; e < src.num_global_edges(); ++e) {
    const auto [q, local] = src.edge_owner(e);
    p.set_capacity(q, local, src.capacity(e));
  }
  p.finalize();
  p.reopen();
  p.finalize();
  return p;
}

// Every path is the sorted per-instance tree walk, shifted to global ids,
// and every edge bucket is exactly the instances whose path holds it.
void expect_store_matches_walk(const Problem& p) {
  for (InstanceId i = 0; i < p.num_instances(); ++i) {
    const DemandInstance& inst = p.instance(i);
    std::vector<EdgeId> walk;
    for (EdgeId local : p.network(inst.network).path_edges(inst.u, inst.v))
      walk.push_back(p.global_edge(inst.network, local));
    std::sort(walk.begin(), walk.end());
    EXPECT_EQ(testutil::path_of(p, i), walk) << "instance " << i;
  }
  for (EdgeId e = 0; e < p.num_global_edges(); ++e) {
    std::vector<InstanceId> scan;
    for (InstanceId i = 0; i < p.num_instances(); ++i) {
      const auto path = p.path(i);
      if (std::find(path.begin(), path.end(), e) != path.end())
        scan.push_back(i);
    }
    const auto bucket = p.instances_on_edge(e);
    EXPECT_EQ(std::vector<InstanceId>(bucket.begin(), bucket.end()), scan)
        << "edge " << e;
  }
}

// The stored run entries of a path or bucket, not their expansion.
std::vector<IdRuns::Id> entries_of(IdRuns list) {
  return {list.entries().begin(), list.entries().end()};
}

void expect_same_store(const Problem& a, const Problem& b) {
  ASSERT_EQ(a.num_instances(), b.num_instances());
  ASSERT_EQ(a.num_demands(), b.num_demands());
  ASSERT_EQ(a.num_global_edges(), b.num_global_edges());
  for (InstanceId i = 0; i < a.num_instances(); ++i) {
    EXPECT_EQ(a.instance(i).demand, b.instance(i).demand);
    EXPECT_EQ(a.instance(i).network, b.instance(i).network);
    EXPECT_EQ(testutil::path_of(a, i), testutil::path_of(b, i));
    EXPECT_EQ(entries_of(a.path(i)), entries_of(b.path(i)))
        << "instance " << i;
  }
  for (EdgeId e = 0; e < a.num_global_edges(); ++e) {
    const auto x = a.instances_on_edge(e);
    const auto y = b.instances_on_edge(e);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
        << "edge " << e;
    EXPECT_EQ(entries_of(x), entries_of(y)) << "edge " << e;
  }
  for (DemandId d = 0; d < a.num_demands(); ++d)
    EXPECT_EQ(a.instances_of_demand(d), b.instances_of_demand(d));
  EXPECT_EQ(a.min_path_length(), b.min_path_length());
  EXPECT_EQ(a.max_path_length(), b.max_path_length());
  // Summary statistics, bit for bit.
  EXPECT_EQ(a.min_profit(), b.min_profit());
  EXPECT_EQ(a.max_profit(), b.max_profit());
  EXPECT_EQ(a.min_height(), b.min_height());
  EXPECT_EQ(a.max_height(), b.max_height());
  EXPECT_EQ(a.unit_height(), b.unit_height());
  EXPECT_EQ(a.min_capacity(), b.min_capacity());
  EXPECT_EQ(a.max_capacity(), b.max_capacity());
}

// Two resources of 16 slots.  The placements are lowered demand by
// demand, resource by resource, so consecutive paths switch network
// (access {0, 1}) and, between consecutive demands on one resource,
// overlap in every way: one slot more on the left (d0 -> d1), one
// containing the other (d2 -> d3 and d3 -> d4), and a shift to the left
// (d5 -> d6).
Problem switching_line_problem() {
  LineProblem line(16, 2);
  line.add_demand(0, 7, 3, 4.0);
  line.add_demand(4, 11, 4, 3.0);
  line.set_access(1, {1});
  line.add_demand(2, 9, 2, 2.0, 0.5);
  line.add_demand(6, 15, 5, 5.0);
  line.set_access(3, {1});
  line.add_demand(12, 14, 1, 1.0);
  line.set_access(4, {1});
  line.add_demand(10, 15, 6, 6.0);
  line.add_demand(8, 13, 4, 2.0);
  line.set_access(6, {1});
  return line.lower();
}

// A tree problem on caterpillars: the spine's edges are one run, so
// paths along it are runs and the legs add lone ids.
Problem caterpillar_problem(std::uint64_t seed) {
  return testutil::small_tree_problem(seed, 24, 2, 12, HeightLaw::kUnit,
                                      TreeShape::kCaterpillar);
}

TEST(Problem, PathStoreEqualsThePerInstanceWalk) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("tree seed " + std::to_string(seed));
    const Problem p = testutil::small_tree_problem(seed, 24, 2, 12);
    expect_store_matches_walk(p);
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("caterpillar seed " + std::to_string(seed));
    expect_store_matches_walk(caterpillar_problem(seed));
  }
  {
    SCOPED_TRACE("line");
    expect_store_matches_walk(testutil::small_line_problem(7));
  }
  SCOPED_TRACE("line switching resources");
  expect_store_matches_walk(switching_line_problem());
}

TEST(Problem, ReopenAppendFinalizeEqualsAFreshBuild) {
  for (const int batches : {1, 2, 5}) {
    const std::string in = ", " + std::to_string(batches) + " batches";
    for (const TreeShape shape :
         {TreeShape::kRandomAttachment, TreeShape::kCaterpillar}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(std::string(to_string(shape)) + " seed " +
                     std::to_string(seed) + in);
        // Capacities from 0.5 to 4 and heights from 0.1 to 1, so the
        // statistics the late set_capacity() and the appends move differ
        // from the defaults.
        TreeScenarioSpec spec;
        spec.shape = shape;
        spec.num_vertices = 24;
        spec.demands.num_demands = 12;
        spec.demands.heights = HeightLaw::kUniformRange;
        spec.demands.profit_max = 50.0;
        spec.capacities = CapacityLaw::kPowerClasses;
        spec.capacity_base = 0.5;
        spec.capacity_spread = 8.0;
        spec.seed = seed;
        const Problem fresh = make_tree_problem(spec);
        expect_same_store(
            rebuilt_in_batches(fresh, /*manual=*/false, batches), fresh);
      }
    }
    {
      SCOPED_TRACE("line" + in);
      const Problem fresh = testutil::small_line_problem(7);
      expect_same_store(rebuilt_in_batches(fresh, /*manual=*/true, batches),
                        fresh);
    }
    SCOPED_TRACE("line switching resources" + in);
    const Problem fresh = switching_line_problem();
    expect_same_store(rebuilt_in_batches(fresh, /*manual=*/true, batches),
                      fresh);
  }
}

TEST(Problem, CopyOwnsItsPathStore) {
  // The copy must not read the original's store: destroy the original,
  // then compare the copy with an identical, independent build.
  const Problem reference = testutil::small_tree_problem(3, 24, 2, 12);
  auto original = std::make_unique<Problem>(
      testutil::small_tree_problem(3, 24, 2, 12));
  const Problem copy = *original;
  original.reset();
  expect_same_store(copy, reference);
  expect_store_matches_walk(copy);
}

// Every list is stored as maximal runs: consecutive runs leave a gap, a
// lone id takes one entry, and no list has more entries than ids.
void expect_maximal_runs(IdRuns list, const std::string& what) {
  EXPECT_LE(list.entries().size(), list.size()) << what;
  bool first = true;
  IdRuns::Run prev;
  for (const IdRuns::Run r : list.runs()) {
    EXPECT_LE(r.first, r.last) << what;
    if (!first) {
      EXPECT_GT(r.first, prev.last + 1) << what;
    }
    first = false;
    prev = r;
  }
  std::size_t entries = 0;
  for (const IdRuns::Run r : list.runs()) entries += r.first == r.last ? 1 : 2;
  EXPECT_EQ(entries, list.entries().size()) << what;
}

void expect_compact_store(const Problem& p, bool line) {
  for (InstanceId i = 0; i < p.num_instances(); ++i) {
    expect_maximal_runs(p.path(i), "instance " + std::to_string(i));
    if (line) {
      EXPECT_TRUE(p.path(i).single_run()) << "instance " << i;
    }
  }
  for (EdgeId e = 0; e < p.num_global_edges(); ++e)
    expect_maximal_runs(p.instances_on_edge(e), "edge " + std::to_string(e));
}

TEST(Problem, StoresMaximalRunsNoLongerThanTheIds) {
  {
    SCOPED_TRACE("tree");
    expect_compact_store(testutil::small_tree_problem(4, 24, 2, 12), false);
  }
  {
    SCOPED_TRACE("caterpillar");
    const Problem caterpillar = caterpillar_problem(4);
    expect_compact_store(caterpillar, false);
    expect_compact_store(rebuilt_in_batches(caterpillar, false, 5), false);
  }
  {
    SCOPED_TRACE("line switching resources");
    const Problem switching = switching_line_problem();
    expect_compact_store(switching, true);
    expect_compact_store(rebuilt_in_batches(switching, true, 5), true);
  }
  SCOPED_TRACE("line");
  const Problem line =
      testutil::small_line_problem(7, 24, 2, 8, HeightLaw::kUnit, 3.0);
  expect_compact_store(line, true);
  // A line placement is one run of two entries, and a line bucket holds
  // far fewer runs than ids: a demand's placements that cover an edge
  // have consecutive ids.
  std::size_t ids = 0, entries = 0;
  for (EdgeId e = 0; e < line.num_global_edges(); ++e) {
    ids += line.instances_on_edge(e).size();
    entries += line.instances_on_edge(e).entries().size();
  }
  EXPECT_LT(2 * entries, ids);
  SCOPED_TRACE("line, appended over 5 reopens");
  expect_compact_store(rebuilt_in_batches(line, /*manual=*/true, 5), true);
  // One resource: d0's last placement (slots 4-7) and d1's first (slots
  // 4-5) have consecutive ids and share slot 4, so the bucket run of slot
  // 4 spans both demands, and the reopen that appends d1 must extend it.
  SCOPED_TRACE("a run across a reopen");
  LineProblem spanning(8, 1);
  spanning.add_demand(0, 7, 4, 1.0);
  spanning.add_demand(4, 7, 2, 1.0);
  const Problem fresh = spanning.lower();
  const Problem grown = rebuilt_in_batches(fresh, /*manual=*/true, 2);
  expect_compact_store(grown, true);
  expect_same_store(grown, fresh);
}

TEST(Problem, AddInstanceRejectsBadEndpoints) {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(4));
  Problem p(4, std::move(networks));
  const DemandId d = p.add_demand(0, 1, 1.0);
  EXPECT_THROW(p.add_instance(d, 0, 2, 2), std::invalid_argument);  // empty
  EXPECT_THROW(p.add_instance(d, 0, 0, 4), std::invalid_argument);  // range
  EXPECT_THROW(p.add_instance(d, 0, -1, 1), std::invalid_argument);
  EXPECT_EQ(p.add_instance(d, 0, 3, 1), 0);
  p.finalize();
  // A path walked from the deeper end comes out sorted too.
  EXPECT_EQ(testutil::path_of(p, 0), (std::vector<EdgeId>{1, 2}));
}

TEST(Problem, SummaryStatistics) {
  const Problem p = two_network_problem();
  EXPECT_DOUBLE_EQ(p.max_profit(), 10.0);
  EXPECT_DOUBLE_EQ(p.min_profit(), 2.0);
  EXPECT_DOUBLE_EQ(p.min_height(), 0.5);
  EXPECT_DOUBLE_EQ(p.max_height(), 1.0);
  EXPECT_FALSE(p.unit_height());
  EXPECT_EQ(p.max_path_length(), 3);
  EXPECT_EQ(p.min_path_length(), 1);
}

TEST(Problem, ValidationErrors) {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(4));
  Problem p(4, std::move(networks));
  EXPECT_THROW(p.add_demand(0, 0, 1.0), std::invalid_argument);   // u == v
  EXPECT_THROW(p.add_demand(0, 9, 1.0), std::invalid_argument);   // range
  EXPECT_THROW(p.add_demand(0, 1, -1.0), std::invalid_argument);  // profit
  EXPECT_THROW(p.add_demand(0, 1, 1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(p.add_demand(0, 1, 1.0, 0.0), std::invalid_argument);
  const DemandId d = p.add_demand(0, 1, 1.0);
  EXPECT_THROW(p.set_access(d, {}), std::invalid_argument);
  EXPECT_THROW(p.set_access(d, {7}), std::invalid_argument);
  EXPECT_THROW(p.set_capacity(0, 0, 0.0), std::invalid_argument);
}

// Records restored from a snapshot reach add_demand without a batch's
// admission checks, so the model itself rejects a profit that is not
// finite.
TEST(Problem, RejectsNonFiniteProfit) {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(4));
  Problem p(4, std::move(networks));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(p.add_demand(0, 1, kInf), std::invalid_argument);
  EXPECT_THROW(p.add_demand(0, 1, -kInf), std::invalid_argument);
  EXPECT_THROW(p.add_demand(0, 1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(p.num_demands(), 0);
}

TEST(Problem, NetworksMustShareVertexSet) {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(4));
  networks.push_back(TreeNetwork::line(5));
  EXPECT_THROW(Problem(4, std::move(networks)), std::invalid_argument);
}

TEST(Problem, CapacitiesStored) {
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(4));
  Problem p(4, std::move(networks));
  p.set_uniform_capacity(2.0);
  p.set_capacity(0, 1, 5.0);
  p.add_demand(0, 3, 1.0);
  p.finalize();
  EXPECT_DOUBLE_EQ(p.capacity(0), 2.0);
  EXPECT_DOUBLE_EQ(p.capacity(1), 5.0);
  EXPECT_DOUBLE_EQ(p.min_capacity(), 2.0);
  EXPECT_DOUBLE_EQ(p.max_capacity(), 5.0);
}

}  // namespace
}  // namespace treesched
