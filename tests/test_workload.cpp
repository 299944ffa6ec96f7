#include "workload/scenario.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "workload/line_gen.hpp"
#include "workload/tree_gen.hpp"

namespace treesched {
namespace {

TEST(TreeGen, AllShapesProduceValidTrees) {
  // TreeNetwork's constructor validates connectivity/acyclicity, so
  // construction succeeding is the core check; we add shape signatures.
  Rng rng(1);
  for (TreeShape shape : kAllTreeShapes) {
    const TreeNetwork t = make_tree(shape, 40, rng);
    EXPECT_EQ(t.num_vertices(), 40);
    EXPECT_EQ(t.num_edges(), 39);
  }
}

TEST(TreeGen, ShapeSignatures) {
  Rng rng(2);
  const TreeNetwork star = make_tree(TreeShape::kStar, 20, rng);
  EXPECT_EQ(star.degree(0), 19);
  const TreeNetwork path = make_tree(TreeShape::kPath, 20, rng);
  EXPECT_EQ(path.degree(0), 1);
  EXPECT_EQ(path.degree(10), 2);
  const TreeNetwork binary = make_tree(TreeShape::kBinary, 15, rng);
  EXPECT_LE(binary.depth(14), 4);
}

TEST(TreeGen, IdenticalNetworksShareTopology) {
  Rng rng(3);
  const auto nets = make_networks(TreeShape::kRandomAttachment, 30, 3, rng,
                                  /*identical=*/true);
  ASSERT_EQ(nets.size(), 3u);
  for (EdgeId e = 0; e < nets[0].num_edges(); ++e) {
    EXPECT_EQ(nets[0].edge_u(e), nets[1].edge_u(e));
    EXPECT_EQ(nets[0].edge_v(e), nets[2].edge_v(e));
  }
}

TEST(DemandGen, HeightLawsRespected) {
  for (HeightLaw law : {HeightLaw::kUnit, HeightLaw::kUniformRange,
                        HeightLaw::kBimodal, HeightLaw::kNarrowOnly}) {
    TreeScenarioSpec spec;
    spec.num_vertices = 30;
    spec.demands.num_demands = 40;
    spec.demands.heights = law;
    spec.demands.height_min = 0.2;
    spec.seed = 7;
    const Problem p = make_tree_problem(spec);
    for (DemandId d = 0; d < p.num_demands(); ++d) {
      const Height h = p.demand(d).height;
      EXPECT_GT(h, 0.0);
      EXPECT_LE(h, 1.0 + kEps);
      if (law == HeightLaw::kUnit) {
        EXPECT_DOUBLE_EQ(h, 1.0);
      }
      if (law == HeightLaw::kNarrowOnly) {
        EXPECT_LE(h, 0.5 + kEps);
      }
      if (law != HeightLaw::kUnit) {
        EXPECT_GE(h, 0.2 - kEps);
      }
    }
    if (law == HeightLaw::kBimodal) {
      int wide = 0;
      for (DemandId d = 0; d < p.num_demands(); ++d)
        wide += (p.demand(d).height > 0.5);
      EXPECT_GT(wide, 5);
      EXPECT_LT(wide, 35);
    }
  }
}

TEST(DemandGen, AccessSizeRestrictsNetworks) {
  TreeScenarioSpec spec;
  spec.num_vertices = 20;
  spec.num_networks = 4;
  spec.demands.num_demands = 20;
  spec.demands.access_size = 2;
  spec.seed = 9;
  const Problem p = make_tree_problem(spec);
  for (DemandId d = 0; d < p.num_demands(); ++d)
    EXPECT_EQ(p.access(d).size(), 2u);
  EXPECT_EQ(p.num_instances(), 40);
}

TEST(DemandGen, LocalPairsStayLocal) {
  TreeScenarioSpec spec;
  spec.num_vertices = 60;
  spec.demands.num_demands = 30;
  spec.demands.endpoints = EndpointLaw::kLocalPair;
  spec.demands.locality = 3;
  spec.seed = 11;
  const Problem p = make_tree_problem(spec);
  int local = 0;
  for (DemandId d = 0; d < p.num_demands(); ++d) {
    const Demand& dem = p.demand(d);
    if (p.network(0).dist(dem.u, dem.v) <= 3) ++local;
  }
  EXPECT_GE(local, 25);  // fallback to uniform is rare
}

TEST(DemandGen, LeafToLeafUsesLeaves) {
  TreeScenarioSpec spec;
  spec.shape = TreeShape::kBinary;
  spec.num_vertices = 31;
  spec.num_networks = 1;
  spec.demands.num_demands = 20;
  spec.demands.endpoints = EndpointLaw::kLeafToLeaf;
  spec.seed = 13;
  const Problem p = make_tree_problem(spec);
  for (DemandId d = 0; d < p.num_demands(); ++d) {
    EXPECT_EQ(p.network(0).degree(p.demand(d).u), 1);
    EXPECT_EQ(p.network(0).degree(p.demand(d).v), 1);
  }
}

TEST(LineGen, WindowsRespectConfig) {
  LineGenConfig cfg;
  cfg.num_slots = 50;
  cfg.num_demands = 40;
  cfg.min_proc_time = 2;
  cfg.max_proc_time = 8;
  cfg.window_slack = 2.0;
  Rng rng(15);
  const LineProblem line = make_random_line_problem(cfg, rng);
  for (DemandId d = 0; d < line.num_demands(); ++d) {
    const LineDemand& ld = line.demand(d);
    EXPECT_GE(ld.proc_time, 2);
    EXPECT_LE(ld.proc_time, 8);
    EXPECT_GE(ld.release, 0);
    EXPECT_LT(ld.deadline, 50);
    EXPECT_LE(ld.proc_time, ld.deadline - ld.release + 1);
    // Window about twice the processing time.
    EXPECT_LE(ld.deadline - ld.release + 1, 2 * ld.proc_time + 1);
  }
}

TEST(LineGen, SlackOneMeansFixedPlacements) {
  LineGenConfig cfg;
  cfg.num_slots = 30;
  cfg.num_demands = 15;
  cfg.window_slack = 1.0;
  Rng rng(17);
  const LineProblem line = make_random_line_problem(cfg, rng);
  for (DemandId d = 0; d < line.num_demands(); ++d)
    EXPECT_EQ(line.num_starts(d), 1);
}

TEST(Scenario, BuildersProduceFinalizedProblems) {
  TreeScenarioSpec ts;
  ts.seed = 21;
  const Problem tp = make_tree_problem(ts);
  EXPECT_TRUE(tp.finalized());
  EXPECT_FALSE(describe(ts).empty());

  LineScenarioSpec ls;
  ls.seed = 22;
  const Problem lp = make_line_problem(ls);
  EXPECT_TRUE(lp.finalized());
  EXPECT_FALSE(describe(ls).empty());
}

TEST(Scenario, DeterministicBySeed) {
  TreeScenarioSpec spec;
  spec.seed = 33;
  const Problem a = make_tree_problem(spec);
  const Problem b = make_tree_problem(spec);
  ASSERT_EQ(a.num_instances(), b.num_instances());
  for (InstanceId i = 0; i < a.num_instances(); ++i) {
    EXPECT_EQ(testutil::path_of(a, i), testutil::path_of(b, i));
    EXPECT_DOUBLE_EQ(a.instance(i).profit, b.instance(i).profit);
  }
}

}  // namespace
}  // namespace treesched
