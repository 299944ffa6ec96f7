#include "graph/tree_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "workload/tree_gen.hpp"

namespace treesched {
namespace {

// A fixed 14-vertex tree in the spirit of the paper's Figure 6, used for
// deterministic bending-point checks.
TreeNetwork figure6_tree() {
  return TreeNetwork(
      14, {{0, 1}, {1, 3}, {1, 4}, {0, 2}, {2, 5}, {5, 6}, {4, 7},
           {7, 12}, {4, 8}, {8, 11}, {8, 9}, {9, 10}, {9, 13}});
}

TEST(TreeNetwork, LineFactory) {
  const TreeNetwork line = TreeNetwork::line(5);
  EXPECT_EQ(line.num_vertices(), 5);
  EXPECT_EQ(line.num_edges(), 4);
  for (EdgeId e = 0; e < 4; ++e) {
    EXPECT_EQ(line.edge_u(e), e);
    EXPECT_EQ(line.edge_v(e), e + 1);
  }
  EXPECT_EQ(line.dist(0, 4), 4);
  EXPECT_EQ(line.lca(0, 4), 0);
}

TEST(TreeNetwork, RejectsWrongEdgeCount) {
  EXPECT_THROW(TreeNetwork(3, {{0, 1}}), std::invalid_argument);
  EXPECT_THROW(TreeNetwork(2, {{0, 1}, {0, 1}}), std::invalid_argument);
}

TEST(TreeNetwork, RejectsDisconnected) {
  // 4 vertices, 3 edges, but with a cycle and an isolated vertex.
  EXPECT_THROW(TreeNetwork(4, {{0, 1}, {1, 2}, {2, 0}}),
               std::invalid_argument);
}

TEST(TreeNetwork, RejectsSelfLoopAndOutOfRange) {
  EXPECT_THROW(TreeNetwork(2, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(TreeNetwork(2, {{0, 5}}), std::invalid_argument);
}

TEST(TreeNetwork, LcaAndDistOnKnownTree) {
  // Tree: 0 has children 1 and 2; 1 has children 3 and 4; 2 has child 5.
  const TreeNetwork t(6, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}});
  EXPECT_EQ(t.lca(3, 4), 1);
  EXPECT_EQ(t.lca(3, 5), 0);
  EXPECT_EQ(t.lca(1, 3), 1);
  EXPECT_EQ(t.dist(3, 4), 2);
  EXPECT_EQ(t.dist(3, 5), 4);
  EXPECT_EQ(t.dist(0, 0), 0);
  EXPECT_TRUE(t.on_path(1, 3, 4));
  EXPECT_TRUE(t.on_path(0, 3, 5));
  EXPECT_FALSE(t.on_path(2, 3, 4));
}

TEST(TreeNetwork, PathEdgesMatchesDistAndEndpoints) {
  // Every ordered pair, u == v included, on two trees.
  for (const TreeNetwork& t :
       {TreeNetwork(6, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}}),
        figure6_tree()}) {
    for (VertexId u = 0; u < t.num_vertices(); ++u) {
      for (VertexId v = 0; v < t.num_vertices(); ++v) {
        const auto edges = t.path_edges(u, v);
        EXPECT_EQ(static_cast<int>(edges.size()), t.dist(u, v));
        const auto verts = t.path_vertices(u, v);
        ASSERT_EQ(verts.size(), edges.size() + 1);
        EXPECT_EQ(verts.front(), u);
        EXPECT_EQ(verts.back(), v);
        // Consecutive path vertices must be joined by the listed edges.
        for (std::size_t k = 0; k + 1 < verts.size(); ++k) {
          EXPECT_EQ(t.edge_between(verts[k], verts[k + 1]), edges[k])
              << u << "~" << v << " edge " << k;
        }
      }
    }
  }
}

TEST(TreeNetwork, EdgeBetween) {
  const TreeNetwork t(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(t.edge_between(0, 1), 0);
  EXPECT_EQ(t.edge_between(1, 0), 0);
  EXPECT_EQ(t.edge_between(0, 2), kNoEdge);
}

TEST(TreeNetwork, MedianDefinition) {
  const TreeNetwork t(6, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}});
  // Median must lie on all three pairwise paths.
  for (VertexId a = 0; a < 6; ++a) {
    for (VertexId b = 0; b < 6; ++b) {
      for (VertexId c = 0; c < 6; ++c) {
        const VertexId m = t.median(a, b, c);
        EXPECT_TRUE(t.on_path(m, a, b));
        EXPECT_TRUE(t.on_path(m, b, c));
        EXPECT_TRUE(t.on_path(m, a, c));
      }
    }
  }
}

TEST(TreeNetwork, Figure6PaperQueries) {
  // Paper Figure 6 (0-based): the demand <4,13> has bending point 2 w.r.t.
  // node 3 — we spot-check our own fixed tree's invariants instead of the
  // exact drawing: the projection of any vertex onto a path is unique.
  const TreeNetwork t = figure6_tree();
  for (VertexId u = 0; u < t.num_vertices(); ++u) {
    const VertexId bend = t.median(u, 3, 13);
    EXPECT_TRUE(t.on_path(bend, 3, 13));
    // Bending-point property: the u~bend path meets the demand path only
    // at bend.
    for (VertexId x : t.path_vertices(u, bend)) {
      if (x != bend) {
        EXPECT_FALSE(t.on_path(x, 3, 13));
      }
    }
  }
}

// --- paths as runs ---------------------------------------------------------

using Runs = std::vector<std::pair<EdgeId, EdgeId>>;

// Merges id-adjacent runs of an ascending, disjoint run list.
Runs merged(Runs runs) {
  Runs out;
  for (const auto& r : runs) {
    if (!out.empty() && r.first == out.back().second + 1)
      out.back().second = r.second;
    else
      out.push_back(r);
  }
  return out;
}

// The runs for_each_path_run yields, as it yields them.
Runs path_runs(const TreeNetwork& t, VertexId u, VertexId v) {
  Runs runs;
  t.for_each_path_run(u, v, [&](EdgeId first, EdgeId last) {
    runs.emplace_back(first, last);
  });
  return runs;
}

// The maximal runs of the sorted path_edges.
Runs runs_of_path_edges(const TreeNetwork& t, VertexId u, VertexId v) {
  std::vector<EdgeId> ids = t.path_edges(u, v);
  std::sort(ids.begin(), ids.end());
  Runs runs;
  for (const EdgeId e : ids) runs.emplace_back(e, e);
  return merged(runs);
}

// For every ordered pair, u == v included: the query's runs are
// well-formed and disjoint, and sorted and merged they are the maximal
// runs of the path's edges.
void expect_path_runs_match_path_edges(const TreeNetwork& t) {
  for (VertexId u = 0; u < t.num_vertices(); ++u) {
    for (VertexId v = 0; v < t.num_vertices(); ++v) {
      Runs runs = path_runs(t, u, v);
      std::sort(runs.begin(), runs.end());
      for (std::size_t k = 0; k < runs.size(); ++k) {
        EXPECT_LE(runs[k].first, runs[k].second) << u << "~" << v;
        if (k > 0) {
          EXPECT_GT(runs[k].first, runs[k - 1].second) << u << "~" << v;
        }
      }
      EXPECT_EQ(merged(runs), runs_of_path_edges(t, u, v)) << u << "~" << v;
    }
  }
}

TEST(TreeNetwork, PathRunsMatchPathEdgesOnEveryShape) {
  for (const TreeShape shape : kAllTreeShapes) {
    for (const std::uint64_t seed : {1, 2}) {
      SCOPED_TRACE(std::string(to_string(shape)) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      expect_path_runs_match_path_edges(make_tree(shape, 40, rng));
    }
  }
  expect_path_runs_match_path_edges(figure6_tree());
}

TEST(TreeNetwork, LinePathIsOneRun) {
  const TreeNetwork line = TreeNetwork::line(12);
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = 0; v < 12; ++v) {
      if (u == v) continue;
      EXPECT_EQ(path_runs(line, u, v),
                (Runs{{std::min(u, v), std::max(u, v) - 1}}))
          << u << "~" << v;
    }
  }
}

TEST(TreeNetwork, LineNumberedFromTheFarEndClimbsLoneRuns) {
  // Edge i joins vertices 10 - i and 11 - i: rooted at 0, the parent
  // edge ids fall by one per level down, so no climb continues a run and
  // every edge comes out alone; merged, a path is still one run.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < 11; ++i) edges.emplace_back(10 - i, 11 - i);
  const TreeNetwork t(12, std::move(edges));
  expect_path_runs_match_path_edges(t);
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = 0; v < 12; ++v) {
      const Runs runs = path_runs(t, u, v);
      EXPECT_EQ(static_cast<int>(runs.size()), t.dist(u, v));
      for (const auto& r : runs) EXPECT_EQ(r.first, r.second);
    }
  }
}

TEST(TreeNetwork, RunsOfTwoClimbsMergeIntoOne) {
  // Two arms hang off the root: 0-1-2 on edges 0 and 1, 0-3-4 on edges 2
  // and 3.  The climbs from 2 and 4 yield [0, 1] and [2, 3], which merge
  // into the one maximal run [0, 3].
  const TreeNetwork t(5, {{0, 1}, {1, 2}, {0, 3}, {3, 4}});
  Runs runs = path_runs(t, 2, 4);
  std::sort(runs.begin(), runs.end());
  EXPECT_EQ(runs, (Runs{{0, 1}, {2, 3}}));
  EXPECT_EQ(merged(runs), (Runs{{0, 3}}));
  expect_path_runs_match_path_edges(t);
}

// Property sweep: path arithmetic on random trees of all shapes.
class TreeNetworkProperty
    : public ::testing::TestWithParam<std::tuple<TreeShape, int>> {};

TEST_P(TreeNetworkProperty, PathInvariants) {
  const auto [shape, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const TreeNetwork t = make_tree(shape, 60, rng);
  for (int it = 0; it < 50; ++it) {
    const auto u = static_cast<VertexId>(rng.next_below(60));
    const auto v = static_cast<VertexId>(rng.next_below(60));
    const auto verts = t.path_vertices(u, v);
    EXPECT_EQ(verts.front(), u);
    EXPECT_EQ(verts.back(), v);
    EXPECT_EQ(static_cast<int>(verts.size()) - 1, t.dist(u, v));
    // Every path vertex is on the path; depth identity for LCA.
    const VertexId w = t.lca(u, v);
    EXPECT_TRUE(t.on_path(w, u, v));
    EXPECT_EQ(t.dist(u, v), t.dist(u, w) + t.dist(w, v));
    // Median of (u, v, any) lies on the u~v path.
    const auto z = static_cast<VertexId>(rng.next_below(60));
    EXPECT_TRUE(t.on_path(t.median(z, u, v), u, v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeNetworkProperty,
    ::testing::Combine(::testing::ValuesIn(kAllTreeShapes),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace treesched
