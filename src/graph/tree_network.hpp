// TreeNetwork: an undirected tree over the shared vertex set V (paper,
// Section 2).  Each of the r input networks is one of these.  The class
// provides the path primitives the decompositions and the scheduler need:
//
//  - LCA queries (binary lifting, O(log n));
//  - path extraction between any two vertices (the routing of a demand
//    instance is the unique tree path between its end-points), edge by
//    edge or as runs of consecutive edge ids;
//  - the *median* of three vertices: the unique vertex lying on all three
//    pairwise paths.  median(u, a, b) is exactly the "bending point" of the
//    path a~b with respect to u (paper, Section 4.4), and median(u1, u2, z)
//    is the "junction" of BuildIdealTD Case 2(b).
//
// Vertices are 0-based.  Edges are identified by a local EdgeId in
// [0, n-2]; the Problem class maps (network, local edge) pairs to global
// edge ids for the dual variables beta(e).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/prelude.hpp"

namespace treesched {

class TreeNetwork {
 public:
  struct Adj {
    VertexId to;
    EdgeId edge;
  };

  // Builds the tree and all query structures.  Requires exactly n-1 edges
  // forming a connected graph; throws std::invalid_argument otherwise.
  TreeNetwork(VertexId num_vertices,
              std::vector<std::pair<VertexId, VertexId>> edges);

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edge_u_.size()); }

  VertexId edge_u(EdgeId e) const { return edge_u_[check_edge(e)]; }
  VertexId edge_v(EdgeId e) const { return edge_v_[check_edge(e)]; }

  std::span<const Adj> neighbors(VertexId v) const {
    check_vertex(v);
    return {adj_[static_cast<std::size_t>(v)].data(),
            adj_[static_cast<std::size_t>(v)].size()};
  }
  int degree(VertexId v) const {
    check_vertex(v);
    return static_cast<int>(adj_[static_cast<std::size_t>(v)].size());
  }

  // Rooted-at-0 structure used internally for LCA; exposed because the
  // root-fixing decomposition and several tests reuse it.
  VertexId parent(VertexId v) const { check_vertex(v); return parent_[v]; }
  int depth(VertexId v) const { check_vertex(v); return depth_[v]; }

  // Lowest common ancestor w.r.t. the internal root (vertex 0).
  VertexId lca(VertexId u, VertexId v) const;

  // Number of edges on the unique u~v path.
  int dist(VertexId u, VertexId v) const;

  // True iff x lies on the unique u~v path (inclusive of endpoints).
  bool on_path(VertexId x, VertexId u, VertexId v) const;

  // The unique vertex on all three pairwise paths of {a, b, c}.
  VertexId median(VertexId a, VertexId b, VertexId c) const;

  // Edges of the u~v path, ordered from u towards v.  O(path length).
  std::vector<EdgeId> path_edges(VertexId u, VertexId v) const;

  // Calls f(first, last) once per run [first, last] of consecutive edge
  // ids on the u~v path.  The runs cover the path's edges exactly once,
  // in no particular order, and two of them may be id-adjacent, so a
  // caller that wants maximal runs sorts and merges them.  The walk
  // climbs a run at a time (see run_top_), so a path of the line network,
  // whose edge i joins vertices i and i + 1, is one run found in O(1).
  // O(runs on the path); no LCA query, no allocation.
  template <typename F>
  void for_each_path_run(VertexId u, VertexId v, F&& f) const;

  // Vertices of the u~v path, ordered from u towards v (inclusive).
  std::vector<VertexId> path_vertices(VertexId u, VertexId v) const;

  // EdgeId connecting u and v, or kNoEdge if they are not adjacent.
  EdgeId edge_between(VertexId u, VertexId v) const;

  // Convenience factory: the path network 0-1-2-...-(n-1).  Edge i joins
  // vertices i and i+1, so local EdgeId == timeslot index for line
  // networks (paper, Section 1 reformulation).
  static TreeNetwork line(VertexId num_vertices);

 private:
  VertexId check_vertex(VertexId v) const {
    TS_REQUIRE(v >= 0 && v < n_);
    return v;
  }
  EdgeId check_edge(EdgeId e) const {
    TS_REQUIRE(e >= 0 && e < num_edges());
    return e;
  }

  // The endpoint of e farther from the root.
  VertexId lower_end(EdgeId e) const {
    const VertexId a = edge_u_[static_cast<std::size_t>(e)];
    return parent_edge_[static_cast<std::size_t>(a)] == e
               ? a
               : edge_v_[static_cast<std::size_t>(e)];
  }

  VertexId n_ = 0;
  std::vector<VertexId> edge_u_, edge_v_;
  std::vector<std::vector<Adj>> adj_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  // run_top_[v]: the highest vertex t on the climb from v (v included)
  // whose parent edges, from t down to v, have ids that rise by one per
  // level, so climbing from v to parent(t) crosses one run of consecutive
  // ids.  The root is its own top.
  std::vector<VertexId> run_top_;
  std::vector<int> depth_;
  int log_ = 1;
  std::vector<std::vector<VertexId>> up_;  // up_[k][v]: 2^k-th ancestor
  std::unordered_map<std::uint64_t, EdgeId> edge_index_;

  static std::uint64_t edge_key(VertexId u, VertexId v);
};

template <typename F>
void TreeNetwork::for_each_path_run(VertexId u, VertexId v, F&& f) const {
  check_vertex(u);
  check_vertex(v);
  const auto at = [](VertexId x) { return static_cast<std::size_t>(x); };
  // Climbs x by the first m edges of its run, whose top is `top`: the ids
  // parent_edge_[x] - m + 1 .. parent_edge_[x].  Returns the vertex
  // reached, the parent of the top when m uses up the run.
  const auto climb = [&](VertexId x, VertexId top, int m) {
    const EdgeId e = parent_edge_[at(x)];
    f(static_cast<EdgeId>(e - m + 1), e);
    if (m == 1) return parent_[at(x)];
    return m == depth_[at(x)] - depth_[at(top)] + 1 ? parent_[at(top)]
                                                    : lower_end(e - m);
  };
  // The deeper endpoint climbs to the other's depth.
  for (int d = depth_[at(u)] - depth_[at(v)]; d > 0;) {
    const VertexId top = run_top_[at(u)];
    const int m = std::min(depth_[at(u)] - depth_[at(top)] + 1, d);
    u = climb(u, top, m);
    d -= m;
  }
  for (int d = depth_[at(v)] - depth_[at(u)]; d > 0;) {
    const VertexId top = run_top_[at(v)];
    const int m = std::min(depth_[at(v)] - depth_[at(top)] + 1, d);
    v = climb(v, top, m);
    d -= m;
  }
  // Two climbers at equal depth first meet at their LCA w.  At most one
  // of their runs continues past w, since both would have to give the
  // child of w the id after w's parent edge; so stepping both by the
  // shorter run never passes w, and they meet at the top of one's run.
  while (u != v) {
    const VertexId tu = run_top_[at(u)];
    const VertexId tv = run_top_[at(v)];
    const int m = std::min(depth_[at(u)] - depth_[at(tu)],
                           depth_[at(v)] - depth_[at(tv)]) +
                  1;
    u = climb(u, tu, m);
    v = climb(v, tv, m);
  }
}

}  // namespace treesched
