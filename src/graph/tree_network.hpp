// TreeNetwork: an undirected tree over the shared vertex set V (paper,
// Section 2).  Each of the r input networks is one of these.  The class
// provides the path primitives the decompositions and the scheduler need:
//
//  - LCA queries (binary lifting, O(log n));
//  - path extraction between any two vertices (the routing of a demand
//    instance is the unique tree path between its end-points);
//  - the *median* of three vertices: the unique vertex lying on all three
//    pairwise paths.  median(u, a, b) is exactly the "bending point" of the
//    path a~b with respect to u (paper, Section 4.4), and median(u1, u2, z)
//    is the "junction" of BuildIdealTD Case 2(b).
//
// Vertices are 0-based.  Edges are identified by a local EdgeId in
// [0, n-2]; the Problem class maps (network, local edge) pairs to global
// edge ids for the dual variables beta(e).
#pragma once

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

  // Writes the edges of the u~v path into `out`, ordered from u towards
  // v.  `out` must hold exactly dist(u, v) entries.  The walk climbs from
  // both endpoints and fills `out` from both ends, so it needs no LCA
  // query and allocates nothing.  O(path length).
  void write_path_edges(VertexId u, VertexId v, std::span<EdgeId> out) const;

  // Edges of the u~v path, ordered from u towards v: write_path_edges
  // into a vector of the right size.
  std::vector<EdgeId> path_edges(VertexId u, VertexId v) const;

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

  VertexId n_ = 0;
  std::vector<VertexId> edge_u_, edge_v_;
  std::vector<std::vector<Adj>> adj_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<int> depth_;
  int log_ = 1;
  std::vector<std::vector<VertexId>> up_;  // up_[k][v]: 2^k-th ancestor
  std::unordered_map<std::uint64_t, EdgeId> edge_index_;

  static std::uint64_t edge_key(VertexId u, VertexId v);
};

}  // namespace treesched
