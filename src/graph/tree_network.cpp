#include "graph/tree_network.hpp"

#include <algorithm>

namespace treesched {

std::uint64_t TreeNetwork::edge_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

TreeNetwork::TreeNetwork(VertexId num_vertices,
                         std::vector<std::pair<VertexId, VertexId>> edges)
    : n_(num_vertices) {
  check_input(n_ >= 1, "tree network needs at least one vertex");
  check_input(static_cast<VertexId>(edges.size()) == n_ - 1,
              "tree network needs exactly n-1 edges");

  adj_.resize(static_cast<std::size_t>(n_));
  edge_u_.reserve(edges.size());
  edge_v_.reserve(edges.size());
  for (EdgeId e = 0; e < static_cast<EdgeId>(edges.size()); ++e) {
    const auto [u, v] = edges[static_cast<std::size_t>(e)];
    check_input(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
                "edge endpoints out of range");
    check_input(!edge_index_.contains(edge_key(u, v)), "duplicate edge");
    edge_u_.push_back(u);
    edge_v_.push_back(v);
    adj_[static_cast<std::size_t>(u)].push_back({v, e});
    adj_[static_cast<std::size_t>(v)].push_back({u, e});
    edge_index_.emplace(edge_key(u, v), e);
  }

  // BFS from vertex 0: parents, depths, run tops, connectivity check.  A
  // child joins its parent's run when its parent edge's id is one more
  // than the parent's (the root has no parent edge to continue).
  parent_.assign(static_cast<std::size_t>(n_), kNoVertex);
  parent_edge_.assign(static_cast<std::size_t>(n_), kNoEdge);
  run_top_.assign(static_cast<std::size_t>(n_), 0);
  depth_.assign(static_cast<std::size_t>(n_), -1);
  std::vector<VertexId> queue;
  queue.reserve(static_cast<std::size_t>(n_));
  queue.push_back(0);
  depth_[0] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    for (const Adj& a : adj_[static_cast<std::size_t>(v)]) {
      const auto c = static_cast<std::size_t>(a.to);
      if (depth_[c] < 0) {
        depth_[c] = depth_[v] + 1;
        parent_[c] = v;
        parent_edge_[c] = a.edge;
        run_top_[c] = v != 0 && a.edge == parent_edge_[v] + 1 ? run_top_[v]
                                                               : a.to;
        queue.push_back(a.to);
      }
    }
  }
  check_input(static_cast<VertexId>(queue.size()) == n_,
              "tree network must be connected");

  // Binary lifting table.
  log_ = 1;
  while ((1 << log_) < n_) ++log_;
  up_.assign(static_cast<std::size_t>(log_ + 1),
             std::vector<VertexId>(static_cast<std::size_t>(n_), 0));
  for (VertexId v = 0; v < n_; ++v)
    up_[0][static_cast<std::size_t>(v)] = (parent_[v] == kNoVertex) ? v
                                                                    : parent_[v];
  for (int k = 1; k <= log_; ++k)
    for (VertexId v = 0; v < n_; ++v)
      up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(v)] =
          up_[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(
              up_[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(
                  v)])];
}

VertexId TreeNetwork::lca(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  if (depth_[u] < depth_[v]) std::swap(u, v);
  int diff = depth_[u] - depth_[v];
  for (int k = 0; diff; ++k, diff >>= 1)
    if (diff & 1)
      u = up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(u)];
  if (u == v) return u;
  for (int k = log_; k >= 0; --k) {
    const VertexId uu =
        up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(u)];
    const VertexId vv =
        up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(v)];
    if (uu != vv) {
      u = uu;
      v = vv;
    }
  }
  return parent_[u];
}

int TreeNetwork::dist(VertexId u, VertexId v) const {
  const VertexId w = lca(u, v);
  return depth_[u] + depth_[v] - 2 * depth_[w];
}

bool TreeNetwork::on_path(VertexId x, VertexId u, VertexId v) const {
  return dist(u, x) + dist(x, v) == dist(u, v);
}

VertexId TreeNetwork::median(VertexId a, VertexId b, VertexId c) const {
  const VertexId x = lca(a, b);
  const VertexId y = lca(a, c);
  const VertexId z = lca(b, c);
  // Exactly two of the three LCAs coincide; the remaining (deepest) one is
  // the median.
  if (x == y) return z;
  if (x == z) return y;
  return x;
}

std::vector<EdgeId> TreeNetwork::path_edges(VertexId u, VertexId v) const {
  std::vector<EdgeId> out(static_cast<std::size_t>(dist(u, v)));
  // Climb the deeper endpoint to the other's depth, then both together
  // until they meet at the LCA: u's edges fill `out` from the front, v's
  // from the back.
  std::size_t front = 0;
  std::size_t back = out.size();
  for (int d = depth_[u] - depth_[v]; d > 0; --d) {
    TS_REQUIRE(front < back);
    out[front++] = parent_edge_[u];
    u = parent_[u];
  }
  for (int d = depth_[v] - depth_[u]; d > 0; --d) {
    TS_REQUIRE(front < back);
    out[--back] = parent_edge_[v];
    v = parent_[v];
  }
  while (u != v) {
    TS_REQUIRE(back - front >= 2);
    out[front++] = parent_edge_[u];
    u = parent_[u];
    out[--back] = parent_edge_[v];
    v = parent_[v];
  }
  TS_REQUIRE(front == back);
  return out;
}

std::vector<VertexId> TreeNetwork::path_vertices(VertexId u, VertexId v) const {
  const VertexId w = lca(u, v);
  std::vector<VertexId> front;
  VertexId x = u;
  while (x != w) {
    front.push_back(x);
    x = parent_[x];
  }
  front.push_back(w);
  std::vector<VertexId> back;
  x = v;
  while (x != w) {
    back.push_back(x);
    x = parent_[x];
  }
  front.insert(front.end(), back.rbegin(), back.rend());
  return front;
}

EdgeId TreeNetwork::edge_between(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  const auto it = edge_index_.find(edge_key(u, v));
  return it == edge_index_.end() ? kNoEdge : it->second;
}

TreeNetwork TreeNetwork::line(VertexId num_vertices) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(static_cast<std::size_t>(num_vertices - 1));
  for (VertexId i = 0; i + 1 < num_vertices; ++i) edges.emplace_back(i, i + 1);
  return TreeNetwork(num_vertices, std::move(edges));
}

}  // namespace treesched
