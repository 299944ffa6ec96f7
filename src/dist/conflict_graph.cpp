#include "dist/conflict_graph.hpp"

#include <algorithm>

namespace treesched {

ConflictGraph::ConflictGraph(const Problem& problem,
                             std::span<const InstanceId> members)
    : vertices_(members.begin(), members.end()),
      adjacency_(members.size()) {
  // Instance -> vertex index (kNoInstance for non-members).
  std::vector<int> vertex_of(static_cast<std::size_t>(problem.num_instances()),
                             -1);
  for (int v = 0; v < size(); ++v) {
    const InstanceId i = vertices_[static_cast<std::size_t>(v)];
    TS_REQUIRE(i >= 0 && i < problem.num_instances());
    TS_REQUIRE(vertex_of[static_cast<std::size_t>(i)] == -1);  // distinct
    vertex_of[static_cast<std::size_t>(i)] = v;
  }

  // Neighbors of v = members sharing an edge with v's path, or members
  // that are sibling instances of v's demand.  The per-edge and
  // per-demand indexes of Problem make this a bucket scan rather than an
  // all-pairs conflict test.
  std::vector<int> seen(vertices_.size(), -1);
  for (int v = 0; v < size(); ++v) {
    const DemandInstance& inst =
        problem.instance(vertices_[static_cast<std::size_t>(v)]);
    auto add_neighbor = [&](InstanceId other) {
      const int u = vertex_of[static_cast<std::size_t>(other)];
      if (u < 0 || u == v) return;
      if (seen[static_cast<std::size_t>(u)] == v) return;
      seen[static_cast<std::size_t>(u)] = v;
      adjacency_[static_cast<std::size_t>(v)].push_back(u);
    };
    for (EdgeId e : problem.path(inst.id))
      for (InstanceId other : problem.instances_on_edge(e)) add_neighbor(other);
    for (InstanceId other : problem.instances_of_demand(inst.demand))
      add_neighbor(other);
  }

  for (auto& list : adjacency_) {
    std::sort(list.begin(), list.end());
    num_edges_ += static_cast<std::int64_t>(list.size());
    max_degree_ = std::max(max_degree_, static_cast<int>(list.size()));
  }
  num_edges_ /= 2;  // every edge counted from both ends
}

bool ConflictGraph::is_maximal_independent_set(
    const std::vector<int>& selected) const {
  std::vector<char> in_set(vertices_.size(), 0);
  for (int v : selected) {
    if (v < 0 || v >= size()) return false;
    if (in_set[static_cast<std::size_t>(v)]) return false;  // duplicate
    in_set[static_cast<std::size_t>(v)] = 1;
  }
  for (int v : selected)
    for (int u : neighbors(v))
      if (in_set[static_cast<std::size_t>(u)]) return false;  // not independent
  for (int v = 0; v < size(); ++v) {
    if (in_set[static_cast<std::size_t>(v)]) continue;
    bool dominated = false;
    for (int u : neighbors(v)) {
      if (in_set[static_cast<std::size_t>(u)]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;  // not maximal
  }
  return true;
}

}  // namespace treesched
