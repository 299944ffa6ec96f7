#include "decomp/layered.hpp"

#include <algorithm>
#include <sstream>

namespace treesched {

namespace {

// Appends the global ids of the path edges adjacent to vertex y ("wings of
// y on path(d)", paper Section 4.4).  `pathv` are the path vertices in
// order; `offset` maps local edge ids of the network to global ids.
void add_wings(const TreeNetwork& network,
               const std::vector<VertexId>& pathv, VertexId y, EdgeId offset,
               std::vector<EdgeId>& out) {
  for (std::size_t k = 0; k < pathv.size(); ++k) {
    if (pathv[k] != y) continue;
    if (k > 0) {
      const EdgeId e = network.edge_between(pathv[k - 1], pathv[k]);
      TS_REQUIRE(e != kNoEdge);
      out.push_back(offset + e);
    }
    if (k + 1 < pathv.size()) {
      const EdgeId e = network.edge_between(pathv[k], pathv[k + 1]);
      TS_REQUIRE(e != kNoEdge);
      out.push_back(offset + e);
    }
    return;
  }
  TS_REQUIRE(false);  // y must lie on the path
}

// Closes the critical set of the next instance: sorts and dedups the edges
// appended to plan.critical_edges since the last offset and records its
// end.
void close_critical(LayeredPlan& plan) {
  const auto begin = plan.critical_edges.begin() +
                     static_cast<std::ptrdiff_t>(plan.critical_offset.back());
  std::sort(begin, plan.critical_edges.end());
  plan.critical_edges.erase(std::unique(begin, plan.critical_edges.end()),
                            plan.critical_edges.end());
  plan.critical_offset.push_back(
      static_cast<std::int64_t>(plan.critical_edges.size()));
}

void finalize_plan(const Problem& problem, LayeredPlan& plan,
                   InstanceId first = 0) {
  if (first == 0) {
    plan.delta = 0;
    plan.members.assign(static_cast<std::size_t>(plan.num_groups), {});
  }
  for (InstanceId i = first; i < problem.num_instances(); ++i) {
    plan.delta =
        std::max(plan.delta, static_cast<int>(plan.critical(i).size()));
    const int g = plan.group[static_cast<std::size_t>(i)];
    TS_REQUIRE(g >= 0 && g < plan.num_groups);
    plan.members[static_cast<std::size_t>(g)].push_back(i);
  }
}

// Fills plan.group[i] and appends pi(i) for one instance against the
// per-network decompositions (the Lemma 4.2/4.3 assignment).
void plan_tree_instance(const Problem& problem,
                        const std::vector<TreeDecomposition>& decomps,
                        bool mu_wings_only, InstanceId i,
                        LayeredPlan& plan) {
  const DemandInstance& inst = problem.instance(i);
  const TreeDecomposition& decomp =
      decomps[static_cast<std::size_t>(inst.network)];
  const TreeNetwork& network = problem.network(inst.network);
  const EdgeId offset = problem.global_edge(inst.network, 0);

  const auto pathv = network.path_vertices(inst.u, inst.v);
  const VertexId mu = decomp.capture(inst.u, inst.v);
  plan.group[static_cast<std::size_t>(i)] =
      decomp.max_depth() - decomp.depth(mu);

  add_wings(network, pathv, mu, offset, plan.critical_edges);
  if (!mu_wings_only) {
    for (VertexId u : decomp.pivots(mu)) {
      const VertexId bend = network.median(u, inst.u, inst.v);
      add_wings(network, pathv, bend, offset, plan.critical_edges);
    }
  }
  close_critical(plan);
}

}  // namespace

LayeredPlan build_tree_layered_plan(const Problem& problem, DecompKind kind,
                                    bool mu_wings_only) {
  // One decomposition per network; groups are indexed by capture depth
  // from the bottom (deepest captured = group 0 = raised first), so
  // G_k = union over networks of the k-th group (paper, Section 5).
  std::vector<TreeDecomposition> decomps;
  decomps.reserve(static_cast<std::size_t>(problem.num_networks()));
  for (NetworkId q = 0; q < problem.num_networks(); ++q)
    decomps.push_back(build_decomposition(problem.network(q), kind));
  return build_tree_layered_plan(problem, decomps, mu_wings_only);
}

LayeredPlan build_tree_layered_plan(
    const Problem& problem, const std::vector<TreeDecomposition>& decomps,
    bool mu_wings_only) {
  // An empty plan extended over every instance: the group count is the
  // only thing the extension does not derive.
  LayeredPlan plan;
  plan.num_groups = 1;
  for (const auto& d : decomps)
    plan.num_groups = std::max(plan.num_groups, d.max_depth());
  extend_tree_layered_plan(problem, decomps, plan, mu_wings_only);
  return plan;
}

void extend_tree_layered_plan(const Problem& problem,
                              const std::vector<TreeDecomposition>& decomps,
                              LayeredPlan& plan, bool mu_wings_only) {
  TS_REQUIRE(problem.finalized());
  TS_REQUIRE(static_cast<int>(decomps.size()) == problem.num_networks());
  const auto first = static_cast<InstanceId>(plan.group.size());
  TS_REQUIRE(first <= problem.num_instances());
  TS_REQUIRE(plan.critical_offset.size() == plan.group.size() + 1);
  // num_groups depends only on the decompositions, so appending
  // instances never changes it (and existing group ids stay valid).
  plan.group.resize(static_cast<std::size_t>(problem.num_instances()), 0);
  for (InstanceId i = first; i < problem.num_instances(); ++i)
    plan_tree_instance(problem, decomps, mu_wings_only, i, plan);
  // New ids exceed every existing id, so push_back keeps each group's
  // member list ascending — identical to a from-scratch build.
  finalize_plan(problem, plan, first);
}

LayeredPlan build_line_layered_plan(const Problem& problem) {
  TS_REQUIRE(problem.finalized());
  LayeredPlan plan;
  plan.group.assign(static_cast<std::size_t>(problem.num_instances()), 0);
  plan.critical_offset.reserve(
      static_cast<std::size_t>(problem.num_instances()) + 1);
  plan.critical_edges.reserve(
      3 * static_cast<std::size_t>(problem.num_instances()));

  const int lmin = problem.min_path_length();
  TS_REQUIRE(lmin >= 1);
  plan.num_groups = 1;
  for (InstanceId i = 0; i < problem.num_instances(); ++i) {
    const IdRuns path = problem.path(i);
    // Length class: group g holds lengths in [2^g * lmin, 2^(g+1) * lmin),
    // so lengths within a group differ by a factor < 2.
    const int len = static_cast<int>(path.size());
    int g = 0;
    while ((lmin << (g + 1)) <= len) ++g;
    plan.group[static_cast<std::size_t>(i)] = g;
    plan.num_groups = std::max(plan.num_groups, g + 1);

    // Instances of a line network have contiguous global edge ids; the
    // critical slots are the first, middle and last slot of the interval
    // (paper, Section 7: pi(d) = {s(d), mid(d), e(d)}).
    const EdgeId s = path.front();
    const EdgeId e = path.back();
    const EdgeId mid = (s + e) / 2;
    TS_REQUIRE(e - s + 1 == len);
    plan.critical_edges.insert(plan.critical_edges.end(), {s, mid, e});
    close_critical(plan);
  }
  finalize_plan(problem, plan);
  return plan;
}

std::optional<std::string> interference_violation(const Problem& problem,
                                                  const LayeredPlan& plan) {
  for (InstanceId a = 0; a < problem.num_instances(); ++a) {
    for (InstanceId b = 0; b < problem.num_instances(); ++b) {
      if (a == b) continue;
      // d1 = a raised no later than d2 = b (group(a) <= group(b)).
      if (plan.group[static_cast<std::size_t>(a)] >
          plan.group[static_cast<std::size_t>(b)])
        continue;
      if (!problem.overlap(a, b)) continue;
      const IdRuns path_b = problem.path(b);
      bool hit = false;
      for (EdgeId e : plan.critical(a)) {
        if (path_b.contains(e)) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        std::ostringstream os;
        os << "instances " << a << " (group "
           << plan.group[static_cast<std::size_t>(a)] << ") and " << b
           << " (group " << plan.group[static_cast<std::size_t>(b)]
           << ") overlap but path(" << b << ") misses pi(" << a << ")";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace treesched
