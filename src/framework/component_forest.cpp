#include "framework/component_forest.hpp"

#include "obs/trace.hpp"

namespace treesched {

int ComponentForest::find(int x) {
  // Path halving; unite keeps every root at its set's smallest id.
  while (parent_[static_cast<std::size_t>(x)] != x) {
    parent_[static_cast<std::size_t>(x)] =
        parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
    x = parent_[static_cast<std::size_t>(x)];
  }
  return x;
}

void ComponentForest::unite(int a, int b) {
  a = find(a);
  b = find(b);
  if (a == b) return;
  // Smaller id becomes the root: the canonical representative flatten()
  // orders components by.
  if (a < b)
    parent_[static_cast<std::size_t>(b)] = a;
  else
    parent_[static_cast<std::size_t>(a)] = b;
}

void ComponentForest::chain(const Problem& problem, InstanceId i) {
  const DemandInstance& inst = problem.instance(i);
  const auto d = static_cast<std::size_t>(inst.demand);
  if (demand_stamp_[d] == walk_stamp_) unite(i, demand_last_[d]);
  demand_stamp_[d] = walk_stamp_;
  demand_last_[d] = i;
  for (EdgeId e : inst.edges) {
    const auto ge = static_cast<std::size_t>(e);
    if (edge_stamp_[ge] == walk_stamp_) unite(i, edge_last_[ge]);
    edge_stamp_[ge] = walk_stamp_;
    edge_last_[ge] = i;
  }
}

void ComponentForest::flatten(const std::vector<char>& active_mask) {
  // Every root is its component's smallest id, so an ascending scan meets
  // a component's root before its other members: components are numbered
  // by smallest id, and every other member reads its root's number.
  const std::size_t n = active_mask.size();
  comp_of_member_.assign(n, -1);
  comp_member_begin_.assign(1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!active_mask[i]) continue;
    const auto root = static_cast<std::size_t>(find(static_cast<int>(i)));
    if (root == i) {
      comp_of_member_[i] = num_components();
      comp_member_begin_.push_back(0);
    } else {
      comp_of_member_[i] = comp_of_member_[root];
    }
    ++comp_member_begin_[static_cast<std::size_t>(comp_of_member_[i]) + 1];
  }
  for (std::size_t c = 1; c < comp_member_begin_.size(); ++c)
    comp_member_begin_[c] += comp_member_begin_[c - 1];
  member_ids_.resize(static_cast<std::size_t>(comp_member_begin_.back()));
  std::vector<std::int64_t> cursor(comp_member_begin_.begin(),
                                   comp_member_begin_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const int c = comp_of_member_[i];
    if (c < 0) continue;
    member_ids_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(c)]++)] = static_cast<InstanceId>(i);
  }
}

void ComponentForest::build(const Problem& problem,
                            const std::vector<char>& active_mask) {
  TRACE_SPAN1("forest", "build", "instances", problem.num_instances());
  TS_REQUIRE(problem.finalized());
  const int n = problem.num_instances();
  TS_REQUIRE(active_mask.size() == static_cast<std::size_t>(n));

  parent_.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i)
    if (active_mask[static_cast<std::size_t>(i)])
      parent_[static_cast<std::size_t>(i)] = i;
  edge_last_.assign(static_cast<std::size_t>(problem.num_global_edges()), -1);
  edge_stamp_.assign(edge_last_.size(), 0);
  demand_last_.assign(static_cast<std::size_t>(problem.num_demands()), -1);
  demand_stamp_.assign(demand_last_.size(), 0);
  walk_stamp_ = 1;
  for (InstanceId i = 0; i < n; ++i)
    if (active_mask[static_cast<std::size_t>(i)]) chain(problem, i);
  flatten(active_mask);
  built_ = true;
}

void ComponentForest::update(const Problem& problem,
                             const std::vector<char>& active_mask,
                             std::span<const InstanceId> added,
                             std::span<const InstanceId> removed) {
  if (!built_) {
    build(problem, active_mask);
    return;
  }
  TRACE_SPAN2("forest", "update", "added", added.size(), "removed",
              removed.size());
  TS_REQUIRE(problem.finalized());
  const int n = problem.num_instances();
  TS_REQUIRE(active_mask.size() == static_cast<std::size_t>(n));

  // The problem grows by append (online arrivals materialize as new
  // instance ids past the old count); id-indexed scratch grows with it.
  parent_.resize(static_cast<std::size_t>(n), -1);
  comp_of_member_.resize(static_cast<std::size_t>(n), -1);
  edge_last_.resize(static_cast<std::size_t>(problem.num_global_edges()), -1);
  edge_stamp_.resize(edge_last_.size(), 0);
  demand_last_.resize(static_cast<std::size_t>(problem.num_demands()), -1);
  demand_stamp_.resize(demand_last_.size(), 0);
  if (added.empty() && removed.empty()) return;

  // Delta marking.  A removed member dirties its own component (it may
  // split); an added instance dirties every old component it shares an
  // edge or a demand with (they may merge with it).  Everything else is
  // provably disjoint from the walked set: a clean member sharing an
  // edge/demand with a dirty member would have been in the same (dirty)
  // component, and one sharing with an added instance would have been
  // marked here.
  dirty_comp_.assign(static_cast<std::size_t>(num_components()), 0);
  const auto mark = [&](InstanceId k) {
    const int c = comp_of_member_[static_cast<std::size_t>(k)];
    if (c >= 0) dirty_comp_[static_cast<std::size_t>(c)] = 1;
  };
  for (InstanceId r : removed) {
    TS_DCHECK(!active_mask[static_cast<std::size_t>(r)]);
    mark(r);
  }
  for (InstanceId a : added) {
    TS_DCHECK(active_mask[static_cast<std::size_t>(a)]);
    const DemandInstance& inst = problem.instance(a);
    for (InstanceId k : problem.instances_of_demand(inst.demand)) mark(k);
    for (EdgeId e : inst.edges)
      for (InstanceId k : problem.instances_on_edge(e)) mark(k);
  }

  // Re-partition: reset, chain-unite the clean components straight from
  // their old member lists (no path walks), then path-walk only the
  // dirty and new members against each other.
  for (int i = 0; i < n; ++i)
    parent_[static_cast<std::size_t>(i)] =
        active_mask[static_cast<std::size_t>(i)] ? i : -1;
  for (int c = 0; c < num_components(); ++c) {
    if (dirty_comp_[static_cast<std::size_t>(c)]) continue;
    const auto ids = component_members(c);
    for (std::size_t k = 1; k < ids.size(); ++k) unite(ids[k], ids.front());
  }
  ++walk_stamp_;
  for (InstanceId i = 0; i < n; ++i) {
    if (!active_mask[static_cast<std::size_t>(i)]) continue;
    const int old = comp_of_member_[static_cast<std::size_t>(i)];
    if (old >= 0 && !dirty_comp_[static_cast<std::size_t>(old)]) continue;
    chain(problem, i);
  }
  flatten(active_mask);
}

}  // namespace treesched
