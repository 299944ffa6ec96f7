#include "framework/component_forest.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace treesched {

int ComponentForest::find(int x) {
  // Path halving; roots are canonicalized to the smallest id by unite
  // below, so find(i) of any member returns the component's minimum
  // active instance id.
  while (parent_[static_cast<std::size_t>(x)] != x) {
    parent_[static_cast<std::size_t>(x)] =
        parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
    x = parent_[static_cast<std::size_t>(x)];
  }
  return x;
}

void ComponentForest::build(const Problem& problem, const LayeredPlan& plan,
                            const std::vector<char>& active_mask) {
  TRACE_SPAN1("forest", "build", "instances", problem.num_instances());
  TS_REQUIRE(problem.finalized());
  const int n = problem.num_instances();
  TS_REQUIRE(plan.group.size() == static_cast<std::size_t>(n));
  TS_REQUIRE(active_mask.size() == static_cast<std::size_t>(n));
  num_groups_ = plan.num_groups;

  parent_.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i)
    if (active_mask[static_cast<std::size_t>(i)]) parent_[static_cast<std::size_t>(i)] = i;

  const auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Smaller id becomes the root: the canonical representative every
    // derived ordering below keys on.
    if (a < b)
      parent_[static_cast<std::size_t>(b)] = a;
    else
      parent_[static_cast<std::size_t>(a)] = b;
  };

  // Clique chaining over the active members' paths, group by group:
  // conflicts only matter *within* a group (an epoch processes one
  // group), so each per-edge / per-demand clique is chained per group,
  // stamped per group so the scratch never needs clearing.
  edge_last_.assign(static_cast<std::size_t>(problem.num_global_edges()), -1);
  edge_stamp_.assign(edge_last_.size(), 0);
  demand_last_.assign(static_cast<std::size_t>(problem.num_demands()), -1);
  demand_stamp_.assign(demand_last_.size(), 0);
  for (int g = 0; g < num_groups_; ++g) {
    const int walk_stamp = g + 1;
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const DemandInstance& inst = problem.instance(i);
      const auto d = static_cast<std::size_t>(inst.demand);
      if (demand_stamp_[d] == walk_stamp) unite(i, demand_last_[d]);
      demand_stamp_[d] = walk_stamp;
      demand_last_[d] = i;
      for (EdgeId e : inst.edges) {
        const auto ge = static_cast<std::size_t>(e);
        if (edge_stamp_[ge] == walk_stamp) unite(i, edge_last_[ge]);
        edge_stamp_[ge] = walk_stamp;
        edge_last_[ge] = i;
      }
    }
  }

  // Flatten per group: components ordered by first member rank, members
  // in ascending rank.  Two passes over the plan's member lists: count
  // component sizes, then fill with cursors.
  comp_of_root_.assign(static_cast<std::size_t>(n), -1);
  root_stamp_.assign(static_cast<std::size_t>(n), -1);
  group_first_comp_.assign(static_cast<std::size_t>(num_groups_) + 1, 0);
  std::vector<std::int64_t> comp_size;
  for (int g = 0; g < num_groups_; ++g) {
    int comps_here = 0;
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const auto root = static_cast<std::size_t>(find(i));
      if (root_stamp_[root] != g) {
        root_stamp_[root] = g;
        comp_of_root_[root] =
            group_first_comp_[static_cast<std::size_t>(g)] + comps_here;
        ++comps_here;
        comp_size.push_back(0);
      }
      ++comp_size[static_cast<std::size_t>(comp_of_root_[root])];
    }
    group_first_comp_[static_cast<std::size_t>(g) + 1] =
        group_first_comp_[static_cast<std::size_t>(g)] + comps_here;
  }

  const int total_comps = group_first_comp_[static_cast<std::size_t>(num_groups_)];
  comp_member_begin_.assign(static_cast<std::size_t>(total_comps) + 1, 0);
  for (int c = 0; c < total_comps; ++c)
    comp_member_begin_[static_cast<std::size_t>(c) + 1] =
        comp_member_begin_[static_cast<std::size_t>(c)] +
        comp_size[static_cast<std::size_t>(c)];
  member_ids_.resize(static_cast<std::size_t>(comp_member_begin_.back()));

  std::vector<std::int64_t> cursor(comp_member_begin_.begin(),
                                   comp_member_begin_.end() - 1);
  for (int g = 0; g < num_groups_; ++g) {
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const int c = comp_of_root_[static_cast<std::size_t>(find(i))];
      member_ids_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(c)]++)] = i;
    }
  }
  refill_member_index(n);
  // Build left stamps in [1, num_groups_] on the edge/demand scratch and
  // group ids in root_stamp_; update()'s monotone counter starts above
  // both so nothing ever needs re-clearing.
  update_stamp_ = num_groups_ + 1;
  built_ = true;
}

void ComponentForest::refill_member_index(int n) {
  comp_of_member_.assign(static_cast<std::size_t>(n), -1);
  const int comps = total_components();
  for (int c = 0; c < comps; ++c)
    for (InstanceId i : component_members(c))
      comp_of_member_[static_cast<std::size_t>(i)] = c;
}

void ComponentForest::update(const Problem& problem, const LayeredPlan& plan,
                             const std::vector<char>& active_mask,
                             std::span<const InstanceId> added,
                             std::span<const InstanceId> removed) {
  if (!built_ || plan.num_groups != num_groups_) {
    build(problem, plan, active_mask);
    return;
  }
  TRACE_SPAN2("forest", "update", "added", added.size(), "removed",
              removed.size());
  TS_REQUIRE(problem.finalized());
  const int n = problem.num_instances();
  TS_REQUIRE(plan.group.size() == static_cast<std::size_t>(n));
  TS_REQUIRE(active_mask.size() == static_cast<std::size_t>(n));

  // The problem grows by append (online arrivals materialize as new
  // instance ids past the old count); id-indexed scratch grows with it.
  parent_.resize(static_cast<std::size_t>(n), -1);
  comp_of_member_.resize(static_cast<std::size_t>(n), -1);
  comp_of_root_.resize(static_cast<std::size_t>(n), -1);
  root_stamp_.resize(static_cast<std::size_t>(n), -1);
  edge_last_.resize(static_cast<std::size_t>(problem.num_global_edges()), -1);
  edge_stamp_.resize(edge_last_.size(), 0);
  demand_last_.resize(static_cast<std::size_t>(problem.num_demands()), -1);
  demand_stamp_.resize(demand_last_.size(), 0);

  // Delta marking.  A removed member dirties its own component (it may
  // split); an added instance dirties every old component it shares an
  // edge or a demand with *in its own group* (they may merge with it).
  // Everything else is provably disjoint from the walked set: a clean
  // member sharing an edge/demand with a dirty member would have been in
  // the same (dirty) component, and one sharing with an added instance
  // would have been marked here.
  touched_group_.assign(static_cast<std::size_t>(std::max(num_groups_, 1)),
                        0);
  dirty_comp_.assign(static_cast<std::size_t>(total_components()), 0);
  for (InstanceId r : removed) {
    TS_DCHECK(!active_mask[static_cast<std::size_t>(r)]);
    touched_group_[static_cast<std::size_t>(
        plan.group[static_cast<std::size_t>(r)])] = 1;
    const int c = comp_of_member_[static_cast<std::size_t>(r)];
    if (c >= 0) dirty_comp_[static_cast<std::size_t>(c)] = 1;
    comp_of_member_[static_cast<std::size_t>(r)] = -1;
  }
  for (InstanceId a : added) {
    TS_DCHECK(active_mask[static_cast<std::size_t>(a)]);
    const int g = plan.group[static_cast<std::size_t>(a)];
    touched_group_[static_cast<std::size_t>(g)] = 1;
    const DemandInstance& inst = problem.instance(a);
    for (InstanceId k : problem.instances_of_demand(inst.demand)) {
      const int c = comp_of_member_[static_cast<std::size_t>(k)];
      if (c >= 0 && plan.group[static_cast<std::size_t>(k)] == g)
        dirty_comp_[static_cast<std::size_t>(c)] = 1;
    }
    for (EdgeId e : inst.edges) {
      for (InstanceId k : problem.instances_on_edge(e)) {
        const int c = comp_of_member_[static_cast<std::size_t>(k)];
        if (c >= 0 && plan.group[static_cast<std::size_t>(k)] == g)
          dirty_comp_[static_cast<std::size_t>(c)] = 1;
      }
    }
  }

  const auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a < b)
      parent_[static_cast<std::size_t>(b)] = a;
    else
      parent_[static_cast<std::size_t>(a)] = b;
  };

  // Re-partition the touched groups: reset, chain-unite the clean
  // components straight from their old member slices (no path walks),
  // then path-walk only the dirty/new members against each other.
  for (int g = 0; g < num_groups_; ++g) {
    if (!touched_group_[static_cast<std::size_t>(g)]) continue;
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)])
      parent_[static_cast<std::size_t>(i)] =
          active_mask[static_cast<std::size_t>(i)] ? i : -1;
    for (int c = group_first_comp_[static_cast<std::size_t>(g)];
         c < group_first_comp_[static_cast<std::size_t>(g) + 1]; ++c) {
      if (dirty_comp_[static_cast<std::size_t>(c)]) continue;
      const auto ids = component_members(c);
      for (std::size_t k = 1; k < ids.size(); ++k)
        unite(ids[k], ids.front());
    }
    ++update_stamp_;
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const int oc = comp_of_member_[static_cast<std::size_t>(i)];
      if (oc >= 0 && !dirty_comp_[static_cast<std::size_t>(oc)]) continue;
      const DemandInstance& inst = problem.instance(i);
      const auto d = static_cast<std::size_t>(inst.demand);
      if (demand_stamp_[d] == update_stamp_) unite(i, demand_last_[d]);
      demand_stamp_[d] = update_stamp_;
      demand_last_[d] = i;
      for (EdgeId e : inst.edges) {
        const auto ge = static_cast<std::size_t>(e);
        if (edge_stamp_[ge] == update_stamp_) unite(i, edge_last_[ge]);
        edge_stamp_[ge] = update_stamp_;
        edge_last_[ge] = i;
      }
    }
  }

  // Re-flatten into the staging arrays: touched groups from the revised
  // union-find, untouched groups as verbatim slice copies (their active
  // member sets and orders are unchanged by construction — any change
  // would have touched the group).
  upd_first_comp_.assign(static_cast<std::size_t>(num_groups_) + 1, 0);
  upd_member_begin_.assign(1, 0);
  upd_ids_.clear();
  for (int g = 0; g < num_groups_; ++g) {
    if (!touched_group_[static_cast<std::size_t>(g)]) {
      const int c0 = group_first_comp_[static_cast<std::size_t>(g)];
      const int c1 = group_first_comp_[static_cast<std::size_t>(g) + 1];
      const auto b = comp_member_begin_[static_cast<std::size_t>(c0)];
      const auto e = comp_member_begin_[static_cast<std::size_t>(c1)];
      const auto base = static_cast<std::int64_t>(upd_ids_.size()) - b;
      upd_ids_.insert(upd_ids_.end(),
                      member_ids_.begin() + static_cast<std::ptrdiff_t>(b),
                      member_ids_.begin() + static_cast<std::ptrdiff_t>(e));
      for (int c = c0; c < c1; ++c)
        upd_member_begin_.push_back(
            base + comp_member_begin_[static_cast<std::size_t>(c) + 1]);
      upd_first_comp_[static_cast<std::size_t>(g) + 1] =
          upd_first_comp_[static_cast<std::size_t>(g)] + (c1 - c0);
      continue;
    }
    ++update_stamp_;
    int comps_here = 0;
    group_sizes_.clear();
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const auto root = static_cast<std::size_t>(find(i));
      if (root_stamp_[root] != update_stamp_) {
        root_stamp_[root] = update_stamp_;
        comp_of_root_[root] = comps_here++;
        group_sizes_.push_back(0);
      }
      ++group_sizes_[static_cast<std::size_t>(comp_of_root_[root])];
    }
    group_cursor_.clear();
    std::int64_t acc = static_cast<std::int64_t>(upd_ids_.size());
    for (const std::int64_t size : group_sizes_) {
      group_cursor_.push_back(acc);
      acc += size;
      upd_member_begin_.push_back(acc);
    }
    upd_ids_.resize(static_cast<std::size_t>(acc));
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const int lc = comp_of_root_[static_cast<std::size_t>(find(i))];
      upd_ids_[static_cast<std::size_t>(
          group_cursor_[static_cast<std::size_t>(lc)]++)] = i;
    }
    upd_first_comp_[static_cast<std::size_t>(g) + 1] =
        upd_first_comp_[static_cast<std::size_t>(g)] + comps_here;
  }
  group_first_comp_.swap(upd_first_comp_);
  comp_member_begin_.swap(upd_member_begin_);
  member_ids_.swap(upd_ids_);
  refill_member_index(n);
}

}  // namespace treesched
