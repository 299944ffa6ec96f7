// Persistent conflict-component partition: the connected components of
// the instance conflict graph (shared edge or shared demand) over the
// active instances.
//
// The online scheduler keeps one per height class: a class's components
// evolve independently under a fixed stage schedule, so a batch only
// re-solves the components its events touched.  The partition depends
// only on static data — the Problem's paths/demands and the active mask
// — so it is built once by ONE walk over the active instances' paths,
// chaining every per-edge / per-demand clique into a union-find, stored
// flat (CSR: component -> members), and then revised per batch with
// update().
//
// Determinism contract (tests/test_component_forest.cpp checks it
// against an independent BFS with ==): components are ordered by their
// smallest member id and members within a component are ascending, so
// equal masks give equal component numbers however the forest got there.
// update() also reports which components it carried over unchanged and
// their numbers before it (carried_from()), which is how the online
// scheduler moves its per-component caches, held in forest order, from
// one batch to the next.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "model/problem.hpp"

namespace treesched {

class ComponentForest {
 public:
  ComponentForest() = default;

  // Builds the partition of the instances with active_mask[i] != 0.
  // active_mask is indexed by instance id and must cover the problem.
  void build(const Problem& problem, const std::vector<char>& active_mask);

  // Incrementally revises a built partition after an active-set delta:
  // `added` lists newly active instance ids (possibly beyond the
  // instance count the partition was built with — an online problem
  // grows by append), `removed` newly inactive ones.  Produces the
  // identical (==) partition a fresh build() over the new mask would,
  // but components untouched by the delta (no lost member, no
  // edge/demand shared with an added instance) are re-united by cheap
  // chain unions instead of path walks.  Falls back to build() when
  // nothing was built yet.
  //
  // Cost: marking the dirty components is O(|removed| + Σ over added of
  // (path length + instances of its demand)); it reads no
  // Problem::instances_on_edge bucket.  Re-partitioning walks the paths
  // of the dirty and added members only, plus O(instance count) of
  // flat reset, chain unions and flatten.
  void update(const Problem& problem, const std::vector<char>& active_mask,
              std::span<const InstanceId> added,
              std::span<const InstanceId> removed);

  int num_components() const {
    return static_cast<int>(comp_member_begin_.size()) - 1;
  }
  // Component id of an active instance, -1 for inactive ids.  Stable
  // only until the next build()/update().
  int component_of(InstanceId i) const {
    return comp_of_member_[static_cast<std::size_t>(i)];
  }
  // Members of component c, ascending.
  std::span<const InstanceId> component_members(int c) const {
    const auto k = static_cast<std::size_t>(c);
    return {member_ids_.data() + comp_member_begin_[k],
            static_cast<std::size_t>(comp_member_begin_[k + 1] -
                                     comp_member_begin_[k])};
  }
  // The number component c had before the last update(), when that
  // update carried it over unchanged (it lost no member and shares no
  // edge or demand with an added instance, so it has exactly its old
  // members); -1 for a component the update dirtied, merged or created,
  // and for every component after build().  An empty delta carries every
  // component over.
  int carried_from(int c) const {
    return carried_from_[static_cast<std::size_t>(c)];
  }

 private:
  int find(int x);
  void unite(int a, int b);
  // Unites active instance i with the previous instance of this walk on
  // its demand and on each of its path edges.
  void chain(const Problem& problem, InstanceId i);
  // Rebuilds the flat partition from the union-find.  comp_of_member_
  // must hold the previous numbering (or -1) for every id: a root reads
  // its old number there before overwriting it.
  void flatten(const std::vector<char>& active_mask);

  bool built_ = false;
  // Union-find over instance ids (-1 = inactive), roots canonicalized to
  // the smallest member id.
  std::vector<int> parent_;
  // Per-edge / per-demand clique chaining: the last instance seen by the
  // walk stamped walk_stamp_, so no walk needs to clear them.
  //
  // The marking invariant update() rests on: after any build() or
  // update(), if some active instance's path uses edge e, then
  // edge_last_[e] is an active instance on e.  A walk sets the entry
  // (build() walks every active instance, update() the dirty and added
  // ones); an edge no walked member uses belongs to one clean component,
  // which lost no member since its edges were last walked, so the entry
  // is still active.  All active instances on e share one component (the
  // conflict relation, Section 2), so an added instance dirties
  // component_of(edge_last_[e]) for each edge e of its path — nothing
  // when the entry is inactive, since component_of() is -1 there.
  std::vector<int> edge_last_, edge_stamp_, demand_last_, demand_stamp_;
  int walk_stamp_ = 0;
  // update() scratch: components a delta touched, by old number.
  std::vector<char> dirty_comp_;

  // The flat partition: component c owns members
  // [comp_member_begin_[c], comp_member_begin_[c+1]) of member_ids_.
  std::vector<std::int64_t> comp_member_begin_{0};
  std::vector<InstanceId> member_ids_;
  // Member id -> component id (-1 inactive); what update()'s dirty
  // marking and the online scheduler's row splitting key on.
  std::vector<int> comp_of_member_;
  // Per component: its number before the last update(), or -1.
  std::vector<int> carried_from_;
};

}  // namespace treesched
