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
// component_members(c).front() is the component's smallest id — the
// key the online scheduler's caches and snapshots use.
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

 private:
  int find(int x);
  void unite(int a, int b);
  // Unites active instance i with the previous instance of this walk on
  // its demand and on each of its path edges.
  void chain(const Problem& problem, InstanceId i);
  // Rebuilds the flat partition from the union-find.
  void flatten(const std::vector<char>& active_mask);

  bool built_ = false;
  // Union-find over instance ids (-1 = inactive), roots canonicalized to
  // the smallest member id.
  std::vector<int> parent_;
  // Per-edge / per-demand clique chaining: the last instance seen by the
  // walk stamped walk_stamp_, so no walk needs to clear them.
  std::vector<int> edge_last_, edge_stamp_, demand_last_, demand_stamp_;
  int walk_stamp_ = 0;
  // update() scratch: components a delta touched.
  std::vector<char> dirty_comp_;

  // The flat partition: component c owns members
  // [comp_member_begin_[c], comp_member_begin_[c+1]) of member_ids_.
  std::vector<std::int64_t> comp_member_begin_{0};
  std::vector<InstanceId> member_ids_;
  // Member id -> component id (-1 inactive); what update()'s dirty
  // marking and the online scheduler's row splitting key on.
  std::vector<int> comp_of_member_;
};

}  // namespace treesched
