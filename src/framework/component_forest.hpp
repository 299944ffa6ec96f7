// Persistent conflict-component forest: the per-group connected
// components of the instance conflict graph, for every group of a
// layered plan at once.
//
// The incremental engine's parallel epoch execution partitions each
// epoch's group into conflict-disjoint components (no raise in one
// component can touch the LHS of another's members).  That partition
// depends only on static data — the Problem's paths/demands, the plan's
// group assignment and the active mask — never on the dual state, so it
// is built once: ONE walk over the active members' paths, group by
// group, chaining every per-edge / per-demand clique into a union-find,
// stored flat (two-level CSR: group -> components -> members).  An
// epoch's setup is then span slicing.
//
// Determinism contract (tests/test_component_forest.cpp checks every
// group against an independent BFS with ==):
//  * components of a group are ordered by their smallest member *rank*
//    (rank = position among the group's active members in plan order);
//  * members within a component are in ascending rank;
//  * hence component_ids(g, c).front() is the "first member" the engine
//    keys MisOracle::component_clone streams by (component_stream_key in
//    two_phase.hpp), so a randomized oracle's per-component stream does
//    not depend on which worker or thread count runs the component.
//
// Lifecycle: build() once per (problem, plan, active_mask) combination.
// TwoPhaseEngine builds lazily on the first run that drives components
// with oracle clones (threads >= 2 and an oracle supporting
// component_clone; otherwise each group is one component and no forest
// is built) and invalidates on restrict_to(); the online scheduler keeps
// one forest per height class and revises it with update().  Within a
// stage the unsatisfied frontier only shrinks, so components only ever
// split — the engine exploits that by *filtering* (skipping components
// with no unsatisfied member) rather than re-partitioning; the forest
// itself never needs updating mid-run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "decomp/layered.hpp"
#include "model/problem.hpp"

namespace treesched {

class ComponentForest {
 public:
  ComponentForest() = default;

  // Builds the forest over the instances with active_mask[i] != 0.
  // active_mask is indexed by instance id and must cover the problem.
  void build(const Problem& problem, const LayeredPlan& plan,
             const std::vector<char>& active_mask);

  // Incrementally revises a built forest after an active-set delta:
  // `added` lists newly active instance ids (possibly beyond the
  // instance count the forest was built with — an online problem grows
  // by append), `removed` newly inactive ones.  Produces the identical
  // (==) forest a fresh build() over the new mask would, but only
  // groups with a delta are re-partitioned: components untouched by the
  // delta (no lost member, no edge/demand shared with an added
  // instance) are re-united by cheap chain unions and their member
  // spans sliced straight across; everything else is re-walked.  Falls
  // back to build() when nothing was ever built or the group count
  // changed.
  void update(const Problem& problem, const LayeredPlan& plan,
              const std::vector<char>& active_mask,
              std::span<const InstanceId> added,
              std::span<const InstanceId> removed);

  bool built() const { return built_; }
  void invalidate() { built_ = false; }

  int num_groups() const { return num_groups_; }
  int total_components() const {
    return static_cast<int>(comp_member_begin_.size()) - 1;
  }
  int components_in_group(int g) const {
    return group_first_comp_[static_cast<std::size_t>(g) + 1] -
           group_first_comp_[static_cast<std::size_t>(g)];
  }
  // Members of component c of group g, in ascending rank (position
  // among the group's active members in plan order).
  std::span<const InstanceId> component_ids(int g, int c) const {
    const int comp = group_first_comp_[static_cast<std::size_t>(g)] + c;
    return {member_ids_.data() + comp_member_begin_[comp],
            static_cast<std::size_t>(comp_member_begin_[comp + 1] -
                                     comp_member_begin_[comp])};
  }
  // Global (cross-group) component id of an active member, -1 for
  // inactive ids.  Stable only until the next build()/update().
  int component_of(InstanceId i) const {
    return comp_of_member_[static_cast<std::size_t>(i)];
  }
  // Members of a component by its global id, ascending rank order.
  std::span<const InstanceId> component_members(int comp) const {
    const auto c = static_cast<std::size_t>(comp);
    return {member_ids_.data() + comp_member_begin_[c],
            static_cast<std::size_t>(comp_member_begin_[c + 1] -
                                     comp_member_begin_[c])};
  }

 private:
  int find(int x);
  void refill_member_index(int n);

  bool built_ = false;
  int num_groups_ = 0;
  // Union-find over instance ids (-1 = inactive), roots canonicalized to
  // the smallest member id; scratch reused across build() calls.
  std::vector<int> parent_;
  // Per-edge / per-demand clique chaining for the path walks: last
  // active member seen, stamped per group so no clearing is needed.
  std::vector<int> edge_last_, edge_stamp_, demand_last_, demand_stamp_;
  // Root -> dense component id, stamped per group.
  std::vector<int> comp_of_root_, root_stamp_;
  // Member id -> global component id (-1 inactive); what update()'s
  // dirty marking and the online scheduler's row splitting key on.
  std::vector<int> comp_of_member_;
  // Monotone stamp for update()'s walks; strictly above every stamp
  // value build() leaves behind, so no scratch array needs clearing.
  int update_stamp_ = 0;
  // update() scratch: per-group / per-component delta flags and the
  // staging arrays the revised flat forest is assembled into before the
  // final swap (the old arrays must stay readable while updating).
  std::vector<char> touched_group_, dirty_comp_;
  std::vector<int> upd_first_comp_;
  std::vector<std::int64_t> upd_member_begin_, group_cursor_;
  std::vector<InstanceId> upd_ids_;
  std::vector<std::int64_t> group_sizes_;

  // The flat forest: group g owns components
  // [group_first_comp_[g], group_first_comp_[g+1]); component c owns
  // members [comp_member_begin_[c], comp_member_begin_[c+1]) of
  // member_ids_.
  std::vector<int> group_first_comp_;
  std::vector<std::int64_t> comp_member_begin_;
  std::vector<InstanceId> member_ids_;
};

}  // namespace treesched
