// Problem: the throughput-maximization instance (paper, Section 2).
//
// A Problem bundles the shared vertex set, the r tree-networks, per-edge
// capacities (1.0 everywhere in the paper's uniform setting; arbitrary for
// the non-uniform 2013 extension), the demands with their profits/heights,
// per-processor access sets, and the expanded set of *demand instances*.
//
// Demand instances are the unit the algorithms operate on: one copy of a
// demand per accessible network (tree case), or one copy per (resource,
// start-slot) placement (line-with-windows case; see LineProblem::lower()).
// The routing paths of all instances live in one flat path store on the
// Problem, read through path(i) as ascending global edge ids, so the
// primal-dual engine, the conflict cliques and the feasibility checker all
// work off the same representation regardless of where the instance came
// from.  The store and the edge -> instances index hold their sorted id
// lists as runs of consecutive ids (model/id_runs.hpp): a line placement
// occupies contiguous slots, so its path is one run, and the placements of
// one demand that cover an edge have consecutive ids, so a bucket is a few
// runs.  finalize() builds both without visiting the ids one by one: a
// path leaves its network as runs (TreeNetwork::for_each_path_run), and
// the index steps from each path to the next over their symmetric
// difference.
//
// Global edge ids concatenate the local edge ranges of the networks:
// global = offset(network) + local.  The dual variable vector beta is
// indexed by global edge id.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/prelude.hpp"
#include "graph/tree_network.hpp"
#include "model/id_runs.hpp"

namespace treesched {

// A demand (u, v) with profit and bandwidth requirement (paper: height).
// Processor i owns demand i; the paper's processor set is implicit.
struct Demand {
  DemandId id = -1;
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  Profit profit = 0.0;
  Height height = 1.0;
};

// One schedulable copy of a demand on a concrete network.  Its routing
// path is not stored here: Problem::path(id) reads it from the problem's
// path store.
struct DemandInstance {
  InstanceId id = kNoInstance;
  DemandId demand = -1;
  NetworkId network = -1;
  VertexId u = kNoVertex;  // path endpoints within the network
  VertexId v = kNoVertex;
  Profit profit = 0.0;
  Height height = 1.0;
};

class Problem {
 public:
  // --- construction ------------------------------------------------------
  Problem(VertexId num_vertices, std::vector<TreeNetwork> networks);
  // Shares an immutable topology already held elsewhere — the online
  // service rebuilds a problem per event batch over a fixed topology,
  // and the networks (with their LCA/ancestor query tables) are by far
  // the heaviest part of a copy.
  Problem(VertexId num_vertices,
          std::shared_ptr<const std::vector<TreeNetwork>> networks);

  // Adds a demand; returns its id.  Access defaults to all networks until
  // set_access() is called.  Must precede finalize().
  DemandId add_demand(VertexId u, VertexId v, Profit profit,
                      Height height = 1.0);

  // Restricts the owning processor's access set (paper: Acc(P)).
  void set_access(DemandId d, std::vector<NetworkId> networks);

  // Non-uniform bandwidths: capacity of one edge / all edges.
  void set_capacity(NetworkId network, EdgeId local_edge, Capacity c);
  void set_uniform_capacity(Capacity c);

  // Adds an explicit instance (used by LineProblem::lower(); the tree case
  // relies on the automatic demand x access expansion in finalize()).
  // Endpoints are distinct vertices of `network`; finalize() writes the
  // path.
  InstanceId add_instance(DemandId d, NetworkId network, VertexId u,
                          VertexId v);
  // Makes room for `count` more add_instance() calls in one allocation,
  // for a builder that knows its placement count up front.
  void reserve_instances(std::int64_t count) {
    instances_.reserve(instances_.size() + static_cast<std::size_t>(count));
  }

  // Freezes the problem: expands instances (if none were added manually),
  // writes the paths of the new instances into the path store, and extends
  // the per-demand / per-edge indexes and the summary statistics by them
  // (a first build extends empty ones).  Traced as model/finalize, with
  // the path store and the edge index as its children model/paths and
  // model/edge_index.
  void finalize();
  bool finalized() const { return finalized_; }

  // Reopens a finalized problem for appending more demands (add_demand /
  // set_access / set_capacity), after which finalize() must run again.
  // Existing demand and instance ids, routing paths and access sets are
  // preserved; only the appended demands are expanded, their paths
  // appended to the store and their ids appended to the indexes.  A
  // reopen-append-finalize cycle therefore costs O(new instances + the
  // runs their paths climb + the edges in which consecutive new paths
  // differ) plus one move of the old edge index entries and O(edges) of
  // per-edge passes, instead of a full re-materialization.  The stored
  // runs come out entry for entry as a fresh build's: an appended id
  // extends its bucket's last run when it follows it.  This is the online
  // scheduler's per-batch path: between compactions its record set is
  // append-only.
  void reopen();

  // --- topology ----------------------------------------------------------
  VertexId num_vertices() const { return n_; }
  int num_networks() const { return static_cast<int>(networks_->size()); }
  // The shared topology itself, for callers that construct sibling
  // problems over the same networks without copying them.
  const std::shared_ptr<const std::vector<TreeNetwork>>& shared_networks()
      const {
    return networks_;
  }
  const TreeNetwork& network(NetworkId q) const;
  EdgeId num_global_edges() const { return total_edges_; }
  EdgeId global_edge(NetworkId q, EdgeId local) const;
  std::pair<NetworkId, EdgeId> edge_owner(EdgeId global) const;
  Capacity capacity(EdgeId global) const;
  Capacity min_capacity() const { return cmin_; }
  Capacity max_capacity() const { return cmax_; }

  // --- demands & instances ------------------------------------------------
  int num_demands() const { return static_cast<int>(demands_.size()); }
  const Demand& demand(DemandId d) const;
  const std::vector<NetworkId>& access(DemandId d) const;
  int num_instances() const { return static_cast<int>(instances_.size()); }
  const DemandInstance& instance(InstanceId i) const;
  std::span<const DemandInstance> instances() const {
    return {instances_.data(), instances_.size()};
  }
  // Routing path of instance i: its global edge ids, ascending, as runs.
  // A view into the path store, valid until the next finalize().
  IdRuns path(InstanceId i) const {
    TS_REQUIRE(i >= 0 &&
               static_cast<std::size_t>(i) + 1 < path_offset_.size());
    const auto lo =
        static_cast<std::size_t>(path_offset_[static_cast<std::size_t>(i)]);
    const auto hi = static_cast<std::size_t>(
        path_offset_[static_cast<std::size_t>(i) + 1]);
    return IdRuns({path_entries_.data() + lo, hi - lo});
  }
  const std::vector<InstanceId>& instances_of_demand(DemandId d) const;
  // Instances whose path contains `global`, ascending by id, as runs.
  // Backed by a CSR inverted index over run entries (one offsets array +
  // one flat entry array), so the whole index is two contiguous
  // allocations and a bucket lookup is two loads — this is the hot lookup
  // of the incremental engine's raise propagation (every raised edge fans
  // out to exactly this bucket, one run at a time).
  IdRuns instances_on_edge(EdgeId global) const;

  // --- predicates (paper, Section 2 notation) ------------------------------
  // d1 and d2 overlap: same network and paths share at least one edge.
  bool overlap(InstanceId a, InstanceId b) const;
  // d1 and d2 conflict: same demand, or overlapping.
  bool conflicting(InstanceId a, InstanceId b) const;

  // --- summary statistics --------------------------------------------------
  Profit max_profit() const { return pmax_; }
  Profit min_profit() const { return pmin_; }
  Height min_height() const { return hmin_; }
  Height max_height() const { return hmax_; }
  bool unit_height() const { return unit_height_; }
  int max_path_length() const { return lmax_; }
  int min_path_length() const { return lmin_; }

 private:
  void require_finalized() const { TS_REQUIRE(finalized_); }
  void require_mutable() const { TS_REQUIRE(!finalized_); }
  // Writes the paths of the instances added since the last finalize()
  // into the path store; returns their summed length in ids.
  std::int64_t write_new_paths();
  // Appends the instances from `first` on to the edge index.
  void index_new_paths(InstanceId first);

  VertexId n_;
  std::shared_ptr<const std::vector<TreeNetwork>> networks_;
  std::vector<EdgeId> edge_offset_;  // per network; last element = total
  EdgeId total_edges_ = 0;
  std::vector<Capacity> capacity_;  // per global edge

  std::vector<Demand> demands_;
  std::vector<std::vector<NetworkId>> access_;  // sorted
  std::vector<DemandInstance> instances_;
  bool manual_instances_ = false;
  bool finalized_ = false;
  DemandId expanded_demands_ = 0;  // demands already expanded to instances

  // Path store, CSR like the edge index: the path of instance i is the
  // run entries path_entries_[path_offset_[i] .. path_offset_[i + 1]).
  // path_offset_ covers the instances whose paths are written (all of them
  // once finalized).
  std::vector<std::int64_t> path_offset_{0};
  std::vector<EdgeId> path_entries_;

  std::vector<std::vector<InstanceId>> by_demand_;
  // CSR edge -> instances index: the bucket of edge e is the run entries
  // edge_entries_[edge_index_offset_[e] .. edge_index_offset_[e + 1]).
  std::vector<std::int64_t> edge_index_offset_;
  std::vector<InstanceId> edge_entries_;

  Profit pmax_ = 0.0, pmin_ = 0.0;
  Height hmin_ = 1.0, hmax_ = 1.0;
  Capacity cmin_ = 1.0, cmax_ = 1.0;
  bool unit_height_ = true;
  int lmax_ = 0, lmin_ = 0;
};

}  // namespace treesched
