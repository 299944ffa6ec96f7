#include "model/problem.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace treesched {

Problem::Problem(VertexId num_vertices, std::vector<TreeNetwork> networks)
    : Problem(num_vertices,
              std::make_shared<const std::vector<TreeNetwork>>(
                  std::move(networks))) {}

Problem::Problem(VertexId num_vertices,
                 std::shared_ptr<const std::vector<TreeNetwork>> networks)
    : n_(num_vertices), networks_(std::move(networks)) {
  check_input(n_ >= 1, "problem needs at least one vertex");
  check_input(networks_ != nullptr && !networks_->empty(),
              "problem needs at least one network");
  edge_offset_.reserve(networks_->size() + 1);
  edge_offset_.push_back(0);
  for (const TreeNetwork& t : *networks_) {
    check_input(t.num_vertices() == n_,
                "all networks must be defined over the shared vertex set");
    edge_offset_.push_back(edge_offset_.back() + t.num_edges());
  }
  total_edges_ = edge_offset_.back();
  capacity_.assign(static_cast<std::size_t>(total_edges_), 1.0);
}

DemandId Problem::add_demand(VertexId u, VertexId v, Profit profit,
                             Height height) {
  require_mutable();
  check_input(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
              "demand endpoints out of range");
  check_input(profit > 0.0 && std::isfinite(profit),
              "demand profit must be positive and finite");
  check_input(height > 0.0 && height <= 1.0 + kEps,
              "demand height must lie in (0, 1]");
  const DemandId id = static_cast<DemandId>(demands_.size());
  demands_.push_back(Demand{id, u, v, profit, height});
  std::vector<NetworkId> all(networks_->size());
  for (std::size_t q = 0; q < networks_->size(); ++q)
    all[q] = static_cast<NetworkId>(q);
  access_.push_back(std::move(all));
  return id;
}

void Problem::set_access(DemandId d, std::vector<NetworkId> networks) {
  require_mutable();
  TS_REQUIRE(d >= 0 && d < num_demands());
  check_input(!networks.empty(), "access set must be non-empty");
  std::sort(networks.begin(), networks.end());
  networks.erase(std::unique(networks.begin(), networks.end()),
                 networks.end());
  for (NetworkId q : networks)
    check_input(q >= 0 && q < num_networks(), "access network out of range");
  access_[static_cast<std::size_t>(d)] = std::move(networks);
}

void Problem::set_capacity(NetworkId network, EdgeId local_edge, Capacity c) {
  require_mutable();
  check_input(c > 0.0, "edge capacity must be positive");
  capacity_[static_cast<std::size_t>(global_edge(network, local_edge))] = c;
}

void Problem::set_uniform_capacity(Capacity c) {
  require_mutable();
  check_input(c > 0.0, "edge capacity must be positive");
  std::fill(capacity_.begin(), capacity_.end(), c);
}

InstanceId Problem::add_instance(DemandId d, NetworkId network, VertexId u,
                                 VertexId v) {
  require_mutable();
  TS_REQUIRE(d >= 0 && d < num_demands());
  TS_REQUIRE(network >= 0 && network < num_networks());
  check_input(u >= 0 && u < n_ && v >= 0 && v < n_,
              "instance endpoints out of range");
  check_input(u != v, "instance path must contain an edge");
  manual_instances_ = true;
  const Demand& dem = demands_[static_cast<std::size_t>(d)];
  const auto id = static_cast<InstanceId>(instances_.size());
  instances_.push_back(
      DemandInstance{id, d, network, u, v, dem.profit, dem.height});
  return id;
}

std::int64_t Problem::write_new_paths() {
  // Each path is walked into a scratch buffer, shifted to global ids,
  // sorted (a path comes out ordered from u to v; on a line it is already
  // ascending) and appended as runs.  The store holds runs only: no
  // buffer of all the ids is ever built.
  std::int64_t ids = 0;
  std::vector<EdgeId> walk;
  for (std::size_t i = path_offset_.size() - 1; i < instances_.size(); ++i) {
    const DemandInstance& inst = instances_[i];
    const TreeNetwork& net = network(inst.network);
    walk.resize(static_cast<std::size_t>(net.dist(inst.u, inst.v)));
    net.write_path_edges(inst.u, inst.v, walk);
    const EdgeId offset = edge_offset_[static_cast<std::size_t>(inst.network)];
    for (EdgeId& e : walk) e += offset;
    if (!std::is_sorted(walk.begin(), walk.end()))
      std::sort(walk.begin(), walk.end());
    append_runs(walk, path_entries_);
    path_offset_.push_back(static_cast<std::int64_t>(path_entries_.size()));
    ids += static_cast<std::int64_t>(walk.size());
  }
  return ids;
}

void Problem::index_new_paths(InstanceId first) {
  // The CSR edge -> instances index, extended by the instances from
  // `first` on in two passes over their (instance, edge) pairs in id
  // order.  Each pass carries, per edge, the last id of its bucket and
  // whether that id closes a run of two or more: an id that follows the
  // last one extends the bucket's last run (one more entry when that run
  // was a lone id, none otherwise), any other id opens a lone one.  The
  // first pass counts the new entries per bucket; the prefix sum (with
  // the old bucket sizes) lays out the grown array, every old bucket
  // moves up once, and the second pass writes the entries at the bucket
  // ends.  New ids are the largest, so every bucket stays ascending, and
  // its runs come out as a fresh build's.  A first build has no old
  // buckets, so this is a counting sort into an exactly sized array; a
  // reopen()ed problem grows it geometrically.
  const auto edges = static_cast<std::size_t>(total_edges_);
  if (edge_index_offset_.empty()) edge_index_offset_.assign(edges + 1, 0);
  const auto old_size = [&](std::size_t e) {
    return edge_index_offset_[e + 1] - edge_index_offset_[e];
  };
  // Per edge: the last id of its bucket (kNoTail when empty, which no
  // id's predecessor equals) and whether it closes a run.  An old bucket
  // can only be extended by instance `first`, whose predecessor is the
  // largest old id, so only the old buckets on path(first) need their
  // last entry loaded.
  constexpr InstanceId kNoTail = -2;
  std::vector<InstanceId> tail(edges, kNoTail);
  std::vector<char> in_run(edges, 0);
  const auto load_old_tails = [&](auto&& last_entry) {
    if (first == num_instances()) return;
    path(first).for_each_id([&](EdgeId e) {
      const auto k = static_cast<std::size_t>(e);
      if (old_size(k) == 0) return;
      const InstanceId x =
          edge_entries_[static_cast<std::size_t>(last_entry(k))];
      tail[k] = x < 0 ? ~x : x;
      in_run[k] = x < 0;
    });
  };
  // Calls step(e, i, extends) for every new (instance, edge) pair in id
  // order, keeping tail and in_run current; `extends` says whether i
  // follows the bucket's last id.
  const auto sweep = [&](auto&& step) {
    for (InstanceId i = first; i < num_instances(); ++i) {
      path(i).for_each_id([&](EdgeId e) {
        const auto k = static_cast<std::size_t>(e);
        const bool extends = tail[k] == i - 1;
        step(k, i, extends);
        in_run[k] = extends;
        tail[k] = i;
      });
    }
  };

  load_old_tails([&](std::size_t e) { return edge_index_offset_[e + 1] - 1; });
  std::vector<std::int64_t> offset(edges + 1, 0);
  sweep([&](std::size_t e, InstanceId, bool extends) {
    if (!extends || !in_run[e]) ++offset[e + 1];
  });
  for (std::size_t e = 0; e < edges; ++e)
    offset[e + 1] += offset[e] + old_size(e);
  edge_entries_.resize(static_cast<std::size_t>(offset[edges]));
  // A bucket moves up by the new entries of the buckets below it, so
  // moving from the top down never overwrites a bucket not yet moved, and
  // the buckets below the lowest new entry stay where they are.
  const auto at = [&](std::int64_t k) { return edge_entries_.begin() + k; };
  for (std::size_t e = edges; e-- > 0 && offset[e] != edge_index_offset_[e];)
    std::copy_backward(at(edge_index_offset_[e]),
                       at(edge_index_offset_[e + 1]),
                       at(offset[e] + old_size(e)));
  // The old offsets become the write cursors: each bucket's first slot
  // past its old entries.  The tails restart from the moved buckets.
  std::fill(tail.begin(), tail.end(), kNoTail);
  load_old_tails(
      [&](std::size_t e) { return offset[e] + old_size(e) - 1; });
  for (std::size_t e = 0; e < edges; ++e)
    edge_index_offset_[e] = offset[e] + old_size(e);
  sweep([&](std::size_t e, InstanceId i, bool extends) {
    std::int64_t& cursor = edge_index_offset_[e];
    if (extends && in_run[e])
      edge_entries_[static_cast<std::size_t>(cursor - 1)] = ~i;
    else
      edge_entries_[static_cast<std::size_t>(cursor++)] = extends ? ~i : i;
  });
  edge_index_offset_ = std::move(offset);
}

void Problem::finalize() {
  require_mutable();
  check_input(num_demands() > 0, "problem needs at least one demand");
  obs::SpanGuard span("model", "finalize");
  // What earlier finalize() calls indexed: nothing on a first build, every
  // old demand and instance on a reopen()ed problem.  Ids only grow, so
  // every index below extends by the new ids alone.
  const auto first = static_cast<InstanceId>(path_offset_.size() - 1);
  const DemandId first_demand = expanded_demands_;

  if (!manual_instances_) {
    // Default expansion: one instance per (demand, accessible network),
    // routed along the unique tree path (paper, Section 2 reformulation).
    // Demands expanded by an earlier finalize() keep their instances;
    // only the ones appended since the last reopen() are added.
    for (DemandId d = expanded_demands_; d < num_demands(); ++d) {
      const Demand& dem = demands_[static_cast<std::size_t>(d)];
      for (NetworkId q : access_[static_cast<std::size_t>(d)])
        instances_.push_back(
            DemandInstance{static_cast<InstanceId>(instances_.size()), d, q,
                           dem.u, dem.v, dem.profit, dem.height});
    }
  }
  expanded_demands_ = num_demands();
  check_input(!instances_.empty(), "problem has no demand instances");
  // The span's args count what this call added: the new instances, the
  // ids on their paths, and the run entries those ids took in the path
  // store and in the edge index.
  const auto path_entries = static_cast<std::int64_t>(path_entries_.size());
  const auto bucket_entries = static_cast<std::int64_t>(edge_entries_.size());
  std::int64_t path_ids = 0;
  {
    obs::SpanGuard paths_span("model", "paths");
    path_ids = write_new_paths();
  }
  span.arg("instances", num_instances() - first);
  span.arg("path_ids", path_ids);
  span.arg("path_entries",
           static_cast<std::int64_t>(path_entries_.size()) - path_entries);

  by_demand_.resize(static_cast<std::size_t>(num_demands()));
  for (InstanceId i = first; i < num_instances(); ++i) {
    const DemandInstance& inst = instances_[static_cast<std::size_t>(i)];
    by_demand_[static_cast<std::size_t>(inst.demand)].push_back(i);
  }

  {
    obs::SpanGuard index_span("model", "edge_index");
    index_new_paths(first);
  }
  span.arg("bucket_entries",
           static_cast<std::int64_t>(edge_entries_.size()) - bucket_entries);

  // Summary statistics, folded over the new demands and instances.
  if (first_demand == 0) {
    pmax_ = pmin_ = demands_.front().profit;
    hmin_ = hmax_ = demands_.front().height;
  }
  for (DemandId d = first_demand; d < num_demands(); ++d) {
    const Demand& dem = demands_[static_cast<std::size_t>(d)];
    pmax_ = std::max(pmax_, dem.profit);
    pmin_ = std::min(pmin_, dem.profit);
    hmin_ = std::min(hmin_, dem.height);
    hmax_ = std::max(hmax_, dem.height);
  }
  unit_height_ = hmin_ >= 1.0 - kEps;
  // set_capacity() may run on a reopen()ed problem, so every capacity is
  // re-scanned: O(edges).
  cmin_ = cmax_ = capacity_.front();
  for (Capacity c : capacity_) {
    cmin_ = std::min(cmin_, c);
    cmax_ = std::max(cmax_, c);
  }
  if (first == 0) lmax_ = lmin_ = static_cast<int>(path(0).size());
  for (InstanceId i = first; i < num_instances(); ++i) {
    const auto len = static_cast<int>(path(i).size());
    lmax_ = std::max(lmax_, len);
    lmin_ = std::min(lmin_, len);
  }
  finalized_ = true;
}

void Problem::reopen() {
  require_finalized();
  finalized_ = false;
}

const TreeNetwork& Problem::network(NetworkId q) const {
  TS_REQUIRE(q >= 0 && q < num_networks());
  return (*networks_)[static_cast<std::size_t>(q)];
}

EdgeId Problem::global_edge(NetworkId q, EdgeId local) const {
  TS_REQUIRE(q >= 0 && q < num_networks());
  TS_REQUIRE(local >= 0 &&
             local < (*networks_)[static_cast<std::size_t>(q)].num_edges());
  return edge_offset_[static_cast<std::size_t>(q)] + local;
}

std::pair<NetworkId, EdgeId> Problem::edge_owner(EdgeId global) const {
  TS_REQUIRE(global >= 0 && global < total_edges_);
  const auto it =
      std::upper_bound(edge_offset_.begin(), edge_offset_.end(), global);
  const auto q = static_cast<NetworkId>(it - edge_offset_.begin() - 1);
  return {q, global - edge_offset_[static_cast<std::size_t>(q)]};
}

Capacity Problem::capacity(EdgeId global) const {
  TS_REQUIRE(global >= 0 && global < total_edges_);
  return capacity_[static_cast<std::size_t>(global)];
}

const Demand& Problem::demand(DemandId d) const {
  TS_REQUIRE(d >= 0 && d < num_demands());
  return demands_[static_cast<std::size_t>(d)];
}

const std::vector<NetworkId>& Problem::access(DemandId d) const {
  TS_REQUIRE(d >= 0 && d < num_demands());
  return access_[static_cast<std::size_t>(d)];
}

const DemandInstance& Problem::instance(InstanceId i) const {
  TS_REQUIRE(i >= 0 && i < num_instances());
  return instances_[static_cast<std::size_t>(i)];
}

const std::vector<InstanceId>& Problem::instances_of_demand(DemandId d) const {
  require_finalized();
  TS_REQUIRE(d >= 0 && d < num_demands());
  return by_demand_[static_cast<std::size_t>(d)];
}

IdRuns Problem::instances_on_edge(EdgeId global) const {
  require_finalized();
  TS_REQUIRE(global >= 0 && global < total_edges_);
  const auto lo = static_cast<std::size_t>(
      edge_index_offset_[static_cast<std::size_t>(global)]);
  const auto hi = static_cast<std::size_t>(
      edge_index_offset_[static_cast<std::size_t>(global) + 1]);
  return IdRuns({edge_entries_.data() + lo, hi - lo});
}

bool Problem::overlap(InstanceId a, InstanceId b) const {
  const DemandInstance& x = instance(a);
  const DemandInstance& y = instance(b);
  if (x.network != y.network) return false;
  // Sorted-merge intersection test, one run at a time.
  const IdRuns::Runs px = path(a).runs();
  const IdRuns::Runs py = path(b).runs();
  auto i = px.begin();
  auto j = py.begin();
  while (i != px.end() && j != py.end()) {
    const IdRuns::Run r = *i;
    const IdRuns::Run t = *j;
    if (r.first <= t.last && t.first <= r.last) return true;
    if (r.last < t.last)
      ++i;
    else
      ++j;
  }
  return false;
}

bool Problem::conflicting(InstanceId a, InstanceId b) const {
  const DemandInstance& x = instance(a);
  const DemandInstance& y = instance(b);
  if (x.demand == y.demand && a != b) return true;
  return overlap(a, b);
}

}  // namespace treesched
