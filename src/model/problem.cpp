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
  // Each path leaves its network as runs of consecutive edge ids, shifted
  // to global ids, sorted by first id when the climb did not yield them
  // ascending (a line path is one run) and appended, merged where
  // id-adjacent.  No id is visited one at a time.
  std::int64_t ids = 0;
  // A first build sizes the offsets exactly; a reopen()ed problem grows
  // them geometrically.
  if (path_offset_.size() == 1) path_offset_.reserve(instances_.size() + 1);
  std::vector<IdRuns::Run> runs;
  const auto by_first = [](IdRuns::Run a, IdRuns::Run b) {
    return a.first < b.first;
  };
  for (std::size_t i = path_offset_.size() - 1; i < instances_.size(); ++i) {
    const DemandInstance& inst = instances_[i];
    const EdgeId offset = edge_offset_[static_cast<std::size_t>(inst.network)];
    runs.clear();
    network(inst.network)
        .for_each_path_run(inst.u, inst.v, [&](EdgeId first, EdgeId last) {
          runs.push_back({first + offset, last + offset});
          ids += last - first + 1;
        });
    if (!std::is_sorted(runs.begin(), runs.end(), by_first))
      std::sort(runs.begin(), runs.end(), by_first);
    append_runs(runs, path_entries_);
    path_offset_.push_back(static_cast<std::int64_t>(path_entries_.size()));
  }
  return ids;
}

// Calls only_a(lo, hi) for every maximal interval of ids in `a` but not in
// `b`, and only_b(lo, hi) for every one in `b` but not in `a`, skipping
// their intersection: one merge over the runs of both lists.  Returns
// whether the intersection is non-empty.
template <typename OnlyA, typename OnlyB>
static bool for_each_difference(IdRuns a, IdRuns b, OnlyA&& only_a,
                                OnlyB&& only_b) {
  bool shared = false;
  const IdRuns::Runs ra = a.runs();
  const IdRuns::Runs rb = b.runs();
  auto i = ra.begin();
  auto j = rb.begin();
  // x and y: what is left of runs *i and *j.
  IdRuns::Run x, y;
  if (i != ra.end()) x = *i;
  if (j != rb.end()) y = *j;
  while (i != ra.end() && j != rb.end()) {
    if (x.last < y.first) {
      only_a(x.first, x.last);
      if (++i != ra.end()) x = *i;
      continue;
    }
    if (y.last < x.first) {
      only_b(y.first, y.last);
      if (++j != rb.end()) y = *j;
      continue;
    }
    // The runs overlap: the part before the later first id is one-sided,
    // and the common part, up to the earlier last id, is skipped.
    if (x.first < y.first) only_a(x.first, y.first - 1);
    if (y.first < x.first) only_b(y.first, x.first - 1);
    shared = true;
    const IdRuns::Id common_last = std::min(x.last, y.last);
    x.first = y.first = common_last + 1;
    if (x.last == common_last && ++i != ra.end()) x = *i;
    if (y.last == common_last && ++j != rb.end()) y = *j;
  }
  if (i != ra.end()) {
    only_a(x.first, x.last);
    while (++i != ra.end()) only_a((*i).first, (*i).last);
  }
  if (j != rb.end()) {
    only_b(y.first, y.last);
    while (++j != rb.end()) only_b((*j).first, (*j).last);
  }
  return shared;
}

void Problem::index_new_paths(InstanceId first) {
  // The CSR edge -> instances index, extended by the instances from
  // `first` on in two passes in id order.  Each maximal run of ids in a
  // bucket is a stretch of consecutive instances whose paths all hold the
  // edge, so the passes step from path(i - 1) to path(i) over their
  // symmetric difference alone: a run opens on each edge of
  // path(i) \ path(i - 1), writing its first id, and closes on each edge
  // of path(i - 1) \ path(i), writing the complement of i - 1 when the
  // run holds two or more ids.  Edges on both paths are skipped, so a
  // line placement that slides by one slot costs two edges.  Consecutive
  // paths whose id ranges are disjoint (another network, or far apart on
  // a tree) are closed and opened whole, without the merge.  The first
  // pass counts the new entries per bucket; the prefix sum (with the old
  // bucket sizes) lays out the grown array, every old bucket moves up
  // once, and the second pass writes the entries at the bucket ends.  New
  // ids are the largest, so every bucket stays ascending, and its runs
  // come out as a fresh build's.  A first build has no old buckets, so
  // this is a counting sort into an exactly sized array; a reopen()ed
  // problem grows it geometrically.
  const auto edges = static_cast<std::size_t>(total_edges_);
  if (edge_index_offset_.empty()) edge_index_offset_.assign(edges + 1, 0);
  const InstanceId end = num_instances();
  if (first == end) return;
  const auto old_size = [&](std::size_t e) {
    return edge_index_offset_[e + 1] - edge_index_offset_[e];
  };
  // run_first[e]: the first id of the run open on edge e, for the edges
  // of the path last stepped onto.
  std::vector<InstanceId> run_first(edges);
  // A reopen()ed problem continues the old runs on the edges that the
  // last old path, path(first - 1), shares with path(first); the old
  // bucket of such an edge e ends at old_end(e) with first - 1 or its
  // complement.  retract(e) takes back a stored complement, which the
  // run's close rewrites.
  const auto load_open_runs = [&](auto&& old_end, auto&& retract) {
    if (first == 0) return;
    const IdRuns last_old = path(first - 1);
    path(first).for_each_id([&](EdgeId e) {
      if (!last_old.contains(e)) return;
      const auto k = static_cast<std::size_t>(e);
      const std::int64_t last = old_end(k) - 1;
      const InstanceId x = edge_entries_[static_cast<std::size_t>(last)];
      if (x < 0) {
        run_first[k] = edge_entries_[static_cast<std::size_t>(last - 1)];
        retract(k);
      } else {
        run_first[k] = x;
      }
    });
  };
  // Calls open(e, i) when a run on edge e starts at instance i and
  // close(e, l) when one ends at l, in id order.  path(first - 1) stands
  // before path(first) only to skip the continued runs; its own runs are
  // complete.  Closing a run that holds l alone writes nothing, so the
  // closes are skipped while every run open on path(i - 1) is such a run
  // (`lone`: path(i - 1) shares no edge with path(i - 2)); on a tree
  // whose consecutive paths share nothing, no close is made.
  const auto sweep = [&](auto&& open, auto&& close) {
    const auto open_all = [&](InstanceId i) {
      path(i).for_each_id([&](EdgeId e) { open(e, i); });
    };
    bool lone = true;
    for (InstanceId i = first; i < end; ++i) {
      if (i == 0) {
        open_all(i);
        continue;
      }
      const IdRuns prev = path(i - 1);
      const IdRuns cur = path(i);
      const bool closes = i > first && !lone;
      if (prev.back() < cur.front() || cur.back() < prev.front()) {
        if (closes) prev.for_each_id([&](EdgeId e) { close(e, i - 1); });
        open_all(i);
        lone = true;
        continue;
      }
      const auto open_range = [&](IdRuns::Id lo, IdRuns::Id hi) {
        for (EdgeId e = lo; e <= hi; ++e) open(e, i);
      };
      const auto close_range = [&](IdRuns::Id lo, IdRuns::Id hi) {
        if (closes)
          for (EdgeId e = lo; e <= hi; ++e) close(e, i - 1);
      };
      lone = !for_each_difference(prev, cur, close_range, open_range);
    }
    if (!lone) path(end - 1).for_each_id([&](EdgeId e) { close(e, end - 1); });
  };

  std::vector<std::int64_t> offset(edges + 1, 0);
  load_open_runs([&](std::size_t e) { return edge_index_offset_[e + 1]; },
                 [&](std::size_t e) { --offset[e + 1]; });
  sweep(
      [&](EdgeId e, InstanceId i) {
        const auto k = static_cast<std::size_t>(e);
        run_first[k] = i;
        ++offset[k + 1];
      },
      [&](EdgeId e, InstanceId l) {
        const auto k = static_cast<std::size_t>(e);
        offset[k + 1] += l != run_first[k];
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
  // past its old entries.
  for (std::size_t e = 0; e < edges; ++e)
    edge_index_offset_[e] = offset[e] + old_size(e);
  load_open_runs([&](std::size_t e) { return edge_index_offset_[e]; },
                 [&](std::size_t e) { --edge_index_offset_[e]; });
  sweep(
      [&](EdgeId e, InstanceId i) {
        const auto k = static_cast<std::size_t>(e);
        run_first[k] = i;
        edge_entries_[static_cast<std::size_t>(edge_index_offset_[k]++)] = i;
      },
      [&](EdgeId e, InstanceId l) {
        const auto k = static_cast<std::size_t>(e);
        if (l != run_first[k])
          edge_entries_[static_cast<std::size_t>(edge_index_offset_[k]++)] =
              ~l;
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
