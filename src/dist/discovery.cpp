#include "dist/discovery.hpp"

#include <algorithm>

namespace treesched {

std::vector<double> interval_digest(std::span<const int> sorted_members) {
  std::vector<double> digest;
  std::size_t k = 0;
  while (k < sorted_members.size()) {
    const int lo = sorted_members[k];
    int hi = lo;
    while (k + 1 < sorted_members.size() &&
           sorted_members[k + 1] == hi + 1) {
      ++k;
      ++hi;
    }
    digest.push_back(static_cast<double>(lo));
    digest.push_back(static_cast<double>(hi));
    ++k;
  }
  return digest;
}

RendezvousLayout RendezvousLayout::for_problem(const Problem& problem,
                                               int members) {
  TS_REQUIRE(problem.finalized());
  TS_REQUIRE(members >= 0);
  RendezvousLayout layout;
  layout.members = members;
  layout.edge_base = members;
  layout.demand_base = members + problem.num_global_edges();
  layout.total = layout.demand_base + problem.num_demands();
  return layout;
}

std::int64_t DiscoveredNeighborhoods::num_edges() const {
  std::int64_t endpoints = 0;
  for (const auto& adj : neighbors)
    endpoints += static_cast<std::int64_t>(adj.size());
  return endpoints / 2;  // every conflict counted from both ends
}

int DiscoveredNeighborhoods::max_degree() const {
  std::size_t degree = 0;
  for (const auto& adj : neighbors) degree = std::max(degree, adj.size());
  return static_cast<int>(degree);
}

DiscoveredNeighborhoods discover_conflicts(const Problem& problem,
                                           std::span<const InstanceId> members,
                                           Runtime& rt) {
  const int k = static_cast<int>(members.size());
  const RendezvousLayout layout = RendezvousLayout::for_problem(problem, k);
  TS_REQUIRE(rt.num_nodes() >= layout.total);

  DiscoveredNeighborhoods result;
  result.neighbors.resize(members.size());
  if (k == 0) return result;

  const std::int64_t rounds_before = rt.round();
  const std::int64_t messages_before = rt.messages_sent();
  const std::int64_t bytes_before = rt.bytes_sent();

  // Round 1: every member registers with the owner of each edge on its
  // path and with its demand's owner.  Opening the member-owner channel
  // is part of the model (a processor knows the owners of its own
  // resources); the registration message is what gets charged.
  std::vector<int> owners;
  for (int v = 0; v < k; ++v) {
    const DemandInstance& inst =
        problem.instance(members[static_cast<std::size_t>(v)]);
    const int demand_owner = layout.demand_owner(inst.demand);
    rt.connect(v, demand_owner);
    owners.push_back(demand_owner);
    rt.post(Message{v, demand_owner, kTagRegister, {}});
    for (EdgeId e : problem.path(inst.id)) {
      const int edge_owner = layout.edge_owner(e);
      rt.connect(v, edge_owner);
      owners.push_back(edge_owner);
      rt.post(Message{v, edge_owner, kTagRegister, {}});
    }
  }
  result.registration_messages = rt.messages_sent() - messages_before;
  result.registration_bytes = rt.bytes_sent() - bytes_before;
  rt.step();

  // Round 2: every owner replies to each registrant with the interval
  // digest of its whole bucket — sorted member indexes compressed to
  // maximal [lo, hi] runs, the registrant included (it drops itself on
  // expansion).  One digest per bucket, identical for every registrant,
  // sum |B| * 2 * runs(B) doubles on the wire instead of the quadratic
  // sum |B| * (|B| - 1) raw lists.  A singleton bucket needs no reply:
  // in the fixed 2-round schedule, silence encodes "no conflicts on this
  // resource".
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  std::vector<int> bucket;
  for (int owner : owners) {
    std::vector<Message> inbox = rt.drain(owner);
    if (inbox.size() >= 2) {
      bucket.clear();
      for (const Message& registrant : inbox)
        bucket.push_back(registrant.from);
      std::sort(bucket.begin(), bucket.end());
      const std::vector<double> digest =
          interval_digest({bucket.data(), bucket.size()});
      for (const Message& registrant : inbox)
        rt.post(Message{owner, registrant.from, kTagBucket, digest});
    }
    rt.recycle(std::move(inbox));
  }
  rt.step();

  // Members expand the digests, drop themselves, and union the replies
  // into their conflict neighborhoods, opening the member-member channels
  // the adjacency implies.
  for (int v = 0; v < k; ++v) {
    std::vector<int>& adj = result.neighbors[static_cast<std::size_t>(v)];
    std::vector<Message> inbox = rt.drain(v);
    for (const Message& m : inbox) {
      TS_REQUIRE(m.tag == kTagBucket);
      TS_REQUIRE(m.data.size() % 2 == 0);
      for (std::size_t r = 0; r + 1 < m.data.size(); r += 2) {
        const int lo = static_cast<int>(m.data[r]);
        const int hi = static_cast<int>(m.data[r + 1]);
        for (int u = lo; u <= hi; ++u)
          if (u != v) adj.push_back(u);
      }
    }
    rt.recycle(std::move(inbox));
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    // Every member opens every channel its *own* neighborhood implies
    // (connect is symmetric and idempotent, so fault-free this equals
    // the old lower-id-opens rule).  Under a lossy transport the two
    // sides can discover asymmetrically — a lost digest leaves one side
    // blind — and each side must still be able to message the neighbors
    // it *did* learn.
    for (int u : adj) rt.connect(v, u);
  }

  result.rounds = rt.round() - rounds_before;
  result.messages = rt.messages_sent() - messages_before;
  result.bytes = rt.bytes_sent() - bytes_before;
  result.reply_messages = result.messages - result.registration_messages;
  result.reply_bytes = result.bytes - result.registration_bytes;
  return result;
}

}  // namespace treesched
