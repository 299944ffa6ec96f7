#include "dist/luby_mis.hpp"

#include <algorithm>
#include <cmath>

#include "dist/discovery.hpp"
#include "dist/runtime.hpp"
#include "obs/metrics.hpp"

namespace treesched {

std::vector<Rng> make_node_streams(std::uint64_t seed, int count) {
  SplitMix64 expand(seed);
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int v = 0; v < count; ++v) streams.emplace_back(expand.next());
  return streams;
}

int default_luby_budget(int n) {
  return 2 * static_cast<int>(std::ceil(std::log2(
             static_cast<double>(std::max(n, 2))))) +
         2;
}

// ---------------------------------------------------------------------------
// Message-level protocol on the synchronous runtime.

std::vector<int> luby_iteration(std::span<const std::vector<int>> neighbors,
                                Runtime& rt, std::span<const int> nodes,
                                std::vector<char>& live,
                                std::vector<double>& draw,
                                std::vector<Rng>& node_rng) {
  // Round 1: every live node draws and tells its live neighbors.  A
  // decided node is silent, so absence from the inbox encodes death.
  for (int v : nodes) {
    if (!live[static_cast<std::size_t>(v)]) continue;
    draw[static_cast<std::size_t>(v)] =
        node_rng[static_cast<std::size_t>(v)].uniform();
    for (int u : neighbors[static_cast<std::size_t>(v)])
      if (live[static_cast<std::size_t>(u)])
        rt.post(Message{v, u, kLubyTagDraw,
                        {draw[static_cast<std::size_t>(v)]}});
  }
  rt.step();

  // Local decision + round 2: the strict minima of (draw, id) over their
  // live neighborhoods win and notify.  Drained inboxes are recycled
  // through the runtime's free list — the Luby loop is the protocol's
  // hottest drain site, and the recycled slots make the serialized
  // backends' decode loop allocation-free at steady state.
  std::vector<int> winners;
  for (int v : nodes) {
    if (!live[static_cast<std::size_t>(v)]) continue;
    bool best = true;
    std::vector<Message> inbox = rt.drain(v);
    for (const Message& m : inbox) {
      TS_REQUIRE(m.tag == kLubyTagDraw);
      const double other = m.data[0];
      const double mine = draw[static_cast<std::size_t>(v)];
      if (other < mine || (other == mine && m.from < v)) {
        best = false;
        break;
      }
    }
    rt.recycle(std::move(inbox));
    if (!best) continue;
    winners.push_back(v);
    for (int u : neighbors[static_cast<std::size_t>(v)])
      if (live[static_cast<std::size_t>(u)])
        rt.post(Message{v, u, kLubyTagWinner, {}});
  }
  rt.step();

  // Winners and their notified neighbors leave the live set.  (A winner's
  // inbox is necessarily empty here: two adjacent live nodes can never
  // both be strict minima.)
  for (int v : nodes) {
    if (!live[static_cast<std::size_t>(v)]) continue;
    std::vector<Message> inbox = rt.drain(v);
    for (const Message& m : inbox)
      if (m.tag == kLubyTagWinner) live[static_cast<std::size_t>(v)] = 0;
    rt.recycle(std::move(inbox));
  }
  for (int v : winners) live[static_cast<std::size_t>(v)] = 0;
  return winners;
}

ProtocolResult run_luby_protocol(const Problem& problem,
                                 std::span<const InstanceId> members,
                                 std::uint64_t seed,
                                 TransportKind transport,
                                 const FaultPlan* faults) {
  ProtocolResult result;
  const int n = static_cast<int>(members.size());
  if (n == 0) return result;

  // Neighborhoods come from the edge-owner rendezvous, charged to the
  // same runtime the Luby rounds run on — no global conflict graph.
  const RendezvousLayout layout = RendezvousLayout::for_problem(problem, n);
  Runtime rt(layout.total, transport, faults);
  const DiscoveredNeighborhoods hood = discover_conflicts(problem, members, rt);
  result.discovery_rounds = hood.rounds;
  result.discovery_messages = hood.messages;
  result.discovery_bytes = hood.bytes;

  // Per-node private random stream: SplitMix64 expands the seed so node
  // draws are independent of the iteration order, mirroring processors
  // drawing locally.
  std::vector<Rng> node_rng = make_node_streams(seed, n);

  std::vector<int> nodes(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) nodes[static_cast<std::size_t>(v)] = v;
  std::vector<char> live(static_cast<std::size_t>(n), 1);
  std::vector<double> draw(static_cast<std::size_t>(n), 0.0);

  // Adaptive loop: every iteration at least the globally minimal key
  // wins, so the live set strictly shrinks.
  while (std::find(live.begin(), live.end(), char{1}) != live.end()) {
    const std::vector<int> winners = luby_iteration(
        {hood.neighbors.data(), hood.neighbors.size()}, rt, nodes, live,
        draw, node_rng);
    result.selected.insert(result.selected.end(), winners.begin(),
                           winners.end());
  }

  std::sort(result.selected.begin(), result.selected.end());
  result.rounds = rt.round();
  result.messages = rt.messages_sent();
  result.bytes = rt.bytes_sent();
  result.transport = rt.transport_kind();
  result.codec_encoded = rt.codec_encoded();
  result.codec_decoded = rt.codec_decoded();
  if (const FaultStats* fs = rt.fault_stats()) result.fault = *fs;
  result.degraded = rt.degraded();
  return result;
}

// ---------------------------------------------------------------------------
// The implicit-clique Luby iteration both modeled oracles share.

CliqueLuby::CliqueLuby(const Problem& problem)
    : problem_(&problem),
      edge_min_(static_cast<std::size_t>(problem.num_global_edges())),
      demand_min_(static_cast<std::size_t>(problem.num_demands())),
      edge_stamp_(static_cast<std::size_t>(problem.num_global_edges()), 0),
      demand_stamp_(static_cast<std::size_t>(problem.num_demands()), 0),
      edge_kill_(static_cast<std::size_t>(problem.num_global_edges()), 0),
      demand_kill_(static_cast<std::size_t>(problem.num_demands()), 0) {}

void CliqueLuby::iterate(std::vector<InstanceId>& live,
                         std::span<const double> draw,
                         std::vector<InstanceId>& selected) {
  TS_DCHECK(draw.size() == live.size());
  ++stamp_;

  // Clique minima of (draw, id) over the live set.
  for (std::size_t k = 0; k < live.size(); ++k) {
    const Key key{draw[k], live[k]};
    const DemandInstance& inst = problem_->instance(live[k]);
    const auto d = static_cast<std::size_t>(inst.demand);
    if (demand_stamp_[d] != stamp_ || key < demand_min_[d]) {
      demand_stamp_[d] = stamp_;
      demand_min_[d] = key;
    }
    for (EdgeId e : inst.edges) {
      const auto ge = static_cast<std::size_t>(e);
      if (edge_stamp_[ge] != stamp_ || key < edge_min_[ge]) {
        edge_stamp_[ge] = stamp_;
        edge_min_[ge] = key;
      }
    }
  }

  // Winners join the MIS and stamp their cliques as killing.
  for (std::size_t k = 0; k < live.size(); ++k) {
    const Key key{draw[k], live[k]};
    const DemandInstance& inst = problem_->instance(live[k]);
    if (!(demand_min_[static_cast<std::size_t>(inst.demand)] == key))
      continue;
    bool wins = true;
    for (EdgeId e : inst.edges) {
      if (!(edge_min_[static_cast<std::size_t>(e)] == key)) {
        wins = false;
        break;
      }
    }
    if (!wins) continue;
    selected.push_back(live[k]);
    demand_kill_[static_cast<std::size_t>(inst.demand)] = stamp_;
    for (EdgeId e : inst.edges)
      edge_kill_[static_cast<std::size_t>(e)] = stamp_;
  }

  // Survivors: live instances not conflicting with any winner.
  next_.clear();
  for (InstanceId i : live) {
    const DemandInstance& inst = problem_->instance(i);
    bool dead = demand_kill_[static_cast<std::size_t>(inst.demand)] == stamp_;
    for (EdgeId e : inst.edges) {
      if (dead) break;
      dead = edge_kill_[static_cast<std::size_t>(e)] == stamp_;
    }
    if (!dead) next_.push_back(i);
  }
  live.swap(next_);
}

// ---------------------------------------------------------------------------
// LubyMis oracle: one stream, drawn in live order.

LubyMis::LubyMis(const Problem& problem, std::uint64_t seed)
    : rng_(SplitMix64(seed).next()), cliques_(problem) {}

MisResult LubyMis::run(std::span<const InstanceId> candidates) {
  MisResult result;
  std::vector<InstanceId> live(candidates.begin(), candidates.end());
  std::vector<double> draw;
  int iterations = 0;
  while (!live.empty()) {
    ++iterations;
    draw.resize(live.size());
    for (double& value : draw) value = rng_.uniform();
    cliques_.iterate(live, draw, result.selected);
  }

  // The paper's accounting: 2 synchronous rounds per Luby iteration
  // (draw exchange + winner notification).
  result.rounds = 2 * std::max(iterations, 1);
  TRACE_HIST("mis.luby_iterations", iterations);
  return result;
}

// ---------------------------------------------------------------------------
// ProtocolLubyMis: the protocol scheduler's budgeted per-node Luby loop
// as a modeled oracle (see header).

ProtocolLubyMis::ProtocolLubyMis(const Problem& problem, std::uint64_t seed,
                                 int luby_budget, int max_retries)
    : budget_(luby_budget > 0 ? luby_budget
                              : default_luby_budget(problem.num_instances())),
      max_retries_(std::max(max_retries, 0)),
      streams_(make_node_streams(seed, problem.num_instances())),
      cliques_(problem) {
  TS_REQUIRE(budget_ >= 1);
}

MisResult ProtocolLubyMis::run(std::span<const InstanceId> candidates) {
  MisResult result;
  // The fixed protocol schedule: every MIS computation spends exactly
  // budget_ iterations of 2 rounds each, decided nodes sitting the
  // remainder out in silence.
  result.rounds = 2 * budget_;

  std::vector<InstanceId> live(candidates.begin(), candidates.end());
  std::vector<double> draw;
  int iterations_used = 0;
  // One iteration: each live node draws from its own stream (the
  // protocol's round 1), then the shared clique-minima body decides.
  // The main loop and the retry loop both run it, so they cannot drift.
  const auto iterate = [&] {
    ++iterations_used;
    draw.resize(live.size());
    for (std::size_t k = 0; k < live.size(); ++k)
      draw[k] = streams_[static_cast<std::size_t>(live[k])].uniform();
    cliques_.iterate(live, draw, result.selected);
  };

  for (int iter = 0; iter < budget_ && !live.empty(); ++iter) iterate();

  // Adaptive budget retry: a starved stage re-runs with the budget
  // doubled per attempt instead of silently leaving nodes undecided.
  // Unlike the fixed main schedule, retry rounds are adaptive: only
  // iterations actually executed are charged (2 rounds each).
  int attempt = 0;
  while (!live.empty() && attempt < max_retries_) {
    ++attempt;
    ++result.retries;
    const int extra = budget_ << attempt;
    for (int iter = 0; iter < extra && !live.empty(); ++iter) {
      iterate();
      result.rounds += 2;
    }
  }
  if (attempt > 0) TRACE_COUNTER("mis.budget_retries", attempt);

  // The protocol sorts a step's accumulated winners before raising;
  // undecided leftovers (budget and retries exhausted) are simply not
  // selected.
  std::sort(result.selected.begin(), result.selected.end());
  TRACE_HIST("mis.budget_iterations_used", iterations_used);
  if (!live.empty()) {
    TRACE_COUNTER("mis.budget_exhausted_steps", 1);
    TRACE_COUNTER("mis.budget_undecided_nodes",
                  static_cast<std::int64_t>(live.size()));
  }
  return result;
}

}  // namespace treesched
