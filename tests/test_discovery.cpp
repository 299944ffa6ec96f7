// Conflict discovery (dist/discovery.hpp) and sharded-dual parity
// (framework/dual_shard.hpp): the rendezvous-discovered neighborhoods
// must equal the explicit ConflictGraph adjacency exactly, the discovery
// traffic must match its closed-form accounting, and the sharded-dual
// protocol run must be indistinguishable from a central DualState replay
// of the same raise stack — selected set, per-instance LHS, lambda and
// the round identity.
#include "dist/discovery.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dist/conflict_graph.hpp"
#include "dist/protocol_scheduler.hpp"
#include "framework/dual_shard.hpp"
#include "framework/dual_state.hpp"
#include "framework/raise_rule.hpp"
#include "framework/two_phase.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::replay_central_lhs;
using testutil::small_line_problem;
using testutil::small_tree_problem;

std::vector<InstanceId> all_instances(const Problem& p) {
  std::vector<InstanceId> all(static_cast<std::size_t>(p.num_instances()));
  for (InstanceId i = 0; i < p.num_instances(); ++i)
    all[static_cast<std::size_t>(i)] = i;
  return all;
}

void expect_neighborhood_parity(const Problem& p,
                                const std::vector<InstanceId>& members) {
  const RendezvousLayout layout =
      RendezvousLayout::for_problem(p, static_cast<int>(members.size()));
  Runtime rt(layout.total);
  const DiscoveredNeighborhoods hood =
      discover_conflicts(p, {members.data(), members.size()}, rt);
  const ConflictGraph graph(p, {members.data(), members.size()});
  EXPECT_EQ(hood.neighbors, graph.adjacency());
  EXPECT_EQ(hood.num_edges(), graph.num_edges());
  EXPECT_EQ(hood.max_degree(), graph.max_degree());
}

TEST(Discovery, NeighborhoodsMatchConflictGraphOnTrees) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = small_tree_problem(seed, 24, 2, 14);
    expect_neighborhood_parity(p, all_instances(p));
  }
}

TEST(Discovery, NeighborhoodsMatchConflictGraphOnLines) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = small_line_problem(seed, 24, 2, 8);
    expect_neighborhood_parity(p, all_instances(p));
  }
}

TEST(Discovery, WorksOnMemberSubsets) {
  const Problem p = small_tree_problem(9, 32, 2, 20);
  std::vector<InstanceId> subset;
  for (InstanceId i = 0; i < p.num_instances(); i += 3) subset.push_back(i);
  expect_neighborhood_parity(p, subset);
}

TEST(Discovery, AccountingMatchesClosedForm) {
  const Problem p = small_tree_problem(5, 24, 2, 12);
  const auto members = all_instances(p);
  const RendezvousLayout layout =
      RendezvousLayout::for_problem(p, static_cast<int>(members.size()));
  Runtime rt(layout.total);
  const DiscoveredNeighborhoods hood =
      discover_conflicts(p, {members.data(), members.size()}, rt);

  // Registrations: one per (member, path edge) plus one per member for
  // the demand owner, 16 header bytes each (empty payload).  Replies:
  // per owner bucket B with |B| >= 2, one interval digest of the whole
  // bucket to each registrant — |B| messages of 2*runs(B) doubles, i.e.
  // |B| * (16 + 16*runs(B)) bytes.
  std::int64_t registrations = 0;
  std::vector<std::vector<int>> edge_bucket(
      static_cast<std::size_t>(p.num_global_edges()));
  std::vector<std::vector<int>> demand_bucket(
      static_cast<std::size_t>(p.num_demands()));
  for (InstanceId i : members) {
    const DemandInstance& inst = p.instance(i);
    registrations += 1 + static_cast<std::int64_t>(p.path(i).size());
    demand_bucket[static_cast<std::size_t>(inst.demand)].push_back(i);
    for (EdgeId e : p.path(i))
      edge_bucket[static_cast<std::size_t>(e)].push_back(i);
  }
  std::int64_t replies = 0;
  std::int64_t reply_bytes = 0;
  const auto account = [&](const std::vector<int>& bucket) {
    if (bucket.size() < 2) return;
    const std::int64_t b = static_cast<std::int64_t>(bucket.size());
    const std::int64_t runs = static_cast<std::int64_t>(
        interval_digest({bucket.data(), bucket.size()}).size() / 2);
    replies += b;
    reply_bytes += b * (16 + 16 * runs);
  };
  for (const auto& bucket : edge_bucket) account(bucket);
  for (const auto& bucket : demand_bucket) account(bucket);

  EXPECT_EQ(hood.rounds, 2);
  EXPECT_EQ(hood.messages, registrations + replies);
  EXPECT_EQ(hood.bytes, registrations * 16 + reply_bytes);
  // The per-leg breakdown carries the same closed forms and sums back to
  // the totals exactly.
  EXPECT_EQ(hood.registration_messages, registrations);
  EXPECT_EQ(hood.registration_bytes, registrations * 16);
  EXPECT_EQ(hood.reply_messages, replies);
  EXPECT_EQ(hood.reply_bytes, reply_bytes);
  EXPECT_EQ(hood.messages, hood.registration_messages + hood.reply_messages);
  EXPECT_EQ(hood.bytes, hood.registration_bytes + hood.reply_bytes);
  // The runtime's counters carry exactly what discovery reported.
  EXPECT_EQ(rt.messages_sent(), hood.messages);
  EXPECT_EQ(rt.bytes_sent(), hood.bytes);
  EXPECT_EQ(rt.round(), hood.rounds);
}

TEST(Discovery, IntervalDigestRoundTripsAndCompresses) {
  // Digest form: maximal consecutive runs as flat {lo, hi} pairs.
  const std::vector<int> scattered{1, 3, 5, 9};
  EXPECT_EQ(interval_digest({scattered.data(), scattered.size()}),
            (std::vector<double>{1, 1, 3, 3, 5, 5, 9, 9}));
  const std::vector<int> runs{0, 1, 2, 3, 7, 8, 12};
  EXPECT_EQ(interval_digest({runs.data(), runs.size()}),
            (std::vector<double>{0, 3, 7, 8, 12, 12}));
  EXPECT_TRUE(interval_digest({runs.data(), 0}).empty());
}

TEST(Discovery, DigestRepliesCutBytesOnLineWindows) {
  // Line-with-windows problems place each demand's instances on
  // consecutive ids, so hot-edge buckets compress to a handful of runs;
  // the reply traffic must come in well below the raw quadratic
  // sum |B| * (|B| - 1) form the pre-digest protocol paid.
  const Problem p = small_line_problem(3, 48, 2, 10, HeightLaw::kUnit,
                                       /*window_slack=*/5.0);
  const auto members = all_instances(p);
  const RendezvousLayout layout =
      RendezvousLayout::for_problem(p, static_cast<int>(members.size()));
  Runtime rt(layout.total);
  const DiscoveredNeighborhoods hood =
      discover_conflicts(p, {members.data(), members.size()}, rt);

  std::int64_t registrations = 0;
  std::vector<std::int64_t> edge_bucket(
      static_cast<std::size_t>(p.num_global_edges()), 0);
  std::vector<std::int64_t> demand_bucket(
      static_cast<std::size_t>(p.num_demands()), 0);
  for (InstanceId i : members) {
    const DemandInstance& inst = p.instance(i);
    registrations += 1 + static_cast<std::int64_t>(p.path(i).size());
    ++demand_bucket[static_cast<std::size_t>(inst.demand)];
    for (EdgeId e : p.path(i)) ++edge_bucket[static_cast<std::size_t>(e)];
  }
  std::int64_t raw_reply_bytes = 0;
  for (std::int64_t b : edge_bucket)
    if (b >= 2) raw_reply_bytes += b * (16 + 8 * (b - 1));
  for (std::int64_t b : demand_bucket)
    if (b >= 2) raw_reply_bytes += b * (16 + 8 * (b - 1));
  const std::int64_t digest_reply_bytes = hood.bytes - registrations * 16;

  EXPECT_LT(digest_reply_bytes, raw_reply_bytes / 4)
      << "digest replies should collapse the quadratic bucket lists";
}

TEST(ShardedDual, ProtocolMatchesCentralReplay) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = small_tree_problem(seed + 500, 20, 2, 9);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    ProtocolOptions options;
    options.epsilon = 0.2;
    options.seed = seed;
    options.keep_stack = true;
    const ProtocolRunResult run = run_distributed_protocol(p, plan, options);

    // The sharded run's per-instance LHS equals the central replay's.
    const std::vector<double> central =
        replay_central_lhs(p, plan, RaiseRuleKind::kUnit,
                           run.passes[0].raise_stack);
    ASSERT_EQ(run.passes[0].final_lhs.size(), central.size());
    double lambda = 1.0;
    for (InstanceId i = 0; i < p.num_instances(); ++i) {
      const double scale =
          std::max(1.0, std::abs(central[static_cast<std::size_t>(i)]));
      EXPECT_NEAR(run.passes[0].final_lhs[static_cast<std::size_t>(i)],
                  central[static_cast<std::size_t>(i)], 1e-9 * scale)
          << "instance " << i << " seed " << seed;
      lambda = std::min(lambda, central[static_cast<std::size_t>(i)] /
                                    p.instance(i).profit);
    }
    EXPECT_NEAR(run.lambda_observed, lambda, 1e-12);

    // The selected set is the phase-2 prune of that same stack.
    const Solution pruned = prune_stack(p, run.passes[0].raise_stack);
    EXPECT_EQ(run.solution.selected, pruned.selected);

    // schedule_ok means every stage target was met, which the final
    // satisfaction level must reflect.
    if (run.schedule_ok) {
      EXPECT_GE(run.lambda_observed, 1.0 - options.epsilon - 1e-6);
    }
  }
}

TEST(ShardedDual, RoundIdentityIncludesDiscovery) {
  const Problem p = small_line_problem(17, 20, 2, 7);
  const LayeredPlan plan = build_line_layered_plan(p);
  ProtocolOptions options;
  options.epsilon = 0.2;
  const ProtocolRunResult run = run_distributed_protocol(p, plan, options);
  const std::int64_t tuples = static_cast<std::int64_t>(run.epochs) *
                              run.passes[0].stages_per_epoch *
                              run.steps_per_stage;
  EXPECT_EQ(run.discovery_rounds, 2);
  EXPECT_EQ(run.rounds,
            run.discovery_rounds + tuples * (2 * run.luby_budget + 1) + tuples);
}

TEST(DualShardUnit, LocalRaisesAndRemoteApplication) {
  // Three lone ids: their run entries are the ids themselves.
  const std::vector<EdgeId> path{2, 5, 9};
  DualShard shard(/*demand=*/3, IdRuns({path.data(), path.size()}));
  EXPECT_DOUBLE_EQ(shard.lhs(1.0), 0.0);

  shard.raise_alpha(0.5);
  EXPECT_TRUE(shard.raise_beta(5, 0.25));
  EXPECT_FALSE(shard.raise_beta(7, 9.0));  // off-path: ignored
  EXPECT_DOUBLE_EQ(shard.alpha(), 0.5);
  EXPECT_DOUBLE_EQ(shard.beta(5), 0.25);
  EXPECT_DOUBLE_EQ(shard.beta(7), 0.0);
  EXPECT_DOUBLE_EQ(shard.lhs(1.0), 0.75);
  EXPECT_DOUBLE_EQ(shard.lhs(0.5), 0.5 + 0.5 * 0.25);

  // A neighbor's raise: same demand -> alpha applies; edges intersected
  // with the local path.
  const std::vector<EdgeId> critical{5, 7};
  const std::vector<double> incs{0.1, 0.2};
  const std::vector<double> payload = encode_raise(
      3, 0.05, {critical.data(), critical.size()}, {incs.data(), incs.size()});
  shard.apply_raise({payload.data(), payload.size()});
  EXPECT_DOUBLE_EQ(shard.alpha(), 0.55);
  EXPECT_DOUBLE_EQ(shard.beta(5), 0.35);
  EXPECT_DOUBLE_EQ(shard.beta_sum(), 0.35);

  // A different demand's raise: alpha untouched.
  const std::vector<double> other = encode_raise(
      4, 1.0, {critical.data(), critical.size()}, {incs.data(), incs.size()});
  shard.apply_raise({other.data(), other.size()});
  EXPECT_DOUBLE_EQ(shard.alpha(), 0.55);
  EXPECT_DOUBLE_EQ(shard.beta(5), 0.45);
}

}  // namespace
}  // namespace treesched
