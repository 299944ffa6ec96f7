// Fuzz-style cross-checks: randomized structures validated against
// independent brute-force implementations, plus adversarial inputs that
// stress the framework's worst-case machinery (exponential profit
// ladders maximize kill-chain lengths; single-edge hotspots maximize
// conflict density).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>

#include <algorithm>
#include <queue>
#include <sstream>

#include "common/rng.hpp"
#include "decomp/layered.hpp"
#include "dist/luby_mis.hpp"
#include "dist/protocol_scheduler.hpp"
#include "dist/transport.hpp"
#include "dist/scheduler.hpp"
#include "exact/branch_and_bound.hpp"
#include "framework/two_phase.hpp"
#include "io/text_io.hpp"
#include "online/event_stream.hpp"
#include "online/journal.hpp"
#include "online/online_scheduler.hpp"
#include "online/snapshot.hpp"
#include "test_util.hpp"
#include "workload/line_gen.hpp"
#include "workload/scenario.hpp"
#include "workload/tree_gen.hpp"

namespace treesched {
namespace {

using testutil::require_feasible;

// Independent BFS distance for cross-checking LCA-based dist().
int bfs_dist(const TreeNetwork& t, VertexId from, VertexId to) {
  std::vector<int> dist(static_cast<std::size_t>(t.num_vertices()), -1);
  std::queue<VertexId> queue;
  queue.push(from);
  dist[static_cast<std::size_t>(from)] = 0;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop();
    if (v == to) return dist[static_cast<std::size_t>(v)];
    for (const auto& adj : t.neighbors(v)) {
      if (dist[static_cast<std::size_t>(adj.to)] < 0) {
        dist[static_cast<std::size_t>(adj.to)] =
            dist[static_cast<std::size_t>(v)] + 1;
        queue.push(adj.to);
      }
    }
  }
  return -1;
}

TEST(Fuzz, DistMatchesBfsOnRandomTrees) {
  Rng rng(404);
  for (int round = 0; round < 10; ++round) {
    const TreeShape shape =
        kAllTreeShapes[rng.next_below(std::size(kAllTreeShapes))];
    const auto n = static_cast<VertexId>(rng.uniform_int(2, 80));
    const TreeNetwork t = make_tree(shape, n, rng);
    for (int q = 0; q < 20; ++q) {
      const auto u = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      const auto v = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      ASSERT_EQ(t.dist(u, v), bfs_dist(t, u, v))
          << to_string(shape) << " n=" << n << " " << u << "~" << v;
    }
  }
}

TEST(Fuzz, PathVerticesAreExactlyTheOnPathSet) {
  Rng rng(405);
  const TreeNetwork t = make_tree(TreeShape::kRandomAttachment, 50, rng);
  for (int q = 0; q < 30; ++q) {
    const auto u = static_cast<VertexId>(rng.next_below(50));
    const auto v = static_cast<VertexId>(rng.next_below(50));
    const auto path = t.path_vertices(u, v);
    std::vector<char> on(50, 0);
    for (VertexId x : path) on[static_cast<std::size_t>(x)] = 1;
    for (VertexId x = 0; x < 50; ++x)
      ASSERT_EQ(static_cast<bool>(on[static_cast<std::size_t>(x)]),
                t.on_path(x, u, v))
          << x << " on " << u << "~" << v;
  }
}

TEST(Fuzz, ExponentialProfitLadderMaximizesKillChains) {
  // Demands over one shared path with profits 1, 2, 4, ..., 2^k: the
  // adversarial input for Claim 5.2 — every kill chain is as long as the
  // bound permits.  The engine must stay within the step budget and the
  // solution must still meet the theorem bound (trivially: the largest
  // profit alone dominates half the total).
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(8));
  Problem p(8, std::move(networks));
  const int k = 12;
  for (int i = 0; i <= k; ++i)
    p.add_demand(0, 7, std::pow(2.0, i));
  p.finalize();
  const LayeredPlan plan = build_line_layered_plan(p);
  SolverConfig config;
  config.epsilon = 0.1;
  const SolveResult run = solve_with_plan(p, plan, config);
  require_feasible(p, run.solution);
  // All demands conflict, so exactly one is schedulable; the engine must
  // keep the most profitable one (everything else is killed upward).
  ASSERT_EQ(run.solution.selected.size(), 1u);
  EXPECT_DOUBLE_EQ(run.stats.profit, std::pow(2.0, k));
  // Kill chains of length <= 1 + log2(pmax/pmin) = 1 + k.
  EXPECT_LE(run.stats.max_steps_in_stage, k + 3);
}

TEST(Fuzz, HotspotStarConflictsStayFeasible) {
  // A star where every demand crosses the hub: maximum conflict density.
  Rng rng(406);
  std::vector<TreeNetwork> networks;
  networks.push_back(make_tree(TreeShape::kStar, 30, rng));
  Problem p(30, std::move(networks));
  for (int i = 0; i < 25; ++i) {
    const auto u = static_cast<VertexId>(rng.uniform_int(1, 29));
    VertexId v;
    do {
      v = static_cast<VertexId>(rng.uniform_int(1, 29));
    } while (v == u);
    p.add_demand(u, v, rng.uniform(1.0, 50.0));
  }
  p.finalize();
  DistOptions options;
  const DistResult run = solve_tree_unit_distributed(p, options);
  require_feasible(p, run.solution);
  // Every path uses two hub edges; selected paths must be edge-disjoint.
  EXPECT_GE(run.solution.selected.size(), 1u);
  EXPECT_LE(run.solution.selected.size(), 14u);  // 29 edges / 2 per path
}

TEST(Fuzz, RandomProblemsSolveUnderEveryPlan) {
  // Cross product of random problems and every plan builder: the engine
  // must produce feasible solutions and monotone satisfaction regardless.
  Rng rng(407);
  for (int round = 0; round < 6; ++round) {
    const Problem p = testutil::small_tree_problem(
        900 + static_cast<std::uint64_t>(round), 24, 2, 12,
        round % 2 ? HeightLaw::kBimodal : HeightLaw::kUnit);
    for (DecompKind kind : {DecompKind::kRootFixing, DecompKind::kBalancing,
                            DecompKind::kIdeal}) {
      const LayeredPlan plan = build_tree_layered_plan(p, kind);
      SolverConfig config;
      config.rule = p.unit_height() ? RaiseRuleKind::kUnit
                                    : RaiseRuleKind::kNarrow;
      const SolveResult run = p.unit_height()
                                  ? solve_with_plan(p, plan, config)
                                  : solve_height_split(p, plan, config);
      require_feasible(p, run.solution);
      EXPECT_GE(run.stats.lambda_observed, 1.0 - config.epsilon - 1e-6)
          << to_string(kind) << " round " << round;
    }
  }
}

// The exact two-pass round accounting identity of the message-level
// protocol: rounds = discovery + sum_pass [tuples*(2L+1) + tuples]
// + combine_rounds, where combine_rounds is the better-of converge-cast
// of a genuinely two-pass run and zero otherwise.
void require_protocol_identity(const Problem& p,
                               const ProtocolRunResult& run) {
  std::int64_t pass_rounds = 0;
  for (const ProtocolPass& pass : run.passes) {
    ASSERT_EQ(pass.tuples, static_cast<std::int64_t>(pass.epochs) *
                               pass.stages_per_epoch * pass.steps_per_stage);
    ASSERT_EQ(pass.rounds, pass.tuples * (2 * run.luby_budget + 1) +
                               pass.tuples + pass.mis_retry_rounds);
    pass_rounds += pass.rounds;
  }
  ASSERT_EQ(run.combine_rounds,
            run.passes.size() == 2 ? better_of_convergecast_rounds(p) : 0);
  ASSERT_EQ(run.rounds,
            run.discovery_rounds + pass_rounds + run.combine_rounds);
  ASSERT_EQ(run.discovery_bytes,
            run.discovery_registration_bytes + run.discovery_reply_bytes);
}

TEST(Fuzz, ProtocolOnRandomHeightsTreesAndLines) {
  // Random small instances through the message-level wide/narrow
  // protocol: feasibility, the two-pass accounting identity, and the
  // reported ratio bound certifying the exact B&B optimum.  Uniform
  // capacities here — the wide/narrow price factors assume them; the
  // non-uniform regimes are the next test's.
  Rng rng(408);
  const HeightLaw laws[] = {HeightLaw::kUnit, HeightLaw::kBimodal,
                            HeightLaw::kUniformRange,
                            HeightLaw::kNarrowOnly};
  for (int round = 0; round < 6; ++round) {
    const HeightLaw heights = laws[rng.next_below(std::size(laws))];
    ProtocolOptions options;
    options.epsilon = 0.35;  // keeps the narrow stage count tractable
    options.seed = 900 + static_cast<std::uint64_t>(round);
    const bool tree = round % 2 == 0;
    const Problem p = [&]() -> Problem {
      if (tree) {
        TreeScenarioSpec spec;
        spec.num_vertices = static_cast<VertexId>(rng.uniform_int(16, 32));
        spec.num_networks = 2;
        spec.demands.num_demands = static_cast<int>(rng.uniform_int(8, 12));
        spec.demands.heights = heights;
        spec.demands.height_min = 0.4;
        spec.demands.profit_max = rng.uniform(10.0, 80.0);
        spec.seed = options.seed;
        return make_tree_problem(spec);
      }
      LineScenarioSpec spec;
      spec.line.num_slots = static_cast<int>(rng.uniform_int(16, 32));
      spec.line.num_resources = 2;
      spec.line.num_demands = static_cast<int>(rng.uniform_int(6, 8));
      spec.line.max_proc_time = spec.line.num_slots / 3;
      spec.line.heights = heights;
      spec.line.height_min = 0.4;
      spec.line.profit_max = rng.uniform(10.0, 80.0);
      spec.seed = options.seed;
      return make_line_problem(spec);
    }();
    const ProtocolDistResult run = tree
                                       ? run_tree_arbitrary_protocol(p, options)
                                       : run_line_arbitrary_protocol(p, options);
    const Profit profit = require_feasible(p, run.run.solution);
    require_protocol_identity(p, run.run);
    EXPECT_TRUE(run.run.mis_ok) << "round " << round;
    EXPECT_TRUE(run.run.schedule_ok) << "round " << round;
    const Profit opt = testutil::exact_opt(p);
    EXPECT_GE(profit * run.ratio_bound, opt - 1e-6)
        << "round " << round << " heights=" << to_string(heights);
  }
}

TEST(Fuzz, ProtocolOnRandomNonuniformCapacities) {
  // Random capacity profiles through the non-uniform protocol wrapper:
  // the spread-scaled bound must still certify the exact optimum, for
  // both the unit-height and the all-narrow regime.
  Rng rng(409);
  const CapacityLaw laws[] = {CapacityLaw::kTwoClass,
                              CapacityLaw::kPowerClasses,
                              CapacityLaw::kHotspot};
  for (int round = 0; round < 6; ++round) {
    TreeScenarioSpec spec;
    spec.num_vertices = static_cast<VertexId>(rng.uniform_int(16, 30));
    spec.num_networks = 2;
    spec.demands.num_demands = static_cast<int>(rng.uniform_int(7, 10));
    const bool narrow = round % 2 == 1;
    spec.demands.heights = narrow ? HeightLaw::kNarrowOnly : HeightLaw::kUnit;
    spec.demands.height_min = 0.4;
    spec.demands.profit_max = rng.uniform(10.0, 60.0);
    spec.capacities = laws[rng.next_below(std::size(laws))];
    spec.capacity_base = 1.0;
    spec.capacity_spread = rng.chance(0.5) ? 2.0 : 4.0;
    spec.seed = 950 + static_cast<std::uint64_t>(round);
    const Problem p = make_tree_problem(spec);
    if (narrow && !all_instances_narrow(p)) continue;
    ProtocolOptions options;
    options.epsilon = 0.35;
    options.seed = spec.seed;
    const ProtocolDistResult run = run_nonuniform_protocol(p, options);
    const Profit profit = require_feasible(p, run.run.solution);
    require_protocol_identity(p, run.run);
    const Profit opt = testutil::exact_opt(p);
    EXPECT_GE(profit * run.ratio_bound, opt - 1e-6)
        << "round " << round << " law=" << to_string(spec.capacities)
        << " spread=" << spec.capacity_spread;
  }
}

TEST(Fuzz, AdversarialFrontierShrinkAgreesAcrossAllEnginePaths) {
  // ProtocolLubyMis with a Luby budget of 1 is a deliberately *weak* MIS
  // oracle: each step decides only the per-clique (draw, id) minima and
  // leaves everyone else undecided, so the unsatisfied frontier shrinks
  // by a trickle across many steps *mid-stage* — the adversarial regime
  // for the frontier compaction (conflict components drain at wildly
  // different rates, so late steps see mostly-finished epochs).  Every
  // engine path — central, and incremental at threads 1 and 4 — must
  // still agree bit for bit.  The weak budget also starves steps
  // constantly, so the adaptive budget retry fires throughout —
  // mis_retries must agree across the paths too.
  std::int64_t total_retries = 0;
  for (int round = 0; round < 4; ++round) {
    const auto seed = 1100 + static_cast<std::uint64_t>(round);
    const Problem p = testutil::small_tree_problem(
        seed, 26, 2, 14,
        round % 2 ? HeightLaw::kBimodal : HeightLaw::kUnit);
    const LayeredPlan plan = build_tree_layered_plan(
        p, round % 2 ? DecompKind::kRootFixing : DecompKind::kIdeal);
    SolverConfig config;
    config.keep_stack = true;
    config.lockstep = round >= 2;  // budget-short stages on these rounds
    config.rule = p.unit_height() ? RaiseRuleKind::kUnit
                                  : RaiseRuleKind::kNarrow;
    config.engine = EngineImpl::kCentralReference;
    ProtocolLubyMis central_oracle(p, seed, /*luby_budget=*/1);
    const SolveResult ref = solve_with_plan(p, plan, config, &central_oracle);
    require_feasible(p, ref.solution);
    total_retries += ref.stats.mis_retries;
    for (const int threads : {1, 4}) {
      SolverConfig incremental = config;
      incremental.engine = EngineImpl::kIncremental;
      incremental.threads = threads;
      ProtocolLubyMis oracle(p, seed, /*luby_budget=*/1);
      const SolveResult got = solve_with_plan(p, plan, incremental, &oracle);
      const std::string what = "round " + std::to_string(round) +
                               " threads=" + std::to_string(threads);
      ASSERT_EQ(ref.solution.selected, got.solution.selected) << what;
      ASSERT_EQ(ref.raise_stack, got.raise_stack) << what;
      ASSERT_EQ(ref.stats.steps, got.stats.steps) << what;
      ASSERT_EQ(ref.stats.raises, got.stats.raises) << what;
      // Doubles with ==: bit-identical, not merely close.
      ASSERT_EQ(ref.stats.dual_objective, got.stats.dual_objective) << what;
      ASSERT_EQ(ref.stats.lambda_observed, got.stats.lambda_observed)
          << what;
      ASSERT_EQ(ref.stats.lockstep_ok, got.stats.lockstep_ok) << what;
      ASSERT_EQ(ref.stats.mis_ok, got.stats.mis_ok) << what;
      ASSERT_EQ(ref.stats.mis_retries, got.stats.mis_retries) << what;
    }
  }
  // The budget-1 oracle must actually have exercised the retry path.
  EXPECT_GT(total_retries, 0);
}

TEST(Fuzz, MessageCodecRoundTripsRandomStreams) {
  // Random message streams through the wire codec of the serialized
  // transports: arbitrary tags, endpoints and payload lengths, payload
  // doubles drawn as raw 64-bit patterns (so NaNs, infinities, denormals
  // and -0.0 all occur).  Every decode must reproduce the source message
  // bit for bit, consume exactly message_wire_bytes of the stream, and a
  // re-encode of the decoded message must reproduce the consumed bytes.
  Rng rng(410);
  for (int round = 0; round < 20; ++round) {
    std::vector<Message> batch;
    std::vector<std::uint8_t> wire;
    const int count = static_cast<int>(rng.uniform_int(1, 40));
    for (int i = 0; i < count; ++i) {
      Message m;
      m.from = static_cast<int>(rng.next_below(1u << 20));
      m.to = static_cast<int>(rng.next_below(1u << 20));
      m.tag = static_cast<int>(rng.uniform_int(-100, 100));
      const int len = static_cast<int>(rng.uniform_int(0, 12));
      for (int d = 0; d < len; ++d) {
        const std::uint64_t bits = rng.next();
        double value;
        std::memcpy(&value, &bits, sizeof value);
        m.data.push_back(value);
      }
      EXPECT_EQ(encode_message(m, wire),
                static_cast<std::size_t>(message_wire_bytes(m)));
      batch.push_back(std::move(m));
    }
    std::size_t offset = 0;
    Message out;  // reused across decodes, like the transports do
    for (const Message& m : batch) {
      const std::size_t before = offset;
      std::string error;
      ASSERT_TRUE(
          decode_message({wire.data(), wire.size()}, offset, out, &error))
          << "round " << round << ": " << error;
      ASSERT_EQ(offset - before,
                static_cast<std::size_t>(message_wire_bytes(m)));
      ASSERT_EQ(out.from, m.from);
      ASSERT_EQ(out.to, m.to);
      ASSERT_EQ(out.tag, m.tag);
      ASSERT_EQ(out.data.size(), m.data.size());
      if (!m.data.empty()) {
        ASSERT_EQ(std::memcmp(out.data.data(), m.data.data(),
                              m.data.size() * sizeof(double)),
                  0);
      }
      // decode(encode(m)) == m implies encode(decode(bytes)) == bytes.
      std::vector<std::uint8_t> again;
      encode_message(out, again);
      ASSERT_EQ(std::memcmp(again.data(), wire.data() + before,
                            again.size()),
                0);
    }
    ASSERT_EQ(offset, wire.size());
  }
}

TEST(Fuzz, MessageCodecSurvivesTruncationAndGarbage) {
  // Adversarial buffers: random truncations of valid streams and outright
  // random bytes.  decode_message must never crash, never read out of
  // bounds (the CI sanitizer job runs this under ASan/UBSan), and on
  // failure must leave the offset untouched and explain itself.
  Rng rng(411);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::uint8_t> wire;
    const int count = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < count; ++i) {
      Message m{static_cast<int>(rng.next_below(100)),
                static_cast<int>(rng.next_below(100)),
                static_cast<int>(rng.next_below(16)), {}};
      const int len = static_cast<int>(rng.uniform_int(0, 6));
      for (int d = 0; d < len; ++d) m.data.push_back(rng.uniform());
      encode_message(m, wire);
    }
    // Truncate at a random point strictly inside the last message.
    const std::size_t cut =
        wire.size() - 1 - rng.next_below(std::min<std::uint64_t>(
                              wire.size(), 24));
    std::size_t offset = 0;
    Message out;
    std::string error;
    while (decode_message({wire.data(), cut}, offset, out, &error)) {
    }
    EXPECT_FALSE(error.empty()) << "round " << round;
    EXPECT_LE(offset, cut);
    const std::size_t failed_at = offset;
    // A failed decode must not move the cursor.
    EXPECT_FALSE(decode_message({wire.data(), cut}, offset, out));
    EXPECT_EQ(offset, failed_at);

    // Pure garbage: random bytes, random length.  Decoding loops to the
    // end or stops at a rejection — either way cleanly.
    std::vector<std::uint8_t> garbage(rng.next_below(64));
    for (auto& b : garbage)
      b = static_cast<std::uint8_t>(rng.next_below(256));
    offset = 0;
    while (offset < garbage.size() &&
           decode_message({garbage.data(), garbage.size()}, offset, out)) {
      ASSERT_LE(offset, garbage.size());
    }
  }
}

TEST(Fuzz, ProtocolTransportInvarianceOnRandomInstances) {
  // Random problems through the full wide/narrow protocol on each
  // backend: the serialized wire and the kFaulty framing layer must
  // reproduce the in-proc run's selection and counters exactly while
  // pushing every message through the codec.
  Rng rng(412);
  for (int round = 0; round < 3; ++round) {
    TreeScenarioSpec spec;
    spec.num_vertices = static_cast<VertexId>(rng.uniform_int(16, 28));
    spec.num_networks = 2;
    spec.demands.num_demands = static_cast<int>(rng.uniform_int(8, 12));
    spec.demands.heights = round == 0 ? HeightLaw::kUnit : HeightLaw::kBimodal;
    spec.demands.height_min = 0.4;
    spec.demands.profit_max = rng.uniform(10.0, 60.0);
    spec.seed = 1200 + static_cast<std::uint64_t>(round);
    const Problem p = make_tree_problem(spec);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    ProtocolOptions options;
    options.epsilon = 0.35;
    options.seed = spec.seed;
    options.keep_stack = true;
    options.transport = TransportKind::kInProc;
    const ProtocolRunResult ref = run_height_split_protocol(p, plan, options);
    for (const TransportKind kind :
         {TransportKind::kSerialized, TransportKind::kFaulty}) {
      options.transport = kind;
      const ProtocolRunResult got =
          run_height_split_protocol(p, plan, options);
      const std::string what = "round " + std::to_string(round) +
                               " transport=" + to_string(kind);
      ASSERT_EQ(got.solution.selected, ref.solution.selected) << what;
      ASSERT_EQ(got.raise_stack, ref.raise_stack) << what;
      ASSERT_EQ(got.lambda_observed, ref.lambda_observed) << what;
      ASSERT_EQ(got.rounds, ref.rounds) << what;
      ASSERT_EQ(got.messages, ref.messages) << what;
      ASSERT_EQ(got.bytes, ref.bytes) << what;
      ASSERT_EQ(got.codec_encoded, got.messages) << what;
      ASSERT_EQ(got.codec_decoded, got.messages) << what;
    }
  }
}

// Field-by-field == comparison of two protocol runs (the masked-fault
// bit-identity contract: results AND logical counters).
void require_same_protocol_run(const ProtocolRunResult& ref,
                               const ProtocolRunResult& got,
                               const std::string& what) {
  ASSERT_EQ(got.solution.selected, ref.solution.selected) << what;
  ASSERT_EQ(got.raise_stack, ref.raise_stack) << what;
  ASSERT_EQ(got.lambda_observed, ref.lambda_observed) << what;
  ASSERT_EQ(got.rounds, ref.rounds) << what;
  ASSERT_EQ(got.messages, ref.messages) << what;
  ASSERT_EQ(got.bytes, ref.bytes) << what;
  ASSERT_EQ(got.mis_retries, ref.mis_retries) << what;
  ASSERT_EQ(got.passes.size(), ref.passes.size()) << what;
  for (std::size_t i = 0; i < ref.passes.size(); ++i) {
    ASSERT_EQ(got.passes[i].final_lhs, ref.passes[i].final_lhs) << what;
    ASSERT_EQ(got.passes[i].lambda_observed, ref.passes[i].lambda_observed)
        << what;
  }
}

// Shared scenario of the fault-injection arms below.
Problem fault_fuzz_problem(std::uint64_t seed, Rng& rng) {
  TreeScenarioSpec spec;
  spec.num_vertices = static_cast<VertexId>(rng.uniform_int(16, 28));
  spec.num_networks = 2;
  spec.demands.num_demands = static_cast<int>(rng.uniform_int(8, 12));
  spec.demands.heights = seed % 2 ? HeightLaw::kBimodal : HeightLaw::kUnit;
  spec.demands.height_min = 0.4;
  spec.demands.profit_max = rng.uniform(10.0, 60.0);
  spec.seed = seed;
  return make_tree_problem(spec);
}

TEST(Fuzz, MaskedFaultPlansAreBitIdenticalToFaultFreeRuns) {
  // Random fault plans at rates the retransmit budget masks w.h.p.
  // (loss needs budget+1 consecutive bad dice per frame): the kFaulty
  // recovery layer — CRC-checked, sequence-numbered frames, dedup,
  // manifest-ordered reassembly, in-barrier retransmit — must reproduce
  // the fault-free run bit for bit: selection, stacks, per-instance
  // final LHS, lambda, and every logical counter (rounds/messages/bytes
  // are charged at post(), before the fault dice roll).
  Rng rng(413);
  std::int64_t total_recoveries = 0;
  for (int round = 0; round < 4; ++round) {
    const auto seed = 1300 + static_cast<std::uint64_t>(round);
    const Problem p = fault_fuzz_problem(seed, rng);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    ProtocolOptions options;
    options.epsilon = 0.35;
    options.seed = seed;
    options.keep_stack = true;
    options.transport = TransportKind::kSerialized;
    const ProtocolRunResult ref = run_height_split_protocol(p, plan, options);

    options.faults.drop = rng.uniform(0.0, 0.15);
    options.faults.duplicate = rng.uniform(0.0, 0.10);
    options.faults.corrupt = rng.uniform(0.0, 0.05);
    options.faults.reorder = rng.uniform(0.0, 0.30);
    options.faults.delay = rng.uniform(0.0, 0.10);
    options.faults.retransmit_budget = 16;
    options.faults.seed = seed;
    const ProtocolRunResult got = run_height_split_protocol(p, plan, options);
    const std::string what = "round " + std::to_string(round);
    ASSERT_FALSE(got.degraded) << what;
    ASSERT_TRUE(got.certificate_ok) << what;
    require_same_protocol_run(ref, got, what);
    ASSERT_EQ(got.fault.frames_lost, 0) << what;
    ASSERT_EQ(got.fault.corrupt_undetected, 0) << what;
    ASSERT_EQ(got.fault.frames_delivered, got.fault.frames_posted) << what;
    total_recoveries += got.fault.retransmits + got.fault.dup_dropped +
                        got.fault.frames_reordered;
  }
  // The plans must actually have exercised the recovery machinery.
  EXPECT_GT(total_recoveries, 0);
}

TEST(Fuzz, CorruptionIsAlwaysDetectedNeverMisdecoded) {
  // Corruption-heavy plans: every corrupted frame (1-3 flipped bits,
  // within CRC-32's Hamming-distance guarantee at our frame sizes) must
  // be rejected by the checksum and repaired by retransmit — never
  // silently mis-decoded into a wrong message.
  Rng rng(414);
  for (int round = 0; round < 3; ++round) {
    const auto seed = 1400 + static_cast<std::uint64_t>(round);
    const Problem p = fault_fuzz_problem(seed, rng);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    ProtocolOptions options;
    options.epsilon = 0.35;
    options.seed = seed;
    options.keep_stack = true;
    options.transport = TransportKind::kSerialized;
    const ProtocolRunResult ref = run_height_split_protocol(p, plan, options);

    options.faults.corrupt = 0.2;
    options.faults.retransmit_budget = 16;
    options.faults.seed = seed;
    const ProtocolRunResult got = run_height_split_protocol(p, plan, options);
    const std::string what = "round " + std::to_string(round);
    ASSERT_GT(got.fault.frames_corrupted, 0) << what;
    ASSERT_GT(got.fault.corrupt_dropped, 0) << what;
    ASSERT_EQ(got.fault.corrupt_undetected, 0) << what;
    ASSERT_EQ(got.fault.frames_delivered + got.fault.frames_lost,
              got.fault.frames_posted)
        << what;
    ASSERT_FALSE(got.degraded) << what;  // 0.2^17 per frame: never lost
    require_same_protocol_run(ref, got, what);
  }
}

TEST(Fuzz, RetransmitExhaustionDegradesGracefullyWithValidCertificate) {
  // Unmaskable plans — total blackout and coin-flip loss against a
  // budget of 1: the run must never crash, hang, or report a silently
  // wrong answer.  Either the plan happened to be masked (bit-identical
  // to fault-free) or the run is flagged degraded, its solution is still
  // primal-feasible (phase-2 prune) and its shard-reported certificate
  // validates against the central replay of the applied raises.
  Rng rng(415);
  bool saw_degraded = false;
  for (int round = 0; round < 4; ++round) {
    const auto seed = 1500 + static_cast<std::uint64_t>(round);
    const Problem p = fault_fuzz_problem(seed, rng);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    ProtocolOptions options;
    options.epsilon = 0.35;
    options.seed = seed;
    options.transport = TransportKind::kSerialized;
    const ProtocolRunResult ref = run_height_split_protocol(p, plan, options);

    if (round == 0) {
      options.faults.drop = 1.0;  // total blackout
      options.faults.retransmit_budget = 2;
    } else {
      options.faults.drop = 0.5;
      options.faults.retransmit_budget = 1;
      options.faults.seed = seed;
    }
    const ProtocolRunResult got = run_height_split_protocol(p, plan, options);
    const std::string what = "round " + std::to_string(round);
    require_feasible(p, got.solution);
    ASSERT_EQ(got.fault.frames_delivered + got.fault.frames_lost,
              got.fault.frames_posted)
        << what;
    if (got.degraded) {
      saw_degraded = true;
      ASSERT_GT(got.fault.frames_lost, 0) << what;
      ASSERT_TRUE(got.certificate_ok) << what;
      // The reported lambda stays a *conservative* slackness claim.
      for (const ProtocolPass& pass : got.passes)
        ASSERT_TRUE(pass.certificate_ok) << what;
    } else {
      ASSERT_EQ(got.solution.selected, ref.solution.selected) << what;
      ASSERT_EQ(got.lambda_observed, ref.lambda_observed) << what;
    }
    if (round == 0) {
      ASSERT_TRUE(got.degraded) << what;
      ASSERT_EQ(got.fault.frames_delivered, 0) << what;
      ASSERT_EQ(got.fault.frames_lost, got.fault.frames_posted) << what;
    }
  }
  EXPECT_TRUE(saw_degraded);
}

// Shared fixture of the durability codec arms: a real event trace and
// its encoded journal image with per-record boundaries.
struct JournalImage {
  std::vector<EventBatch> trace;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> boundaries;  // boundaries[k] = end of record k-1
};

JournalImage make_journal_image(std::uint64_t seed) {
  JournalImage image;
  image.boundaries.push_back(0);
  const Problem base =
      testutil::small_tree_problem(seed, 24, 2, 8, HeightLaw::kBimodal);
  DemandGenConfig demand_cfg;
  demand_cfg.heights = HeightLaw::kBimodal;
  OnlineTrafficSpec traffic;
  traffic.rate = 5.0;
  traffic.num_batches = 6;
  traffic.seed = seed;
  image.trace = make_event_trace(base, demand_cfg, traffic);
  for (std::uint32_t b = 0; b < image.trace.size(); ++b) {
    encode_journal_record(image.trace[b], b, image.bytes);
    image.boundaries.push_back(image.bytes.size());
  }
  return image;
}

// Replayed batches must be byte-for-byte re-encodable to the original
// image prefix — the strongest cheap equality (decode is a function of
// the bytes, so equal bytes means equal batches).
void require_replay_is_exact_prefix(const JournalImage& image,
                                    const JournalReplay& replay,
                                    const std::string& what) {
  ASSERT_LE(replay.batches.size(), image.trace.size()) << what;
  std::vector<std::uint8_t> again;
  for (std::uint32_t b = 0; b < replay.batches.size(); ++b)
    encode_journal_record(replay.batches[b], b, again);
  ASSERT_EQ(again.size(), image.boundaries[replay.batches.size()]) << what;
  // std::equal, not memcmp: an empty `again` has a null data(), which
  // memcmp may not be passed even for a zero length.
  ASSERT_TRUE(std::equal(again.begin(), again.end(), image.bytes.begin()))
      << what;
}

TEST(Fuzz, JournalReplaySurvivesEveryTruncationPrefix) {
  // Post-hoc truncation at every byte: the replay must return exactly
  // the longest whole-record prefix, flag the torn tail with a
  // diagnostic, and never crash or mis-decode (ASan/UBSan in CI).
  const JournalImage image = make_journal_image(416);
  for (std::size_t len = 0; len <= image.bytes.size(); ++len) {
    const JournalReplay replay =
        replay_journal_bytes({image.bytes.data(), len});
    const std::string what = "len " + std::to_string(len);
    require_replay_is_exact_prefix(image, replay, what);
    ASSERT_EQ(replay.valid_bytes, image.boundaries[replay.batches.size()])
        << what;
    const bool at_boundary = replay.valid_bytes == len;
    ASSERT_EQ(replay.torn, !at_boundary) << what;
    if (!at_boundary) {
      ASSERT_FALSE(replay.diagnostic.empty()) << what;
    }
  }
}

TEST(Fuzz, JournalReplayRejectsEveryBitFlip) {
  // A single flipped bit anywhere in the image: the record containing it
  // must be rejected by the frame CRC (or the structural parse), ending
  // the replay exactly there — the accepted prefix is always intact.
  const JournalImage image = make_journal_image(417);
  Rng rng(417);
  for (int round = 0; round < 400; ++round) {
    const std::size_t bit = rng.next_below(image.bytes.size() * 8);
    std::vector<std::uint8_t> flipped = image.bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const JournalReplay replay =
        replay_journal_bytes({flipped.data(), flipped.size()});
    const std::string what = "bit " + std::to_string(bit);
    // The flip lands in record k: replay accepts exactly records 0..k-1.
    std::size_t k = 0;
    while (image.boundaries[k + 1] <= bit / 8) ++k;
    ASSERT_EQ(replay.batches.size(), k) << what;
    ASSERT_TRUE(replay.torn) << what;
    ASSERT_FALSE(replay.diagnostic.empty()) << what;
    require_replay_is_exact_prefix(image, replay, what);
  }
}

TEST(Fuzz, SnapshotCodecRejectsTruncationAndBitFlips) {
  // The snapshot decoder against a real captured image: every
  // truncation prefix and every sampled bit flip must be rejected with
  // a diagnostic — a versioned snapshot is accepted whole or not at all.
  const Problem base =
      testutil::small_tree_problem(418, 24, 2, 8, HeightLaw::kBimodal);
  DemandGenConfig demand_cfg;
  demand_cfg.heights = HeightLaw::kBimodal;
  OnlineTrafficSpec traffic;
  traffic.rate = 6.0;
  traffic.num_batches = 4;
  traffic.seed = 418;
  const std::vector<EventBatch> trace =
      make_event_trace(base, demand_cfg, traffic);
  OnlineConfig config;
  OnlineScheduler scheduler(base, config);
  for (const EventBatch& batch : trace) scheduler.step(batch);
  const std::vector<std::uint8_t> image =
      encode_snapshot(scheduler.capture());

  SchedulerSnapshot out;
  std::string error;
  ASSERT_TRUE(decode_snapshot(image, out, &error)) << error;

  for (std::size_t len = 0; len < image.size(); ++len) {
    error.clear();
    ASSERT_FALSE(decode_snapshot({image.data(), len}, out, &error))
        << "len " << len;
    ASSERT_FALSE(error.empty()) << "len " << len;
  }
  Rng rng(418);
  for (int round = 0; round < 400; ++round) {
    const std::size_t bit = rng.next_below(image.size() * 8);
    std::vector<std::uint8_t> flipped = image;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    error.clear();
    ASSERT_FALSE(decode_snapshot(flipped, out, &error)) << "bit " << bit;
    ASSERT_FALSE(error.empty()) << "bit " << bit;
  }
  // Every byte of the header individually flipped, too: magic, version,
  // seq, total length and the header checksum itself.
  for (std::size_t byte = 0; byte < 28 && byte < image.size(); ++byte) {
    std::vector<std::uint8_t> flipped = image;
    flipped[byte] ^= 0xFF;
    error.clear();
    ASSERT_FALSE(decode_snapshot(flipped, out, &error)) << "byte " << byte;
    ASSERT_FALSE(error.empty()) << "byte " << byte;
  }
}

// A text file split into whitespace-separated tokens, with the byte
// range of each and the indexes of its count fields, so a test can cut
// the file short or rewrite one count.
struct TextImage {
  std::string text;
  std::vector<std::size_t> start, end;  // token k is text[start[k], end[k])
  std::vector<std::size_t> counts;      // tokens that are count fields
};

TextImage tokenize(std::string text) {
  TextImage image;
  image.text = std::move(text);
  const std::string& t = image.text;
  for (std::size_t at = 0; at < t.size();) {
    if (std::isspace(static_cast<unsigned char>(t[at]))) {
      ++at;
      continue;
    }
    image.start.push_back(at);
    while (at < t.size() && !std::isspace(static_cast<unsigned char>(t[at])))
      ++at;
    image.end.push_back(at);
  }
  return image;
}

long long token_value(const TextImage& image, std::size_t k) {
  return std::stoll(
      image.text.substr(image.start[k], image.end[k] - image.start[k]));
}

// Records the count fields of demand records starting at token k, each
// `fields` tokens long before its access-set size.
void mark_demand_counts(TextImage& image, std::size_t k, long long demands,
                        std::size_t fields) {
  for (long long d = 0; d < demands; ++d) {
    image.counts.push_back(k + fields);
    k += fields + 1 + static_cast<std::size_t>(token_value(image, k + fields));
  }
}

// treesched-problem 1 vertices N networks R (network q (u v c)^(N-1))^R
// demands M (u v profit height A q^A)^M end
TextImage problem_image(const Problem& p) {
  std::ostringstream os;
  write_problem(os, p);
  TextImage image = tokenize(os.str());
  const long long n = token_value(image, 3), r = token_value(image, 5);
  const auto demands = static_cast<std::size_t>(6 + r * (2 + 3 * (n - 1)));
  image.counts = {3, 5, demands + 1};
  mark_demand_counts(image, demands + 2, token_value(image, demands + 1), 4);
  return image;
}

// treesched-line 1 slots S resources Q demands M
// (release deadline proc profit height A q^A)^M end
TextImage line_image(const LineProblem& line) {
  std::ostringstream os;
  write_line_problem(os, line);
  TextImage image = tokenize(os.str());
  image.counts = {7};
  mark_demand_counts(image, 8, token_value(image, 7), 5);
  return image;
}

// treesched-solution 1 C id^C
TextImage solution_image(const Solution& solution) {
  std::ostringstream os;
  write_solution(os, solution);
  TextImage image = tokenize(os.str());
  image.counts = {2};
  return image;
}

// `run` ends in a check_input diagnostic — never success, bad_alloc, a
// length error or an abort.
template <typename Run>
void expect_diagnostic(const Run& run, const std::string& what) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("treesched: ", 0), 0u) << what;
    return;
  }
  ADD_FAILURE() << what << ": accepted";
}

// The file parses whole; every prefix that drops its last token, and
// every rewrite of one count field to a value no file of this size can
// honor, ends in a check_input diagnostic.
template <typename Read>
void expect_damage_rejected(const TextImage& image, const Read& read,
                            Rng& rng, const std::string& what) {
  {
    std::istringstream is(image.text);
    EXPECT_NO_THROW(read(is)) << what;
  }
  const auto rejected = [&](const std::string& text, const std::string& how) {
    expect_diagnostic(
        [&] {
          std::istringstream is(text);
          read(is);
        },
        what + ", " + how);
  };
  for (std::size_t len = 0; len <= image.start.back(); ++len)
    rejected(image.text.substr(0, len), "prefix " + std::to_string(len));
  const auto with = [&](std::size_t k, const std::string& value) {
    return image.text.substr(0, image.start[k]) + value +
           image.text.substr(image.end[k]);
  };
  const auto tokens = static_cast<std::uint64_t>(image.start.size());
  for (const std::size_t k : image.counts) {
    for (const char* value : {"99999999999", "2147483647", "-1",
                              "-2147483648", "18446744073709551616", "x"})
      rejected(with(k, value),
               "count token " + std::to_string(k) + " = " + value);
    // More entries than the whole file has tokens.
    for (int t = 0; t < 4; ++t) {
      const std::string value =
          std::to_string(tokens + rng.next_below(1u << 20));
      rejected(with(k, value),
               "count token " + std::to_string(k) + " = " + value);
    }
  }
}

TEST(Fuzz, TextInputRejectsTruncationAndOversizeCounts) {
  // The text formats are untrusted input: a damaged problem, line or
  // solution file is rejected with a diagnostic before any count it
  // carries drives an allocation or a loop.
  Rng rng(419);
  for (std::uint64_t seed = 419; seed < 422; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    const Problem tree =
        testutil::small_tree_problem(seed, 16, 2, 6, HeightLaw::kBimodal);
    expect_damage_rejected(
        problem_image(tree), [](std::istream& is) { read_problem(is); }, rng,
        what + " problem");

    LineGenConfig cfg;
    cfg.num_slots = 20;
    cfg.num_resources = 3;
    cfg.num_demands = 6;
    cfg.max_proc_time = 5;
    cfg.access_size = 2;
    Rng gen(seed);
    expect_damage_rejected(
        line_image(make_random_line_problem(cfg, gen)),
        [](std::istream& is) { read_line_problem(is); }, rng,
        what + " line");

    Solution solution;
    solution.selected = {3, 1, 4, 1, 5};
    expect_damage_rejected(
        solution_image(solution),
        [](std::istream& is) { read_solution(is); }, rng, what + " solution");
  }
  // Line headers whose lowered problem overflows the int32 vertex or
  // edge ids.  Explicit cases, not sweep values: large slot counts in
  // range stay valid input.
  for (const char* header :
       {"slots 2147483647 resources 1", "slots 8 resources 2000000000"}) {
    expect_diagnostic(
        [&] {
          std::istringstream is(std::string("treesched-line 1 ") + header +
                                " demands 1 0 0 1 1 1 1 0 end");
          read_line_problem(is);
        },
        header);
  }
}

TEST(Fuzz, NearZeroHeightsAreRejectedNotMiscertified) {
  // A wide demand (profit 4) over the whole line and five narrow ones
  // (profit ~100 each) side by side under it.  Narrow heights near 0 put
  // xi = c/(c+h_min) within rounding of 1, so the stage count
  // ceil(log eps / log xi) leaves the int range (h = 1e-9) or is -inf
  // (h = 1e-17, xi == 1.0).  Both must be a diagnostic, never a run
  // whose narrow pass raised nothing under a finite ratio bound.
  const auto instance = [](double h) {
    std::vector<TreeNetwork> networks;
    networks.push_back(TreeNetwork::line(12));
    Problem p(12, std::move(networks));
    p.add_demand(0, 11, 4.0, 1.0);
    for (int k = 0; k < 5; ++k) p.add_demand(2 * k, 2 * k + 2, 100.0 + k, h);
    p.finalize();
    return p;
  };
  for (const char* h : {"1e-9", "1e-17"}) {
    const Problem p = instance(std::stod(h));
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    const std::string what = std::string("h=") + h;
    expect_diagnostic([&] { solve_height_split(p, plan, SolverConfig{}); },
                      what + " solve_height_split");
    expect_diagnostic([&] { run_tree_arbitrary_protocol(p, {}); },
                      what + " run_tree_arbitrary_protocol");
  }
  // Small but representable: millions of stages, and the bound holds.
  const Problem p = instance(1e-6);
  const DistResult run = solve_tree_arbitrary_distributed(p);
  EXPECT_GE(require_feasible(p, run.solution) * run.ratio_bound,
            testutil::exact_opt(p) - 1e-6);
}

TEST(Fuzz, ExactSolverOnDenseConflicts) {
  // Dense all-pairs conflicts: B&B must still complete quickly because
  // the per-demand branching collapses.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(4));
  Problem p(4, std::move(networks));
  for (int i = 0; i < 20; ++i)
    p.add_demand(0, 3, 1.0 + i);
  p.finalize();
  const ExactResult exact = solve_exact(p);
  ASSERT_TRUE(exact.completed);
  EXPECT_DOUBLE_EQ(exact.profit, 20.0);  // only the best fits
  EXPECT_LT(exact.nodes, 1000);
}

}  // namespace
}  // namespace treesched
