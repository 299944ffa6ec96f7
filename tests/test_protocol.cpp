// Message-level protocol scheduler (paper, Section 5 "Distributed
// Implementation"): the full two-phase algorithm as real messages on the
// synchronous runtime, with every schedule length fixed up front.  These
// tests validate feasibility, the Lemma 5.1 budget sufficiency, the exact
// round-accounting identity, determinism, and quality against the exact
// optimum and against the modeled engine.
#include "dist/protocol_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dist/scheduler.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::exact_opt;
using testutil::require_feasible;
using testutil::small_line_problem;
using testutil::small_tree_problem;

TEST(Protocol, FeasibleAndBudgetsSuffice) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = small_tree_problem(seed + 700, 20, 2, 9);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    ProtocolOptions options;
    options.epsilon = 0.2;
    options.seed = seed;
    const ProtocolRunResult run = run_distributed_protocol(p, plan, options);
    require_feasible(p, run.solution);
    EXPECT_TRUE(run.mis_ok) << "Luby budget too small at seed " << seed;
    EXPECT_TRUE(run.schedule_ok) << "step budget too small at seed " << seed;
    EXPECT_GE(run.lambda_observed, 1.0 - 0.2 - 1e-6);
  }
}

TEST(Protocol, WithinTheoremBoundAgainstExact) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = small_tree_problem(seed + 720, 18, 2, 8);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    ProtocolOptions options;
    options.epsilon = 0.1;
    options.seed = seed;
    const ProtocolRunResult run = run_distributed_protocol(p, plan, options);
    const Profit profit = require_feasible(p, run.solution);
    const Profit opt = exact_opt(p);
    const double bound = (plan.delta + 1.0) / (1.0 - options.epsilon);
    EXPECT_GE(profit * bound, opt - 1e-6) << "seed " << seed;
  }
}

TEST(Protocol, RoundAccountingIdentity) {
  const Problem p = small_tree_problem(9, 20, 2, 9);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions options;
  options.epsilon = 0.2;
  const ProtocolRunResult run = run_distributed_protocol(p, plan, options);
  // Discovery: 2 rendezvous rounds.  Phase 1: every (epoch, stage, step)
  // tuple spends 2 rounds per Luby iteration plus 1 raise round; phase 2
  // replays each tuple in 1 round.
  const std::int64_t tuples = static_cast<std::int64_t>(run.epochs) *
                              run.passes[0].stages_per_epoch *
                              run.steps_per_stage;
  EXPECT_EQ(run.discovery_rounds, 2);
  EXPECT_EQ(run.rounds,
            run.discovery_rounds + tuples * (2 * run.luby_budget + 1) + tuples);
  EXPECT_GT(run.discovery_messages, 0);
  EXPECT_GT(run.messages, run.discovery_messages);
  EXPECT_GT(run.bytes, 0);
}

TEST(Protocol, DeterministicBySeed) {
  const Problem p = small_tree_problem(11, 20, 2, 9);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions options;
  options.seed = 5;
  const ProtocolRunResult a = run_distributed_protocol(p, plan, options);
  const ProtocolRunResult b = run_distributed_protocol(p, plan, options);
  EXPECT_EQ(a.solution.selected, b.solution.selected);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Protocol, WorksOnLinePlans) {
  const Problem p = small_line_problem(13, 20, 2, 7, HeightLaw::kUnit, 1.6);
  const LayeredPlan plan = build_line_layered_plan(p);
  ProtocolOptions options;
  options.epsilon = 0.2;
  const ProtocolRunResult run = run_distributed_protocol(p, plan, options);
  require_feasible(p, run.solution);
  EXPECT_TRUE(run.schedule_ok);
  EXPECT_GE(run.lambda_observed, 0.8 - 1e-6);
}

TEST(Protocol, MatchesEngineQuality) {
  // The protocol and the modeled engine run different Luby randomness but
  // must land in the same quality regime: both feasible, both certified
  // against the same LP.
  const Problem p = small_tree_problem(15, 20, 2, 9);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions poptions;
  poptions.epsilon = 0.1;
  const ProtocolRunResult protocol =
      run_distributed_protocol(p, plan, poptions);
  DistOptions eoptions;
  eoptions.epsilon = 0.1;
  const DistResult engine = solve_tree_unit_distributed(p, eoptions);
  const Profit pp = require_feasible(p, protocol.solution);
  const Profit ep = require_feasible(p, engine.solution);
  const Profit opt = exact_opt(p);
  const double bound = (plan.delta + 1.0) / 0.9;
  EXPECT_GE(pp * bound, opt - 1e-6);
  EXPECT_GE(ep * bound, opt - 1e-6);
}

TEST(Protocol, SinglePassMirrorsPassBreakdown) {
  // The top-level schedule/oracle fields of a single-pass run are the
  // pass's own, verbatim.
  const Problem p = small_tree_problem(21, 20, 2, 9);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions options;
  options.epsilon = 0.2;
  options.keep_stack = true;
  const ProtocolRunResult run = run_distributed_protocol(p, plan, options);
  ASSERT_EQ(run.passes.size(), 1u);
  const ProtocolPass& pass = run.passes.front();
  EXPECT_EQ(pass.rule, RaiseRuleKind::kUnit);
  EXPECT_EQ(run.epochs, pass.epochs);
  EXPECT_EQ(run.steps_per_stage, pass.steps_per_stage);
  EXPECT_EQ(run.solution.selected, pass.solution.selected);
  EXPECT_EQ(run.mis_ok, pass.mis_ok);
  EXPECT_EQ(run.schedule_ok, pass.schedule_ok);
  EXPECT_EQ(run.lambda_observed, pass.lambda_observed);
  EXPECT_EQ(run.rounds, run.discovery_rounds + pass.rounds);
}

TEST(Protocol, TwoPassAccountingIdentity) {
  // The Section 6 schedule: rounds = discovery + sum over passes of
  // tuples*(2L+1) + tuples, with per-pass budgets derived from each
  // pass's own (rule, Delta, h_min).
  TreeScenarioSpec spec;
  spec.num_vertices = 24;
  spec.num_networks = 2;
  spec.demands.num_demands = 12;
  spec.demands.heights = HeightLaw::kBimodal;
  spec.demands.height_min = 0.4;
  spec.demands.profit_max = 50.0;
  spec.seed = 31;
  const Problem p = make_tree_problem(spec);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions options;
  options.epsilon = 0.35;
  const ProtocolRunResult run = run_height_split_protocol(p, plan, options);
  require_feasible(p, run.solution);
  ASSERT_EQ(run.passes.size(), 2u);
  EXPECT_EQ(run.passes[0].rule, RaiseRuleKind::kUnit);
  EXPECT_EQ(run.passes[1].rule, RaiseRuleKind::kNarrow);
  // The narrow pass's schedule is its own: different xi, more stages.
  EXPECT_GT(run.passes[1].stages_per_epoch,
            run.passes[0].stages_per_epoch);
  std::int64_t pass_rounds = 0;
  for (const ProtocolPass& pass : run.passes) {
    EXPECT_EQ(pass.tuples, static_cast<std::int64_t>(pass.epochs) *
                               pass.stages_per_epoch * pass.steps_per_stage);
    EXPECT_EQ(pass.rounds,
              pass.tuples * (2 * run.luby_budget + 1) + pass.tuples);
    pass_rounds += pass.rounds;
  }
  // Two passes actually combined: the better-of converge-cast is charged
  // on top of the tuple schedule.
  EXPECT_EQ(run.combine_rounds, better_of_convergecast_rounds(p));
  EXPECT_GT(run.combine_rounds, 0);
  EXPECT_EQ(run.rounds,
            run.discovery_rounds + pass_rounds + run.combine_rounds);
  EXPECT_TRUE(run.schedule_ok);
  EXPECT_GE(run.lambda_observed, 1.0 - options.epsilon - 1e-6);
}

TEST(Protocol, DelayedFrameRunMatchesRecordedCounters) {
  // A masked fault plan whose delayed originals are still in flight when
  // the protocol charges a run of silent tuples: the charge must tick and
  // settle them exactly as stepping the silent rounds one by one did.
  // The expected values were recorded from the implementation that
  // stepped every round of the fixed schedule, before silent tuples were
  // charged in one advance.  dup_dropped is the field a charge that
  // forgot the in-flight countdowns would move.
  TreeScenarioSpec spec;
  spec.num_vertices = 24;
  spec.num_networks = 2;
  spec.demands.num_demands = 12;
  spec.demands.heights = HeightLaw::kBimodal;
  spec.demands.height_min = 0.4;
  spec.demands.profit_max = 50.0;
  spec.seed = 31;
  const Problem p = make_tree_problem(spec);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions options;
  options.epsilon = 0.35;
  options.seed = 5;
  options.transport = TransportKind::kSerialized;
  options.faults = parse_fault_plan(
      "drop=0.05,dup=0.05,corrupt=0.02,reorder=0.1,delay=0.2,maxdelay=3,"
      "seed=17");
  const ProtocolRunResult run = run_height_split_protocol(p, plan, options);
  ASSERT_FALSE(run.degraded);
  ASSERT_EQ(run.passes.size(), 2u);
  EXPECT_EQ(run.passes[0].tuples + run.passes[1].tuples, 224 + 1536);
  EXPECT_EQ(run.rounds, 45773);
  EXPECT_EQ(run.messages, 446);
  EXPECT_EQ(run.bytes, 19328);
  // posted, delivered, dropped, duplicated, corrupted, delayed,
  // reordered, retransmits, dup_dropped, corrupt_dropped,
  // corrupt_undetected, lost.
  EXPECT_EQ(testutil::fault_fields(run.fault),
            (std::vector<std::int64_t>{446, 446, 21, 19, 7, 96, 18, 130, 115,
                                       9, 0, 0}));
  EXPECT_EQ(run.solution.selected, (std::vector<InstanceId>{18, 13, 23}));
}

TEST(Protocol, ArbitraryHeightsWithinTheoremBound) {
  // Theorem 6.3 message-level: the two-pass run's profit certifies the
  // exact optimum through the combined wide+narrow bound.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    TreeScenarioSpec spec;
    spec.num_vertices = 20;
    spec.num_networks = 2;
    spec.demands.num_demands = 9;
    spec.demands.heights = HeightLaw::kBimodal;
    spec.demands.height_min = 0.4;
    spec.demands.profit_max = 50.0;
    spec.seed = seed + 60;
    const Problem p = make_tree_problem(spec);
    ProtocolOptions options;
    options.epsilon = 0.35;
    options.seed = seed;
    const ProtocolDistResult run = run_tree_arbitrary_protocol(p, options);
    const Profit profit = require_feasible(p, run.run.solution);
    const Profit opt = exact_opt(p);
    EXPECT_GE(profit * run.ratio_bound, opt - 1e-6) << "seed " << seed;
  }
}

TEST(Protocol, NonUniformCapacitiesOnTheWire) {
  // kTagRaise increments are capacity-normalized: the non-uniform
  // profiles run end-to-end message-level and the certificate holds.
  TreeScenarioSpec spec;
  spec.num_vertices = 20;
  spec.num_networks = 2;
  spec.demands.num_demands = 9;
  spec.demands.profit_max = 50.0;
  spec.seed = 17;
  spec.capacities = CapacityLaw::kTwoClass;
  spec.capacity_spread = 4.0;
  const Problem p = make_tree_problem(spec);
  ProtocolOptions options;
  options.epsilon = 0.2;
  const ProtocolDistResult aware = run_nonuniform_protocol(p, options);
  const Profit profit = require_feasible(p, aware.run.solution);
  EXPECT_TRUE(aware.run.schedule_ok);
  EXPECT_GE(aware.run.lambda_observed, 1.0 - options.epsilon - 1e-6);
  const Profit opt = exact_opt(p);
  EXPECT_GE(profit * aware.ratio_bound, opt - 1e-6);
}

TEST(Protocol, IsolatedDemandsAllScheduled) {
  // No conflicts at all: every demand must be scheduled despite the full
  // fixed-schedule machinery running.  The only traffic is the discovery
  // registrations — with empty neighborhoods, phases 1 and 2 run in
  // silence.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(10));
  Problem p(10, std::move(networks));
  p.add_demand(0, 2, 3.0);
  p.add_demand(3, 5, 2.0);
  p.add_demand(6, 9, 1.0);
  p.finalize();
  const LayeredPlan plan = build_line_layered_plan(p);
  const ProtocolRunResult run = run_distributed_protocol(p, plan, {});
  EXPECT_EQ(run.solution.selected.size(), 3u);
  EXPECT_GT(run.discovery_messages, 0);
  EXPECT_EQ(run.messages, run.discovery_messages);
}

}  // namespace
}  // namespace treesched
