// Online warm-start parity: after every event batch, the incremental
// scheduler's assembled artifacts must equal — with exact ==, no
// tolerance — a cold solve of the same post-event problem.
//
// The invariant under test is the decomposition argument the scheduler
// rests on: conflict components evolve independently under the pinned
// class stage schedule, so splicing cached (untouched) components with
// freshly re-solved (touched) ones reproduces the cold run field for
// field: raise stack rows, their (group, stage, step) tags, the
// selected sets, lambda and the per-instance final LHS.  Exercised
// across arrival laws, height laws, thread counts {1, 4}, forced
// compaction, cold mode, and a fuzz arm replaying random event traces.
#include "online/online_scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "online/event_stream.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace treesched {
namespace {

using testutil::small_tree_problem;

void expect_class_equal(const ClassArtifacts& warm,
                        const ClassArtifacts& cold,
                        const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(warm.any, cold.any);
  EXPECT_EQ(warm.raise_stack, cold.raise_stack);
  ASSERT_EQ(warm.stack_tags.size(), cold.stack_tags.size());
  for (std::size_t r = 0; r < warm.stack_tags.size(); ++r) {
    EXPECT_EQ(warm.stack_tags[r].group, cold.stack_tags[r].group);
    EXPECT_EQ(warm.stack_tags[r].stage, cold.stack_tags[r].stage);
    EXPECT_EQ(warm.stack_tags[r].step, cold.stack_tags[r].step);
  }
  EXPECT_EQ(warm.solution.selected, cold.solution.selected);
  EXPECT_EQ(warm.lambda, cold.lambda);  // exact, no tolerance
  EXPECT_EQ(warm.final_lhs, cold.final_lhs);
}

void expect_parity(const OnlineScheduler& scheduler,
                   const SolverConfig& solver, const std::string& where) {
  const OnlineSolveArtifacts warm = scheduler.assemble();
  const OnlineSolveArtifacts cold = solve_cold(
      scheduler.problem(), scheduler.plan(), solver, scheduler.live_mask());
  expect_class_equal(warm.wide, cold.wide, where + " wide");
  expect_class_equal(warm.narrow, cold.narrow, where + " narrow");
  SCOPED_TRACE(where);
  EXPECT_EQ(warm.solution.selected, cold.solution.selected);
  EXPECT_EQ(warm.profit, cold.profit);
  EXPECT_EQ(warm.lambda, cold.lambda);
  const auto feas = check_feasibility(scheduler.problem(), warm.solution);
  EXPECT_TRUE(feas.feasible) << feas.violation;
}

// Replays a trace through the scheduler, holding warm == cold after
// every batch.
void run_parity(const Problem& base, const DemandGenConfig& demand_cfg,
                const OnlineTrafficSpec& traffic, OnlineConfig config,
                const std::string& label) {
  const std::vector<EventBatch> trace =
      make_event_trace(base, demand_cfg, traffic);
  OnlineScheduler scheduler(base, config);
  expect_parity(scheduler, config.solver, label + " initial");
  for (std::size_t b = 0; b < trace.size(); ++b) {
    const OnlineBatchReport report = scheduler.step(trace[b]);
    EXPECT_EQ(report.batch, static_cast<int>(b));
    expect_parity(scheduler, config.solver,
                  label + " batch " + std::to_string(b));
  }
}

OnlineConfig config_with_threads(int threads) {
  OnlineConfig config;
  config.solver.threads = threads;
  return config;
}

TEST(OnlineScheduler, WarmEqualsColdPoisson) {
  const Problem base = small_tree_problem(7, 32, 2, 12);
  DemandGenConfig demand_cfg;
  demand_cfg.heights = HeightLaw::kBimodal;
  OnlineTrafficSpec traffic;
  traffic.rate = 6.0;
  traffic.num_batches = 8;
  traffic.seed = 11;
  for (const int threads : {1, 4}) {
    run_parity(base, demand_cfg, traffic, config_with_threads(threads),
               "poisson t" + std::to_string(threads));
  }
}

TEST(OnlineScheduler, WarmEqualsColdBursty) {
  const Problem base = small_tree_problem(19, 40, 2, 10,
                                          HeightLaw::kUniformRange);
  DemandGenConfig demand_cfg;
  demand_cfg.heights = HeightLaw::kUniformRange;
  demand_cfg.endpoints = EndpointLaw::kLocalPair;
  demand_cfg.locality = 3;
  OnlineTrafficSpec traffic;
  traffic.arrivals = ArrivalLaw::kBursty;
  traffic.rate = 5.0;
  traffic.num_batches = 8;
  traffic.initial_population = 6;
  traffic.seed = 5;
  for (const int threads : {1, 4}) {
    run_parity(base, demand_cfg, traffic, config_with_threads(threads),
               "bursty t" + std::to_string(threads));
  }
}

TEST(OnlineScheduler, WarmEqualsColdDiurnalWithTenants) {
  const Problem base = small_tree_problem(23, 28, 3, 8);
  DemandGenConfig demand_cfg;
  demand_cfg.heights = HeightLaw::kBimodal;
  demand_cfg.access_size = 2;  // partial access sets
  OnlineTrafficSpec traffic;
  traffic.arrivals = ArrivalLaw::kDiurnal;
  traffic.rate = 4.0;
  traffic.num_batches = 10;
  traffic.seed = 3;
  TenantClass gold, bulk;
  gold.name = "gold";
  gold.rate_share = 1.0;
  gold.profit_scale = 3.0;
  gold.mean_lifetime = 12.0;
  bulk.name = "bulk";
  bulk.rate_share = 3.0;
  bulk.profit_scale = 0.5;
  bulk.mean_lifetime = 3.0;
  traffic.tenants = {gold, bulk};
  run_parity(base, demand_cfg, traffic, config_with_threads(1), "diurnal");
}

// Forced compaction: a tiny floor and slack make the tombstone purge
// trigger mid-trace; parity must survive the renumbering.
TEST(OnlineScheduler, WarmEqualsColdAcrossCompaction) {
  const Problem base = small_tree_problem(29, 24, 2, 6);
  DemandGenConfig demand_cfg;
  demand_cfg.heights = HeightLaw::kBimodal;
  OnlineTrafficSpec traffic;
  traffic.rate = 8.0;
  traffic.num_batches = 10;
  traffic.seed = 17;
  TenantClass churn;
  churn.mean_lifetime = 1.0;  // fast departures: tombstones accumulate
  traffic.tenants = {churn};
  OnlineConfig config;
  config.compaction_floor = 4;
  config.compaction_slack = 0.25;
  const std::vector<EventBatch> trace =
      make_event_trace(base, demand_cfg, traffic);
  OnlineScheduler scheduler(base, config);
  bool compacted = false;
  for (std::size_t b = 0; b < trace.size(); ++b) {
    compacted |= scheduler.step(trace[b]).compacted;
    expect_parity(scheduler, config.solver,
                  "compaction batch " + std::to_string(b));
  }
  EXPECT_TRUE(compacted) << "trace never triggered a compaction; the "
                            "arm is not exercising the purge path";
}

// Cold mode re-solves everything every batch; it must agree with the
// reference too (it shares the assemble path, not the engine entry).
TEST(OnlineScheduler, ColdModeMatchesReference) {
  const Problem base = small_tree_problem(31, 24, 2, 8);
  DemandGenConfig demand_cfg;
  OnlineTrafficSpec traffic;
  traffic.rate = 4.0;
  traffic.num_batches = 4;
  traffic.seed = 9;
  OnlineConfig config;
  config.mode = OnlineSolveMode::kCold;
  run_parity(base, demand_cfg, traffic, config, "cold-mode");
}

// Warm skip must actually happen: on a steady trace the touched set
// should be a strict subset of the components at least once.
TEST(OnlineScheduler, WarmRunsSkipUntouchedComponents) {
  const Problem base = small_tree_problem(41, 64, 2, 30);
  DemandGenConfig demand_cfg;
  demand_cfg.endpoints = EndpointLaw::kLocalPair;
  demand_cfg.locality = 2;
  OnlineTrafficSpec traffic;
  traffic.rate = 2.0;
  traffic.num_batches = 8;
  traffic.seed = 13;
  const std::vector<EventBatch> trace =
      make_event_trace(base, demand_cfg, traffic);
  OnlineConfig config;
  OnlineScheduler scheduler(base, config);
  bool skipped_some = false;
  for (const EventBatch& batch : trace) {
    const OnlineBatchReport report = scheduler.step(batch);
    if (!report.params_changed && !report.compacted &&
        report.touched_components < report.total_components)
      skipped_some = true;
  }
  EXPECT_TRUE(skipped_some)
      << "every batch re-solved every component; warm start is inert";
}

// Fuzz arm: random event traces built directly (not via the arrival
// laws) — bursts of arrivals, random departures of random live keys,
// empty batches, departure-only batches — across seeds and thread
// counts, parity after every batch.
TEST(OnlineScheduler, FuzzRandomEventTraces) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Problem base =
        small_tree_problem(100 + seed, 28, 2, 8, HeightLaw::kBimodal);
    DemandGenConfig demand_cfg;
    demand_cfg.heights = HeightLaw::kBimodal;
    const DemandSampler sampler(base, demand_cfg);
    Rng rng(seed * 977 + 5);
    OnlineConfig config;
    config.solver.threads = seed % 2 == 0 ? 4 : 1;
    config.compaction_floor = 8;
    OnlineScheduler scheduler(base, config);
    std::vector<DemandKey> live;
    DemandKey next_key = 0;
    for (int b = 0; b < 12; ++b) {
      EventBatch batch;
      batch.time = static_cast<double>(b);
      const int arrivals =
          b % 4 == 3 ? 0 : static_cast<int>(rng.uniform_int(0, 6));
      for (int k = 0; k < arrivals; ++k) {
        OnlineArrival arrival;
        arrival.key = next_key++;
        arrival.draw = sampler.next(rng);
        live.push_back(arrival.key);
        batch.arrivals.push_back(std::move(arrival));
      }
      const int departures = static_cast<int>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size() / 2 + 1)));
      for (int k = 0; k < departures && !live.empty(); ++k) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(live.size())));
        batch.departures.push_back(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
      scheduler.step(batch);
      expect_parity(scheduler, config.solver,
                    "fuzz seed " + std::to_string(seed) + " batch " +
                        std::to_string(b));
    }
  }
}

// ComponentForest::update must produce the identical forest a fresh
// build over the revised mask would, through a chain of random deltas.
TEST(ComponentForestUpdate, MatchesFreshBuildThroughRandomDeltas) {
  const Problem problem = small_tree_problem(55, 32, 2, 20,
                                             HeightLaw::kBimodal);
  const int n = problem.num_instances();
  Rng rng(123);
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (InstanceId i = 0; i < n; ++i)
    mask[static_cast<std::size_t>(i)] = rng.chance(0.7) ? 1 : 0;

  ComponentForest incremental, reference;
  incremental.build(problem, mask);
  for (int round = 0; round < 20; ++round) {
    std::vector<InstanceId> added, removed;
    for (InstanceId i = 0; i < n; ++i) {
      if (!rng.chance(0.15)) continue;
      auto& m = mask[static_cast<std::size_t>(i)];
      if (m) {
        m = 0;
        removed.push_back(i);
      } else {
        m = 1;
        added.push_back(i);
      }
    }
    incremental.update(problem, mask, added, removed);
    reference.build(problem, mask);
    ASSERT_EQ(incremental.num_components(), reference.num_components())
        << "round " << round;
    for (int c = 0; c < reference.num_components(); ++c) {
      const auto got = incremental.component_members(c);
      const auto want = reference.component_members(c);
      ASSERT_EQ(std::vector<InstanceId>(got.begin(), got.end()),
                std::vector<InstanceId>(want.begin(), want.end()))
          << "round " << round << " comp " << c;
    }
    for (InstanceId i = 0; i < n; ++i) {
      EXPECT_EQ(incremental.component_of(i) >= 0,
                mask[static_cast<std::size_t>(i)] != 0);
      EXPECT_EQ(incremental.component_of(i), reference.component_of(i));
    }
  }
}

}  // namespace
}  // namespace treesched
