// Protocol-vs-engine parity (the message-level twin of
// test_engine_parity.cpp): the wire protocol — rendezvous discovery,
// sharded duals, budgeted per-node Luby, fixed schedules — must
// reproduce the modeled two-phase engine EXACTLY when the engine runs in
// lockstep mode driven by the ProtocolLubyMis mirror oracle.  Selected
// set, raise stack, lambda and the per-instance final LHS (also against
// a central DualState replay of the stack) are compared with ==, no
// tolerances: the protocol reads its shards through the ordered beta
// walk, so even the doubles are bit-identical.  The engine side runs the
// central reference AND the incremental engine with threads in {1, 4}
// (a no-op the axis pins), and the two-pass wide/narrow schedule and the
// non-uniform capacity profiles are held to the same standard.  Each
// pass's fixed-schedule round identity
//   rounds = tuples * (2*luby_budget + 1) + tuples
// and the whole run's identity (discovery + sum over passes) are
// asserted exactly.
#include "dist/protocol_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "decomp/layered.hpp"
#include "dist/luby_mis.hpp"
#include "dist/scheduler.hpp"
#include "framework/certify.hpp"
#include "framework/dual_state.hpp"
#include "framework/two_phase.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace treesched {
namespace {

// TREESCHED_TRACE=1 reruns this whole suite with the flight recorder on:
// the CI sanitizer job uses it to prove tracing cannot perturb any field
// compared with == below (the ISSUE's "tracing is invisible" guarantee).
[[maybe_unused]] const bool trace_env_hook = [] {
  if (std::getenv("TREESCHED_TRACE") != nullptr) obs::enable_tracing();
  return true;
}();

using testutil::replay_central_lhs;
using testutil::require_feasible;
using testutil::small_line_problem;
using testutil::small_tree_problem;

bool uses_codec(TransportKind kind) {
  // kFaulty frames every message through the checksummed codec; on a
  // masked run (the only kind the environment hook produces here — the
  // suites below hold it to bit-identity) its frame-codec counters
  // equal the message counters exactly like the plain serialized wires.
  return kind == TransportKind::kSerialized ||
         kind == TransportKind::kFaulty;
}

// The transport axis of the parity suite: reruns a protocol on the
// serialized wire and on the kFaulty framing layer (with no plan, or
// the environment's masked one) and holds every reported field —
// selection, stacks, final LHS, lambda, and all round/message/byte
// counters, per pass and total — to exact (==) equality with the
// reference run.  The codec counters must additionally account for every
// charged message (each one really encoded at post and decoded at drain).
template <typename RunFn>
void expect_transport_axis(const RunFn& rerun, const ProtocolRunResult& ref,
                           const std::string& what) {
  // The reference ran on whatever the environment resolved (in-proc
  // unless TREESCHED_TRANSPORT overrides); its codec counters must
  // already be consistent with that resolution.
  EXPECT_EQ(ref.codec_encoded, uses_codec(ref.transport) ? ref.messages : 0)
      << what;
  EXPECT_EQ(ref.codec_decoded, ref.codec_encoded) << what;
  for (const TransportKind kind :
       {TransportKind::kSerialized, TransportKind::kFaulty}) {
    const ProtocolRunResult got = rerun(kind);
    const std::string tag = what + " transport=" + to_string(kind);
    EXPECT_EQ(got.transport, kind) << tag;
    EXPECT_EQ(got.solution.selected, ref.solution.selected) << tag;
    // Doubles with ==: bit-identical across backends.
    EXPECT_EQ(got.lambda_observed, ref.lambda_observed) << tag;
    EXPECT_EQ(got.rounds, ref.rounds) << tag;
    EXPECT_EQ(got.messages, ref.messages) << tag;
    EXPECT_EQ(got.bytes, ref.bytes) << tag;
    EXPECT_EQ(got.discovery_rounds, ref.discovery_rounds) << tag;
    EXPECT_EQ(got.discovery_messages, ref.discovery_messages) << tag;
    EXPECT_EQ(got.discovery_bytes, ref.discovery_bytes) << tag;
    EXPECT_EQ(got.combine_rounds, ref.combine_rounds) << tag;
    EXPECT_EQ(got.mis_ok, ref.mis_ok) << tag;
    EXPECT_EQ(got.schedule_ok, ref.schedule_ok) << tag;
    ASSERT_EQ(got.passes.size(), ref.passes.size()) << tag;
    for (std::size_t i = 0; i < ref.passes.size(); ++i) {
      const ProtocolPass& a = got.passes[i];
      const ProtocolPass& b = ref.passes[i];
      const std::string ptag = tag + " pass=" + std::to_string(i);
      EXPECT_EQ(a.solution.selected, b.solution.selected) << ptag;
      EXPECT_EQ(a.raise_stack, b.raise_stack) << ptag;
      EXPECT_EQ(a.final_lhs, b.final_lhs) << ptag;
      EXPECT_EQ(a.lambda_observed, b.lambda_observed) << ptag;
      EXPECT_EQ(a.rounds, b.rounds) << ptag;
      EXPECT_EQ(a.messages, b.messages) << ptag;
      EXPECT_EQ(a.bytes, b.bytes) << ptag;
    }
    // The serialized wire demonstrably carried the run: every charged
    // message crossed the codec, in and out.
    EXPECT_EQ(got.codec_encoded, got.messages) << tag;
    EXPECT_EQ(got.codec_decoded, got.messages) << tag;
  }
}

// The engine-side configuration that mirrors a protocol run: lockstep
// schedule, same rule, capacity-aware raises (both defaults).
SolverConfig mirror_config(const ProtocolOptions& options,
                           RaiseRuleKind rule) {
  SolverConfig config;
  config.epsilon = options.epsilon;
  config.rule = rule;
  config.lockstep = true;
  config.keep_stack = true;
  return config;
}

// Asserts the exact per-pass and whole-run round accounting identities,
// including the converge-cast the better-of combination of a two-pass
// run is charged (zero for single-pass runs).
void expect_round_identity(const Problem& p, const ProtocolRunResult& run,
                           const std::string& what) {
  std::int64_t pass_rounds = 0;
  for (const ProtocolPass& pass : run.passes) {
    EXPECT_EQ(pass.tuples, static_cast<std::int64_t>(pass.epochs) *
                               pass.stages_per_epoch * pass.steps_per_stage)
        << what;
    EXPECT_EQ(pass.rounds, pass.tuples * (2 * run.luby_budget + 1) +
                               pass.tuples + pass.mis_retry_rounds)
        << what;
    pass_rounds += pass.rounds;
  }
  EXPECT_EQ(run.combine_rounds,
            run.passes.size() == 2 ? better_of_convergecast_rounds(p) : 0)
      << what;
  EXPECT_EQ(run.rounds,
            run.discovery_rounds + pass_rounds + run.combine_rounds)
      << what;
  EXPECT_EQ(run.discovery_rounds, 2) << what;
  EXPECT_EQ(run.discovery_bytes,
            run.discovery_registration_bytes + run.discovery_reply_bytes)
      << what;
}

// Compares one protocol pass against one modeled engine run with ==.
void expect_pass_matches(const ProtocolPass& pass, const SolveResult& got,
                         const std::string& what) {
  EXPECT_EQ(pass.solution.selected, got.solution.selected) << what;
  EXPECT_EQ(pass.raise_stack, got.raise_stack) << what;
  // Doubles with ==: bit-identical, not merely close.
  EXPECT_EQ(pass.lambda_observed, got.stats.lambda_observed) << what;
  EXPECT_EQ(pass.schedule_ok, got.stats.lockstep_ok) << what;
  EXPECT_EQ(pass.delta, got.stats.delta) << what;
  EXPECT_EQ(pass.xi, got.stats.xi) << what;
  EXPECT_EQ(pass.stages_per_epoch, got.stats.stages_per_epoch) << what;
  EXPECT_EQ(pass.mis_retries, got.stats.mis_retries) << what;
}

// Single-pass parity: run_distributed_protocol under options.rule vs the
// lockstep engine (central reference + incremental threads {1, 4}) with
// the mirror oracle, plus the central-replay final_lhs oracle and the
// round identity.
void expect_single_pass_parity(const Problem& p, const LayeredPlan& plan,
                               ProtocolOptions options,
                               const std::string& what) {
  options.keep_stack = true;
  const ProtocolRunResult run = run_distributed_protocol(p, plan, options);
  ASSERT_EQ(run.passes.size(), 1u) << what;
  require_feasible(p, run.solution);
  expect_round_identity(p, run, what);
  EXPECT_EQ(run.luby_budget, default_luby_budget(p.num_instances())) << what;

  const SolverConfig base = mirror_config(options, options.rule);
  for (const EngineImpl engine :
       {EngineImpl::kCentralReference, EngineImpl::kIncremental}) {
    for (const int threads : {1, 4}) {
      if (engine == EngineImpl::kCentralReference && threads > 1) continue;
      SolverConfig config = base;
      config.engine = engine;
      config.threads = threads;
      ProtocolLubyMis oracle(p, options.seed, run.luby_budget);
      const SolveResult got = solve_with_plan(p, plan, config, &oracle);
      expect_pass_matches(
          run.passes.front(), got,
          what + " engine=" + std::to_string(static_cast<int>(engine)) +
              " threads=" + std::to_string(threads));
      EXPECT_EQ(run.solution.selected, got.solution.selected) << what;
      EXPECT_EQ(run.lambda_observed, got.stats.lambda_observed) << what;
    }
  }

  // The sharded final LHS must equal a central replay of the same stack,
  // bit for bit (the whole vector, bystander instances included).
  EXPECT_EQ(run.passes[0].final_lhs,
            replay_central_lhs(p, plan, options.rule,
                               run.passes[0].raise_stack))
      << what;

  // And the whole run must be transport-invariant.
  expect_transport_axis(
      [&](TransportKind kind) {
        ProtocolOptions axis = options;
        axis.transport = kind;
        return run_distributed_protocol(p, plan, axis);
      },
      run, what);
}

// Two-pass parity: run_height_split_protocol vs (a) solve_height_split
// with the mirror oracle for the combined solution and merged lambda,
// (b) manual restricted engine runs for each pass's stack/lhs/lambda.
void expect_split_parity(const Problem& p, const LayeredPlan& plan,
                         ProtocolOptions options, const std::string& what) {
  options.keep_stack = true;
  const ProtocolRunResult run = run_height_split_protocol(p, plan, options);
  require_feasible(p, run.solution);
  expect_round_identity(p, run, what);

  const HeightClasses classes = classify_wide_narrow(p);
  const std::size_t expected_passes =
      (classes.has_wide() ? 1u : 0u) + (classes.has_narrow() ? 1u : 0u);
  ASSERT_EQ(run.passes.size(), expected_passes) << what;

  const SolverConfig base = mirror_config(options, RaiseRuleKind::kUnit);

  // (a) Combined: the engine-side height split with a fresh mirror
  // oracle must produce the same better-of selection and merged lambda.
  for (const EngineImpl engine :
       {EngineImpl::kCentralReference, EngineImpl::kIncremental}) {
    for (const int threads : {1, 4}) {
      if (engine == EngineImpl::kCentralReference && threads > 1) continue;
      SolverConfig config = base;
      config.engine = engine;
      config.threads = threads;
      ProtocolLubyMis oracle(p, options.seed, run.luby_budget);
      const SolveResult combined = solve_height_split(p, plan, config,
                                                      &oracle);
      const std::string tag =
          what + " engine=" + std::to_string(static_cast<int>(engine)) +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(run.solution.selected, combined.solution.selected) << tag;
      EXPECT_EQ(run.lambda_observed, combined.stats.lambda_observed) << tag;
      EXPECT_EQ(run.solution.profit(p), combined.stats.profit) << tag;
    }
  }

  // (b) Per pass: restricted engine runs sharing one mirror oracle (the
  // stream consumption is per instance, so the classes cannot interact).
  ProtocolLubyMis oracle(p, options.seed, run.luby_budget);
  for (const ProtocolPass& pass : run.passes) {
    SolverConfig config = base;
    config.rule = pass.rule;
    TwoPhaseEngine engine(p, plan, config, &oracle);
    engine.restrict_to(pass.rule == RaiseRuleKind::kUnit
                           ? classes.wide_ids
                           : classes.narrow_ids);
    const SolveResult part = engine.run();
    const std::string tag = what + " pass=" + to_string(pass.rule);
    expect_pass_matches(pass, part, tag);
    EXPECT_EQ(pass.final_lhs,
              replay_central_lhs(p, plan, pass.rule, pass.raise_stack))
        << tag;
  }

  // The two-pass run, including the better-of combination, must be
  // transport-invariant.
  expect_transport_axis(
      [&](TransportKind kind) {
        ProtocolOptions axis = options;
        axis.transport = kind;
        return run_height_split_protocol(p, plan, axis);
      },
      run, what);
}

TEST(ProtocolParity, TreeUnitBothDecompositions) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Problem p = small_tree_problem(seed, 32, 2, 16);
    for (const DecompKind kind :
         {DecompKind::kIdeal, DecompKind::kRootFixing}) {
      const LayeredPlan plan = build_tree_layered_plan(p, kind);
      ProtocolOptions options;
      options.epsilon = 0.2;
      options.seed = seed;
      expect_single_pass_parity(p, plan, options,
                                "tree-unit seed=" + std::to_string(seed) +
                                    " decomp=" + to_string(kind));
    }
  }
}

TEST(ProtocolParity, LineUnit) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Problem p = small_line_problem(seed, 24, 2, 8);
    const LayeredPlan plan = build_line_layered_plan(p);
    ProtocolOptions options;
    options.epsilon = 0.2;
    options.seed = seed + 7;
    expect_single_pass_parity(p, plan, options,
                              "line-unit seed=" + std::to_string(seed));
  }
}

TEST(ProtocolParity, NarrowRuleSinglePass) {
  // The kNarrow rule as a single mechanical pass over every instance
  // (quality-wise only sound all-narrow, but both implementations must
  // agree on any input).  height_min is kept high so the narrow xi stays
  // away from 1 and the stage count tractable.
  TreeScenarioSpec spec;
  spec.num_vertices = 28;
  spec.num_networks = 2;
  spec.demands.num_demands = 14;
  spec.demands.heights = HeightLaw::kNarrowOnly;
  spec.demands.height_min = 0.4;
  spec.demands.profit_max = 50.0;
  spec.seed = 11;
  const Problem p = make_tree_problem(spec);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions options;
  options.epsilon = 0.35;
  options.rule = RaiseRuleKind::kNarrow;
  expect_single_pass_parity(p, plan, options, "narrow-single-pass");
}

TEST(ProtocolParity, WideNarrowSplitOnTrees) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    TreeScenarioSpec spec;
    spec.num_vertices = 28;
    spec.num_networks = 2;
    spec.demands.num_demands = 14;
    spec.demands.heights = HeightLaw::kBimodal;
    spec.demands.height_min = 0.4;
    spec.demands.profit_max = 50.0;
    spec.seed = seed + 40;
    const Problem p = make_tree_problem(spec);
    for (const DecompKind kind :
         {DecompKind::kIdeal, DecompKind::kRootFixing}) {
      const LayeredPlan plan = build_tree_layered_plan(p, kind);
      ProtocolOptions options;
      options.epsilon = 0.35;
      options.seed = seed;
      expect_split_parity(p, plan, options,
                          "tree-split seed=" + std::to_string(seed) +
                              " decomp=" + to_string(kind));
    }
  }
}

TEST(ProtocolParity, WideNarrowSplitOnLines) {
  const Problem p = small_line_problem(5, 24, 2, 8, HeightLaw::kBimodal);
  const LayeredPlan plan = build_line_layered_plan(p);
  ProtocolOptions options;
  options.epsilon = 0.35;
  options.seed = 3;
  expect_split_parity(p, plan, options, "line-split");
}

TEST(ProtocolParity, AllWideDegeneratesToOnePass) {
  // Unit heights are all wide: the split wrapper must execute exactly
  // one kUnit pass and agree with the single-pass protocol verbatim.
  const Problem p = small_tree_problem(9, 28, 2, 12);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions options;
  options.epsilon = 0.2;
  options.keep_stack = true;
  const ProtocolRunResult split = run_height_split_protocol(p, plan, options);
  const ProtocolRunResult single = run_distributed_protocol(p, plan, options);
  ASSERT_EQ(split.passes.size(), 1u);
  EXPECT_EQ(split.passes.front().rule, RaiseRuleKind::kUnit);
  EXPECT_EQ(split.solution.selected, single.solution.selected);
  EXPECT_EQ(split.passes[0].raise_stack, single.passes[0].raise_stack);
  EXPECT_EQ(split.passes[0].final_lhs, single.passes[0].final_lhs);
  EXPECT_EQ(split.lambda_observed, single.lambda_observed);
  EXPECT_EQ(split.rounds, single.rounds);
  EXPECT_EQ(split.messages, single.messages);
  EXPECT_EQ(split.bytes, single.bytes);
}

TEST(ProtocolParity, NonUniformCapacityProfiles) {
  // src/capacity profiles end-to-end on the wire: the kTagRaise payloads
  // carry capacity-normalized increments, and the run must match the
  // engine exactly.
  for (const CapacityLaw law :
       {CapacityLaw::kTwoClass, CapacityLaw::kPowerClasses}) {
    TreeScenarioSpec spec;
    spec.num_vertices = 28;
    spec.num_networks = 2;
    spec.demands.num_demands = 14;
    spec.demands.profit_max = 50.0;
    spec.seed = 321;
    spec.capacities = law;
    spec.capacity_spread = 4.0;
    const Problem p = make_tree_problem(spec);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    ProtocolOptions options;
    options.epsilon = 0.2;
    options.seed = 5;
    expect_single_pass_parity(
        p, plan, options, std::string("nonuniform law=") + to_string(law));
  }
}

TEST(ProtocolParity, NonUniformSplitWithCapacities) {
  // Arbitrary heights AND non-uniform capacities: the two-pass schedule
  // with capacity-normalized increments, against both engines.
  TreeScenarioSpec spec;
  spec.num_vertices = 26;
  spec.num_networks = 2;
  spec.demands.num_demands = 12;
  spec.demands.heights = HeightLaw::kBimodal;
  spec.demands.height_min = 0.4;
  spec.demands.profit_max = 50.0;
  spec.seed = 77;
  spec.capacities = CapacityLaw::kTwoClass;
  spec.capacity_spread = 4.0;
  const Problem p = make_tree_problem(spec);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ProtocolOptions options;
  options.epsilon = 0.35;
  options.seed = 2;
  expect_split_parity(p, plan, options, "nonuniform-split");
}

TEST(ProtocolParity, WrapperBoundsAreFiniteAndOrdered) {
  // The message-level theorem wrappers report the same bound structure
  // as their modeled twins: unit < split on the same tree instance, and
  // the non-uniform bound carries the path-spread factor.
  const Problem p = small_tree_problem(3, 28, 2, 12);
  ProtocolOptions options;
  options.epsilon = 0.2;
  const ProtocolDistResult unit = run_tree_unit_protocol(p, options);
  const ProtocolDistResult arb = run_tree_arbitrary_protocol(p, options);
  require_feasible(p, unit.run.solution);
  require_feasible(p, arb.run.solution);
  EXPECT_GE(unit.ratio_bound, 1.0);
  // All-wide: the split runs one kUnit pass, so the bounds coincide.
  EXPECT_EQ(unit.ratio_bound, arb.ratio_bound);
  EXPECT_EQ(unit.run.solution.selected, arb.run.solution.selected);

  TreeScenarioSpec spec;
  spec.num_vertices = 24;
  spec.num_networks = 2;
  spec.demands.num_demands = 10;
  spec.demands.profit_max = 40.0;
  spec.seed = 9;
  spec.capacities = CapacityLaw::kTwoClass;
  spec.capacity_spread = 4.0;
  const Problem nonuni = make_tree_problem(spec);
  const ProtocolDistResult nu = run_nonuniform_protocol(nonuni, options);
  require_feasible(nonuni, nu.run.solution);
  const double spread = max_path_capacity_spread(nonuni);
  EXPECT_GE(spread, 1.0);
  ASSERT_EQ(nu.run.passes.size(), 1u);
  EXPECT_GE(nu.ratio_bound,
            proven_ratio_bound(nonuni, true, false,
                               nu.run.passes.front().delta,
                               1.0 - options.epsilon));
}

}  // namespace
}  // namespace treesched
