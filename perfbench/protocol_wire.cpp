// protocol-wire: run_tree_arbitrary_protocol, the Section 6 two-pass
// wide/narrow protocol, on the serialized transport.  One 128-vertex
// random tree with 2 networks and 96 bimodal-height demands is solved
// once per Luby seed in a closed loop; a lap is kLapRuns Luby seeds.  A
// run spends ~1.8M synchronous rounds on a few thousand messages, so wall
// time is the runtime and transport cost per round over the fixed
// idle-tuple schedule; no engine or online code runs.
//
// The problem is part of the workload and the seed picks the Luby seeds.
// The schedule length is fixed by the problem — the narrow pass alone runs
// ~(1 + 2 Delta^2) / h_min stages per epoch — so problems drawn per seed
// would change the round count by tens of percent between seeds.
#include <optional>
#include <string>

#include "bench.hpp"
#include "capacity/capacity_profile.hpp"
#include "decomp/layered.hpp"
#include "dist/discovery.hpp"
#include "dist/runtime.hpp"
#include "dist/scheduler.hpp"
#include "framework/two_phase.hpp"
#include "model/solution.hpp"
#include "obs/trace.hpp"
#include "workload/demand_gen.hpp"
#include "workload/tree_gen.hpp"

namespace perfbench {

using namespace treesched;

namespace {

constexpr int kSetups = 3;
constexpr int kMinLaps = 2;
constexpr int kLapRuns = 2;
constexpr VertexId kVertices = 128;
constexpr std::uint64_t kProblemSeed = 1;

Problem make_problem(double& finalize_ms) {
  Rng rng(kProblemSeed);
  Problem p(kVertices, make_networks(TreeShape::kRandomAttachment, kVertices,
                                     2, rng));
  apply_capacity_law(p, CapacityLaw::kUniform, 1.0, 1.0, rng);
  DemandGenConfig demands;
  demands.num_demands = 96;
  demands.heights = HeightLaw::kBimodal;
  add_random_demands(p, demands, rng);
  const auto start = Clock::now();
  p.finalize();
  finalize_ms = ms_since(start);
  return p;
}

// Run k of a lap uses its own Luby seed, derived from the run seed; the
// warm-up run (k = kLapRuns) uses one no lap repeats.
ProtocolOptions protocol_options(std::uint64_t run_seed, int k,
                                 TransportKind transport) {
  ProtocolOptions options;
  options.epsilon = 0.1;
  options.seed = run_seed * 1000003 + static_cast<std::uint64_t>(k);
  options.transport = transport;
  return options;
}

// What the serialized run must reproduce from the in-proc run, and every
// later lap from the first.
struct RunKey {
  std::vector<InstanceId> selected;
  std::int64_t rounds = 0, messages = 0, bytes = 0;
  friend bool operator==(const RunKey&, const RunKey&) = default;
};

RunKey key_of(const ProtocolRunResult& run) {
  return {run.solution.selected, run.rounds, run.messages, run.bytes};
}

bool run_ok(const Problem& p, const ProtocolRunResult& run) {
  return run.mis_ok && run.schedule_ok &&
         check_feasibility(p, run.solution).feasible;
}

// Deterministic results of the first lap, and wall-time sums.
struct Sums {
  double profit = 0.0, rounds = 0.0, bytes = 0.0, messages = 0.0;
  double discovery_bytes = 0.0, tuples = 0.0, mis_retries = 0.0;
  double wide_rounds = 0.0, narrow_rounds = 0.0;
  double inproc_ms = 0.0, wire_ms = 0.0;
};

}  // namespace

Report run_protocol_wire(const Options& options) {
  Report r;
  std::optional<Problem> problem;
  std::vector<double> finalize_ms;
  for (int k = 0; k < kSetups; ++k) {
    problem.reset();
    const auto start = Clock::now();
    double fin_ms = 0.0;
    problem.emplace(make_problem(fin_ms));
    run_tree_arbitrary_protocol(
        *problem,
        protocol_options(options.seed, kLapRuns, TransportKind::kSerialized));
    r.setup_s.push_back(ms_since(start) / 1e3);
    finalize_ms.push_back(fin_ms);
  }
  const Problem& p = *problem;
  r.events.assign(kLapRuns, 1.0);

  Sums sums;
  std::vector<RunKey> first_lap;
  const auto lap = [&](int index, bool traced) {
    const bool first = index == 0 && !traced;
    std::vector<double> walls;
    for (int k = 0; k < kLapRuns; ++k) {
      // A traced pass keeps only the last run's spans for the trace file.
      if (traced) obs::reset_trace();
      const auto start = Clock::now();
      ProtocolDistResult wire;
      {
        obs::SpanGuard span("bench", "protocol_serialized");
        wire = run_tree_arbitrary_protocol(
            p, protocol_options(options.seed, k, TransportKind::kSerialized));
      }
      const double wall_ms = ms_since(start);
      walls.push_back(wall_ms);
      const std::string what = "protocol-wire: lap " + std::to_string(index) +
                               ", Luby seed " + std::to_string(k);
      if (!first) {
        const RunKey& want = first_lap[static_cast<std::size_t>(k)];
        r.attempt(run_ok(p, wire.run) && key_of(wire.run) == want, what);
        if (!traced) sums.wire_ms += wall_ms;
        continue;
      }
      // The first lap checks the serialized run against the in-proc run.
      const auto inproc_start = Clock::now();
      ProtocolDistResult inproc;
      {
        obs::SpanGuard span("bench", "protocol_inproc");
        inproc = run_tree_arbitrary_protocol(
            p, protocol_options(options.seed, k, TransportKind::kInProc));
      }
      sums.inproc_ms += ms_since(inproc_start);
      sums.wire_ms += wall_ms;
      first_lap.push_back(key_of(wire.run));
      const ProtocolRunResult& run = wire.run;
      r.attempt(run_ok(p, run) && key_of(run) == key_of(inproc.run) &&
                    run.codec_encoded == run.messages &&
                    run.codec_decoded == run.messages,
                what);
      sums.profit += wire.profit;
      sums.rounds += static_cast<double>(run.rounds);
      sums.bytes += static_cast<double>(run.bytes);
      sums.messages += static_cast<double>(run.messages);
      sums.discovery_bytes += static_cast<double>(run.discovery_bytes);
      sums.mis_retries += static_cast<double>(run.mis_retries);
      for (const ProtocolPass& pass : run.passes) {
        sums.tuples += static_cast<double>(pass.tuples);
        (pass.rule == RaiseRuleKind::kUnit ? sums.wide_rounds
                                           : sums.narrow_rounds) +=
            static_cast<double>(pass.rounds);
      }
    }
    (traced ? r.traced_laps : r.laps).push_back(std::move(walls));
  };
  run_laps(options.seconds, kMinLaps, [&](int k) { lap(k, false); });
  r.profit_share = sums.profit / kLapRuns / offered_profit(p);
  if (!options.trace) return r;

  std::vector<double> plan_ms, discovery_ms, phase2_ms;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = Clock::now();
    {
      obs::SpanGuard span("bench", "plan");
      build_tree_layered_plan(p, DecompKind::kIdeal);
    }
    plan_ms.push_back(ms_since(start));

    std::vector<InstanceId> all(static_cast<std::size_t>(p.num_instances()));
    for (InstanceId i = 0; i < p.num_instances(); ++i)
      all[static_cast<std::size_t>(i)] = i;
    Runtime rt(RendezvousLayout::for_problem(p, p.num_instances()).total,
               TransportKind::kSerialized);
    start = Clock::now();
    {
      obs::SpanGuard span("bench", "discovery");
      discover_conflicts(p, {all.data(), all.size()}, rt);
    }
    discovery_ms.push_back(ms_since(start));
  }
  // Phase 2 alone: the central prune of each pass's kept raise stack.
  ProtocolOptions keep =
      protocol_options(options.seed, 0, TransportKind::kInProc);
  keep.keep_stack = true;
  const ProtocolDistResult kept = run_tree_arbitrary_protocol(p, keep);
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    bool same = true;
    {
      obs::SpanGuard span("bench", "phase2");
      for (const ProtocolPass& pass : kept.run.passes)
        same = same && prune_stack(p, pass.raise_stack).selected ==
                           pass.solution.selected;
    }
    phase2_ms.push_back(ms_since(start));
    r.attempt(same, "protocol-wire: phase 2 of the kept stacks");
  }
  const double runs = kLapRuns;
  const double wire_ms =
      sums.wire_ms / (runs * static_cast<double>(r.laps.size()));
  const double inproc_ms = sums.inproc_ms / runs;
  r.layer("model.lower_ms", median(finalize_ms));
  r.layer("decomp.plan_ms", median(plan_ms));
  r.layer("framework.phase2_ms", median(phase2_ms));
  r.layer("dist.discovery_ms", median(discovery_ms));
  r.layer("dist.inproc_solve_ms", inproc_ms);
  r.layer("dist.ns_per_round", wire_ms * 1e6 / (sums.rounds / runs));
  r.layer("dist.wire_rounds", sums.rounds / runs);
  r.layer("dist.wire_bytes", sums.bytes / runs);
  r.layer("dist.messages", sums.messages / runs);
  r.layer("dist.discovery_bytes", sums.discovery_bytes / runs);
  r.layer("dist.tuples", sums.tuples / runs);
  r.layer("dist.wide_rounds", sums.wide_rounds / runs);
  r.layer("dist.narrow_rounds", sums.narrow_rounds / runs);
  r.layer("dist.mis_retries", sums.mis_retries / runs);
  // Named: discovery, and the transport's share (serialized minus
  // in-proc).  The pass loop itself has no public boundary.
  const double named = median(discovery_ms) + (wire_ms - inproc_ms);
  r.layer("obs.unattributed_share", 1.0 - named / wire_ms);

  obs::enable_tracing();
  run_laps(options.seconds, kMinLaps, [&](int k) { lap(k, true); });
  obs::disable_tracing();
  obs::write_chrome_trace(options.workdir + "/trace.json");
  return r;
}

}  // namespace perfbench
