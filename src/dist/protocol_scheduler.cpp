#include "dist/protocol_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "dist/discovery.hpp"
#include "dist/luby_mis.hpp"
#include "dist/runtime.hpp"
#include "framework/certify.hpp"
#include "framework/dual_shard.hpp"
#include "framework/two_phase.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

namespace {

// Message tags beyond the Luby rounds (kLubyTagDraw/kLubyTagWinner) and
// the rendezvous rounds (kTagRegister/kTagBucket).
constexpr int kTagRaise = 2;  // payload: encode_raise() wire format
constexpr int kTagKeep = 3;   // phase 2: {}

// State shared by the passes of one protocol run: the runtime, the
// discovered neighborhoods, and the per-processor random streams.  The
// streams persist across passes (a processor owns one stream for the
// whole computation); the dual shards do not — each pass raises a fresh
// dual system, exactly as each restricted run of the modeled height
// split does.
struct ProtocolState {
  int n = 0;
  Runtime rt;
  DiscoveredNeighborhoods hood;
  std::vector<Rng> node_rng;
  std::vector<char> live;
  std::vector<double> draw;

  ProtocolState(const Problem& problem, const ProtocolOptions& options)
      : n(problem.num_instances()),
        rt(std::max(RendezvousLayout::for_problem(problem, n).total, 1),
           options.transport, &options.faults) {
    // One runtime node per instance plus the rendezvous owner nodes.  The
    // conflict neighborhoods are *discovered*, not built: the 2-round
    // edge-owner rendezvous replaces the global ConflictGraph and is
    // charged to the same counters as every other protocol round.
    TRACE_SPAN1("protocol", "discovery", "instances", n);
    std::vector<InstanceId> all(static_cast<std::size_t>(n));
    for (InstanceId i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
    hood = discover_conflicts(problem, {all.data(), all.size()}, rt);
    node_rng = make_node_streams(options.seed, n);
    live.assign(static_cast<std::size_t>(std::max(n, 1)), 0);
    draw.assign(static_cast<std::size_t>(std::max(n, 1)), 0.0);
  }
};

// One pass: `kind` over the instances with active[i] != 0, on fresh
// shards, under the pass's own fixed schedule.  Precondition: at least
// one active instance (the caller skips empty classes).
ProtocolPass run_pass(const Problem& problem, const LayeredPlan& plan,
                      RaiseRuleKind kind, const std::vector<char>& active,
                      const ProtocolOptions& options, int luby_budget,
                      ProtocolState& st) {
  const int n = st.n;
  const std::span<const std::vector<int>> neighbors{st.hood.neighbors.data(),
                                                    st.hood.neighbors.size()};
  const std::int64_t rounds_before = st.rt.round();
  const std::int64_t messages_before = st.rt.messages_sent();
  const std::int64_t bytes_before = st.rt.bytes_sent();

  obs::SpanGuard pass_span("protocol", "pass", "rule",
                           static_cast<std::int64_t>(kind));
  ProtocolPass pass;
  pass.rule = kind;
  for (InstanceId i = 0; i < n; ++i)
    if (active[static_cast<std::size_t>(i)]) ++pass.instances;
  pass_span.arg("instances", pass.instances);

  // The fixed schedule, shared derivation with the modeled engine:
  // derive_stage_params is the same call TwoPhaseEngine::prepare makes
  // for this rule and instance class.
  const StageParams params = derive_stage_params(problem, plan, active, kind,
                                                 options.epsilon);
  TS_REQUIRE(params.any_active);
  pass.epochs = plan.num_groups;
  pass.delta = params.delta;
  pass.h_min = params.h_min;
  pass.xi = params.xi;
  pass.stages_per_epoch = params.stages_per_epoch;
  pass.steps_per_stage = lockstep_step_budget(problem);

  // Per-processor dual shards, fresh for this pass: processor i stores
  // alpha of its demand and beta of its own path edges, nothing else.
  const RaiseRule rule(kind, problem);
  std::vector<DualShard> shard;
  shard.reserve(static_cast<std::size_t>(n));
  for (InstanceId i = 0; i < n; ++i) {
    shard.emplace_back(problem.instance(i).demand, problem.path(i));
  }

  const auto unsatisfied = [&](InstanceId i, double target) {
    // A purely local test: the shard holds every variable of i's
    // constraint, kept current by the applied raise propagations.
    const DemandInstance& inst = problem.instance(i);
    return shard[static_cast<std::size_t>(i)].lhs(rule.beta_coeff(inst)) <
           target * inst.profit - kEps * inst.profit;
  };
  // Drains every inbox holding mail, applying raise propagations to the
  // local shards (the one message type that may be in flight at step
  // ends).  It visits only the nodes with mail, and the runtime recycles
  // the inboxes, keeping the serialized backends' decode loop free of
  // steady-state allocation.
  const auto drain_and_apply = [&] {
    st.rt.drain_mail([&](int v, const std::vector<Message>& inbox) {
      for (const Message& m : inbox) {
        // Only raise propagations matter here.  On a *lossy* run a lost
        // winner notification can leave a dead node holding stale Luby
        // traffic it never drained — skip it; on any masked (or
        // fault-free) run nothing but kTagRaise can be in flight.
        if (m.tag != kTagRaise) continue;
        shard[static_cast<std::size_t>(v)].apply_raise(
            {m.data.data(), m.data.size()});
      }
    });
  };

  // ---- Phase 1: raise, one fixed-length tuple at a time -------------------
  // The processors run every tuple of the fixed schedule, but a tuple
  // with no participant is silent: nobody draws, posts or raises, and no
  // shard moves.  The simulator, which unlike a processor sees every
  // shard, steps only the tuples with a participant and charges the
  // silent ones' rounds through Runtime::advance_idle.  Once a step's
  // scan finds nobody below the stage target, the rest of the stage is
  // silent, and so is every later stage up to the first at which some
  // member fails `unsatisfied` — next_failing_stage, the engine's search
  // (framework/two_phase.hpp), finds it with one pass over the members.
  // Only a *raising* tuple is logged: its index in the fixed schedule,
  // its sorted winners (a row of pass.raise_stack, the modeled engine's
  // stack) and their raise amounts (which the degraded-mode certificate
  // replays).  A pass costs O(raising tuples + runs of silent stages),
  // however long its schedule.
  const std::int64_t tuple_rounds =
      2 * static_cast<std::int64_t>(luby_budget) + 1;
  const std::int64_t steps = pass.steps_per_stage;
  const int stages = pass.stages_per_epoch;
  // Charged rather than stepped, a schedule is bounded only by the round
  // counter: keep a whole run's total (two passes) well inside int64.
  check_input(static_cast<double>(plan.num_groups) * stages * steps *
                      static_cast<double>(tuple_rounds + 1) <=
                  0x1p61,
              "protocol schedule overflows the round counter");
  pass.tuples = static_cast<std::int64_t>(plan.num_groups) * stages * steps;
  const auto stage_target = [&](int j) { return 1.0 - std::pow(pass.xi, j); };

  std::vector<std::vector<InstanceId>>& rows = pass.raise_stack;
  std::vector<std::vector<double>> amount_log;
  std::vector<std::int64_t> row_tuple;
  std::vector<InstanceId> members;
  std::vector<int> participants;
  std::vector<InstanceId> winners;
  std::vector<double> increments;
  std::int64_t charged = 0;  // tuples stepped or charged so far
  std::int64_t stepped = 0;
  // Charges the silent tuples before `tuple`.
  const auto skip_to = [&](std::int64_t tuple) {
    st.rt.advance_idle((tuple - charged) * tuple_rounds);
    charged = tuple;
  };

  for (int g = 0; g < plan.num_groups; ++g) {
    members.clear();
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)])
      if (active[static_cast<std::size_t>(i)]) members.push_back(i);
    for (int j = next_failing_stage(members, 0, stages, stage_target,
                                    unsatisfied);
         j <= stages;
         j = next_failing_stage(members, j, stages, stage_target,
                                unsatisfied)) {
      const double target = stage_target(j);
      TRACE_SPAN2("protocol", "stage", "epoch", g, "stage", j);
      skip_to((static_cast<std::int64_t>(g) * stages + j - 1) * steps);
      std::int64_t s = 0;
      for (; s < steps; ++s) {
        // Participants: the pass's group members still below the stage
        // target (a local test against the processor's own shard).
        participants.clear();
        for (InstanceId i : members)
          if (unsatisfied(i, target)) participants.push_back(i);
        if (participants.empty()) break;  // the rest of the stage is silent
        for (int v : participants) st.live[static_cast<std::size_t>(v)] = 1;

        // Luby MIS, exactly luby_budget iterations of 2 rounds each.
        // Decided processors sit out the remaining iterations in silence.
        winners.clear();
        for (int iter = 0; iter < luby_budget; ++iter) {
          const std::vector<int> won = luby_iteration(
              neighbors, st.rt, participants, st.live, st.draw, st.node_rng);
          winners.insert(winners.end(), won.begin(), won.end());
        }
        // Adaptive budget retry: a starved step re-runs with the budget
        // doubled per attempt, up to kMisMaxRetries attempts — the same
        // loop (condition order, early exit, stream consumption) as the
        // mirror oracle ProtocolLubyMis::run, so the engine parity stays
        // exact.  The extra rounds are the adaptive part of the
        // otherwise-fixed schedule, broken out into mis_retry_rounds to
        // keep the round identity checkable.
        const auto any_live = [&] {
          for (int v : participants)
            if (st.live[static_cast<std::size_t>(v)]) return true;
          return false;
        };
        int attempt = 0;
        while (attempt < kMisMaxRetries && any_live()) {
          ++attempt;
          ++pass.mis_retries;
          TRACE_COUNTER("protocol.mis_retries", 1);
          const int extra = luby_budget << attempt;
          for (int iter = 0; iter < extra && any_live(); ++iter) {
            const std::int64_t r0 = st.rt.round();
            const std::vector<int> won = luby_iteration(
                neighbors, st.rt, participants, st.live, st.draw,
                st.node_rng);
            winners.insert(winners.end(), won.begin(), won.end());
            pass.mis_retry_rounds += st.rt.round() - r0;
          }
        }
        for (int v : participants) {
          if (st.live[static_cast<std::size_t>(v)]) {
            pass.mis_ok = false;  // budget exhausted with undecided nodes
            TRACE_COUNTER("protocol.luby_undecided_nodes", 1);
            st.live[static_cast<std::size_t>(v)] = 0;
          }
        }

        // Dual-propagation round: every MIS member raises its own shard
        // tightly and ships the increments to all conflicting neighbors,
        // which apply them on arrival.  The increments are whatever
        // tight_raise computed — capacity-normalized per edge when the
        // rule is capacity-aware — so the wire format carries the
        // non-uniform rules unchanged.
        std::sort(winners.begin(), winners.end());
        if (!winners.empty()) {
          row_tuple.push_back(charged);
          rows.push_back(winners);
          amount_log.emplace_back().reserve(winners.size());
        }
        for (InstanceId i : winners) {
          const DemandInstance& inst = problem.instance(i);
          const std::span<const EdgeId> critical = plan.critical(i);
          DualShard& mine = shard[static_cast<std::size_t>(i)];
          const double slack = inst.profit - mine.lhs(rule.beta_coeff(inst));
          // tight_raise is the same call the modeled engine makes — one
          // raise arithmetic for every implementation.
          const double amount =
              rule.tight_raise(inst, critical, slack, increments);
          amount_log.back().push_back(amount);
          mine.raise_alpha(amount);
          for (std::size_t c = 0; c < critical.size(); ++c)
            mine.raise_beta(critical[c], increments[c]);
          const std::vector<double> payload = encode_raise(
              inst.demand, amount, critical,
              {increments.data(), increments.size()});
          for (int u : neighbors[static_cast<std::size_t>(i)])
            st.rt.post(Message{i, u, kTagRaise, payload});
        }
        st.rt.step();
        drain_and_apply();
        ++charged;
        ++stepped;
      }
      // Lemma 5.1: the fixed step budget must have satisfied the stage.
      if (s == steps)
        for (InstanceId i : members)
          if (unsatisfied(i, target)) pass.schedule_ok = false;
    }
  }
  skip_to(pass.tuples);
  pass_span.arg("tuples_stepped", stepped);
  pass_span.arg("tuples_skipped", pass.tuples - stepped);

  // ---- Phase 2: reverse replay, 1 keep/drop round per tuple ---------------
  // The tuples run backwards; a logged tuple posts its kept winners' keep
  // notifications, and the silent rounds between logged tuples are
  // charged in one advance each.
  TRACE_SPAN("protocol", "phase2_replay");
  pass.solution = prune_stack(problem, rows);
  std::vector<char> kept(static_cast<std::size_t>(std::max(n, 1)), 0);
  for (InstanceId i : pass.solution.selected)
    kept[static_cast<std::size_t>(i)] = 1;
  std::vector<char> announced(static_cast<std::size_t>(std::max(n, 1)), 0);
  std::int64_t replayed = pass.tuples;  // tuples >= replayed are done
  for (std::size_t row = rows.size(); row-- > 0;) {
    st.rt.advance_idle(replayed - 1 - row_tuple[row]);
    for (InstanceId i : rows[row]) {
      if (!kept[static_cast<std::size_t>(i)]) continue;
      if (announced[static_cast<std::size_t>(i)]) continue;
      announced[static_cast<std::size_t>(i)] = 1;
      for (int u : neighbors[static_cast<std::size_t>(i)])
        st.rt.post(Message{i, u, kTagKeep, {}});
    }
    st.rt.step();
    st.rt.drain_mail([](int, const std::vector<Message>&) {});
    replayed = row_tuple[row];
  }
  st.rt.advance_idle(replayed);

  // Certification from the shards alone: every processor reports its own
  // satisfaction level; lambda is the minimum over the pass members.
  // final_lhs covers *all* instances — bystander shards applied the
  // incoming raises too, so the whole vector equals a central DualState
  // replay of the pass's stack.
  pass.final_lhs.resize(static_cast<std::size_t>(n));
  double lambda = 1.0;
  bool any = false;
  for (InstanceId i = 0; i < n; ++i) {
    const DemandInstance& inst = problem.instance(i);
    const double lhs =
        shard[static_cast<std::size_t>(i)].lhs(rule.beta_coeff(inst));
    pass.final_lhs[static_cast<std::size_t>(i)] = lhs;
    if (!active[static_cast<std::size_t>(i)]) continue;
    const double level = lhs / inst.profit;
    lambda = any ? std::min(lambda, level) : level;
    any = true;
  }
  pass.lambda_observed = any ? lambda : 1.0;

  pass.rounds = st.rt.round() - rounds_before;
  pass.messages = st.rt.messages_sent() - messages_before;
  pass.bytes = st.rt.bytes_sent() - bytes_before;

  // Degraded-mode contract: if the recovery layer lost a frame, the
  // shard-reported certificate may undercount — re-validate it against a
  // central replay of the logged raises (framework/certify.hpp).
  pass.degraded = st.rt.degraded();
  if (pass.degraded) {
    const ShardCertificate cert = validate_shard_certificate(
        problem, plan, rule, rows, amount_log,
        {pass.final_lhs.data(), pass.final_lhs.size()}, pass.lambda_observed,
        active);
    pass.certificate_ok = cert.valid;
  }

  if (!options.keep_stack) pass.raise_stack = {};
  return pass;
}

void begin_run(const Problem& problem, const LayeredPlan& plan,
               const ProtocolOptions& options) {
  TS_REQUIRE(problem.finalized());
  TS_REQUIRE(plan.group.size() ==
             static_cast<std::size_t>(problem.num_instances()));
  TS_REQUIRE(options.epsilon > 0.0 && options.epsilon < 1.0);
}

// The shared preamble of both entry points: the fixed schedule scalars
// every pass shares, plus the discovery share of the accounting.
ProtocolRunResult init_result(const Problem& problem, const LayeredPlan& plan,
                              const ProtocolState& st) {
  ProtocolRunResult result;
  result.discovery_rounds = st.hood.rounds;
  result.discovery_messages = st.hood.messages;
  result.discovery_bytes = st.hood.bytes;
  result.discovery_registration_bytes = st.hood.registration_bytes;
  result.discovery_reply_bytes = st.hood.reply_bytes;
  result.luby_budget = default_luby_budget(problem.num_instances());
  result.epochs = plan.num_groups;
  result.steps_per_stage = lockstep_step_budget(problem);
  return result;
}

void finish_run(ProtocolRunResult& result, const ProtocolState& st) {
  // combine_rounds is a modeled charge (the converge-cast is not
  // executed on the runtime), added on top of the rounds the runtime
  // counted.
  result.rounds = st.rt.round() + result.combine_rounds;
  result.messages = st.rt.messages_sent();
  result.bytes = st.rt.bytes_sent();
  result.transport = st.rt.transport_kind();
  result.codec_encoded = st.rt.codec_encoded();
  result.codec_decoded = st.rt.codec_decoded();
  result.degraded = st.rt.degraded();
  if (const FaultStats* fs = st.rt.fault_stats()) result.fault = *fs;
  // A pass's lambda_observed is always a real observed minimum (passes
  // run on non-empty classes only), so — unlike SolveStats::merge, whose
  // 0.0 means "no run contributed yet" — a 0.0 here is a genuine
  // finding (some member never got raised) and must survive the merge:
  // the theorem wrappers turn it into an infinite bound, never a false
  // certificate.
  bool any = false;
  for (const ProtocolPass& pass : result.passes) {
    result.mis_ok = result.mis_ok && pass.mis_ok;
    result.schedule_ok = result.schedule_ok && pass.schedule_ok;
    result.mis_retries += pass.mis_retries;
    result.certificate_ok = result.certificate_ok && pass.certificate_ok;
    result.lambda_observed =
        any ? std::min(result.lambda_observed, pass.lambda_observed)
            : pass.lambda_observed;
    any = true;
  }
  if (!any) result.lambda_observed = 1.0;
}

}  // namespace

ProtocolRunResult run_distributed_protocol(const Problem& problem,
                                           const LayeredPlan& plan,
                                           const ProtocolOptions& options) {
  begin_run(problem, plan, options);
  const int n = problem.num_instances();

  ProtocolState st(problem, options);
  ProtocolRunResult result = init_result(problem, plan, st);
  std::vector<char> all(static_cast<std::size_t>(std::max(n, 1)), 1);
  if (n > 0) {
    result.passes.push_back(run_pass(problem, plan, options.rule, all,
                                     options, result.luby_budget, st));
    result.solution = result.passes.front().solution;
  }
  finish_run(result, st);
  return result;
}

ProtocolRunResult run_height_split_protocol(const Problem& problem,
                                            const LayeredPlan& plan,
                                            const ProtocolOptions& options) {
  begin_run(problem, plan, options);
  ProtocolState st(problem, options);
  ProtocolRunResult result = init_result(problem, plan, st);

  // The Section 6 classes, from the same builder the modeled
  // solve_height_split uses.  A class with no members is skipped
  // entirely (it would be an all-idle schedule), matching the modeled
  // path, which runs one engine per non-empty class only.
  const HeightClasses classes = classify_wide_narrow(problem);
  if (classes.has_wide())
    result.passes.push_back(run_pass(problem, plan, RaiseRuleKind::kUnit,
                                     classes.wide_mask, options,
                                     result.luby_budget, st));
  if (classes.has_narrow())
    result.passes.push_back(run_pass(problem, plan, RaiseRuleKind::kNarrow,
                                     classes.narrow_mask, options,
                                     result.luby_budget, st));

  if (result.passes.size() == 1) {
    result.solution = result.passes.front().solution;
  } else if (result.passes.size() == 2) {
    // Per-network better-of combination (paper, Theorem 6.3): the same
    // helper the modeled solve_height_split uses — the two entry points
    // share one combination arithmetic, and the parity suite compares
    // the selected sets with ==.  The combination is not free on the
    // wire: charge the per-network converge-cast that elects the winner
    // (the same term the modeled solve_arbitrary charges).
    result.solution = combine_better_of_per_network(
        problem, result.passes[0].solution, result.passes[1].solution);
    result.combine_rounds = better_of_convergecast_rounds(problem);
  }
  finish_run(result, st);
  return result;
}

}  // namespace treesched
