// The full two-phase algorithm as a message-level protocol (paper,
// Section 5 "Distributed Implementation", generalized to the Section 6
// wide/narrow split and the non-uniform-bandwidth rules).
//
// In the real distributed setting no processor can test a global
// condition ("is some instance still unsatisfied?"), so *every* schedule
// length is fixed up front from globally known quantities:
//   epochs           = l_max (groups of the layered plan),
//   stages_per_epoch = ceil(log_xi eps)            (Section 5/6),
//   steps_per_stage  = O(log(pmax/pmin))           (Lemma 5.1/Claim 5.2),
//   luby_budget      = default_luby_budget(n) = O(log n) Luby iterations
//                      (w.h.p. termination).
// xi is derived per *pass* from the raising rule and the pass's observed
// (Delta, h_min) through derive_stage_params — the same derivation the
// modeled engine's prepare() uses, so the two cannot drift.
//
// Nothing in the run is global anymore:
//  - neighborhoods are learned by the 2-round edge-owner rendezvous of
//    dist/discovery.hpp (no ConflictGraph is materialized);
//  - the dual state is sharded per processor (framework/dual_shard.hpp):
//    a raise is applied to the winner's own shard and propagated to its
//    conflicting neighbors via kTagRaise messages, which the receivers
//    *apply* — every satisfaction test reads only the local shard.  The
//    kTagRaise payload carries the per-critical-edge increments exactly
//    as RaiseRule::tight_raise computed them, i.e. capacity-normalized
//    (delta/c(e) under kUnit: the protocol always raises capacity-aware)
//    — the non-uniform profiles of src/capacity work end-to-end on the
//    wire.
//
// A *pass* runs one raising rule over one instance class on fresh dual
// shards.  run_distributed_protocol executes a single pass under
// ProtocolOptions::rule; run_height_split_protocol executes the
// Section 6 two-pass schedule — wide instances (h > 1/2) under kUnit,
// the rest under kNarrow, each pass with its own fixed
// (epochs, stages, steps) budget — and combines the two pruned
// sub-solutions by the per-network better-of rule of Theorem 6.3,
// exactly as the modeled solve_height_split does.
//
// Every (epoch, stage, step) tuple spends exactly 2*luby_budget rounds of
// Luby protocol plus 1 dual-propagation round, whether or not any work
// remains — idle processors execute the rounds in silence.  Phase 2
// replays the tuples in reverse, 1 round each (keep/drop notification).
// The simulator sees what no processor can: that a tuple has no
// participant, so nobody draws, posts or raises in it.  It steps only
// the tuples with a participant and charges each run of silent tuples
// (the rest of a stage, the idle stages up to the next one at which
// some member is unsatisfied, found by the engine's next_failing_stage,
// and the replay rounds between logged tuples) in one
// Runtime::advance_idle, which leaves every counter, inbox, random
// stream and trace total exactly as stepping the rounds would.  Only a
// tuple whose MIS raised somebody is stored (ProtocolPass::raise_stack),
// so a pass holds O(n + raises) state and costs O(raising tuples + runs
// of silent stages) time, however long its fixed schedule runs.
// A two-pass run additionally charges the per-network better-of
// combination an honest converge-cast (better_of_convergecast_rounds in
// framework/two_phase.hpp: the profit totals cast up each tree, the
// verdict broadcasts back — O(depth) rounds, zero when only one class
// ran).  Hence the exact accounting identity the tests assert, per pass
// and in total:
//   rounds = discovery_rounds
//          + sum_pass [ tuples_pass * (2*luby_budget + 1) + tuples_pass ]
//          + combine_rounds,
//   tuples_pass = epochs * stages_per_epoch(pass) * steps_per_stage.
// Discovery runs once; the passes share the discovered neighborhoods.
//
// mis_ok reports whether every Luby computation decided all of its
// participants within the fixed budget; schedule_ok whether every stage's
// step budget left no unsatisfied instance behind (Lemma 5.1's
// prediction).  Both hold w.h.p.; the run remains feasible regardless.
//
// The whole pipeline is held to *exact* (==) equality against the
// modeled engine — lockstep TwoPhaseEngine runs driven by the
// ProtocolLubyMis mirror oracle — by tests/test_protocol_parity.cpp:
// selected set, raise stack, per-instance final LHS (also against a
// central DualState replay) and lambda, bit for bit.  To that end every
// satisfaction test and slack computation reads the shard through
// DualShard::lhs, whose ascending-edge beta walk is the float-for-float
// operation order of the central DualState.
#pragma once

#include <cstdint>
#include <vector>

#include "decomp/layered.hpp"
#include "dist/transport.hpp"
#include "framework/raise_rule.hpp"
#include "model/problem.hpp"
#include "model/solution.hpp"

namespace treesched {

struct ProtocolOptions {
  double epsilon = 0.1;  // target slackness 1-eps
  std::uint64_t seed = 1;
  // Raising rule of the single-pass run (run_distributed_protocol).  The
  // two-pass wide/narrow schedule ignores it and uses kUnit + kNarrow.
  RaiseRuleKind rule = RaiseRuleKind::kUnit;
  // Retain the per-pass raise stacks in the result (test oracle for the
  // central-replay and engine parity checks).
  bool keep_stack = false;
  // Communication backend of the run (dist/transport.hpp).  Every
  // backend produces bit-identical results and counters; kDefault
  // resolves through the TREESCHED_TRANSPORT environment hook.
  TransportKind transport = TransportKind::kDefault;
  // Fault injection: a non-empty plan wraps the transport in the kFaulty
  // recovery layer (checksummed, sequence-numbered frames with bounded
  // in-barrier retransmit — see dist/transport.hpp).  Whenever the
  // recovery layer masks the plan, the run's results are bit-identical
  // to the fault-free run; when the retransmit budget exhausts, the run
  // is flagged degraded and its certificate is re-validated centrally.
  FaultPlan faults;
};

// One executed pass of the protocol: a raising rule over an instance
// class, on fresh dual shards, under its own fixed schedule.
struct ProtocolPass {
  RaiseRuleKind rule = RaiseRuleKind::kUnit;
  int instances = 0;  // pass members (the active instance class)
  // The fixed schedule of this pass.
  int epochs = 0;
  int stages_per_epoch = 0;
  int steps_per_stage = 0;
  int delta = 0;     // observed max |pi(d)| over the pass members
  double h_min = 1.0;
  double xi = 0.0;
  // Round accounting of this pass alone (identity:
  // rounds = tuples * (2*luby_budget + 1) + tuples + mis_retry_rounds).
  std::int64_t tuples = 0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  // Budget sufficiency (w.h.p. guarantees, observed).
  bool mis_ok = true;
  bool schedule_ok = true;
  // Adaptive MIS budget retries: attempts entered (one per starved step
  // per doubling) and the extra rounds their executed iterations cost —
  // the adaptive part of the otherwise-fixed schedule, broken out so the
  // round identity above stays exact.  Matches the modeled engine's
  // SolveStats::mis_retries in lockstep (compared with ==).
  std::int64_t mis_retries = 0;
  std::int64_t mis_retry_rounds = 0;
  // Degraded-mode contract: degraded is true iff the transport's
  // recovery layer lost a frame by the end of this pass (monotone across
  // a run's passes).  On a degraded pass the shard-reported certificate
  // (final_lhs, lambda_observed) is re-validated against a central
  // replay of the actually-applied raise amounts — certificate_ok says
  // the reported values are conservative (shard LHS can only
  // *undercount* under loss, so lambda stays a valid slackness bound).
  bool degraded = false;
  bool certificate_ok = true;
  // min LHS/p over the pass members (the pass's certified slackness).
  double lambda_observed = 1.0;
  // Phase-2 prune of this pass's stack (pre-combination).
  Solution solution;
  // Per-instance final dual LHS as the shards see it — all instances,
  // not just pass members: bystander shards apply incoming raises too,
  // so the whole vector must match a central DualState replay of the
  // pass's raise stack (and does, exactly).
  std::vector<double> final_lhs;
  // The pass's raise log: one row per *raising* tuple, in raise order,
  // holding its winners in ascending id — exactly the modeled engine's
  // stack.  Idle tuples leave no row.  Phase 2 and the degraded-mode
  // certificate read it; the result keeps it only when keep_stack.
  std::vector<std::vector<InstanceId>> raise_stack;
};

struct ProtocolRunResult {
  Solution solution;
  // The schedule scalars every pass shares.  Stage counts, raise stacks
  // and final LHS are per pass: read them from passes[].
  int epochs = 0;
  int steps_per_stage = 0;
  // Luby iterations per MIS computation, default_luby_budget(n); a
  // starved computation retries with a doubled budget, up to
  // kMisMaxRetries (dist/luby_mis.hpp) times.
  int luby_budget = 0;
  // Runtime accounting (totals include the discovery share, which is
  // also broken out; see dist/discovery.hpp for the registration/reply
  // byte split).
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t discovery_rounds = 0;
  std::int64_t discovery_messages = 0;
  std::int64_t discovery_bytes = 0;
  std::int64_t discovery_registration_bytes = 0;
  std::int64_t discovery_reply_bytes = 0;
  // Rounds charged to the per-network better-of combination of a
  // two-pass run (better_of_convergecast_rounds: each network
  // converge-casts the two profit totals and broadcasts the winner,
  // O(depth) rounds).  Zero when fewer than two passes ran; included in
  // `rounds`, so the whole-run identity is
  //   rounds = discovery_rounds + sum_pass pass.rounds + combine_rounds.
  std::int64_t combine_rounds = 0;
  // Budget sufficiency over all passes (AND).
  bool mis_ok = true;
  bool schedule_ok = true;
  // Merged slackness over the passes (min, as SolveStats::merge takes it).
  double lambda_observed = 0.0;
  // One entry per executed pass (an instance class with no members is
  // skipped and contributes no pass, like the modeled height split).
  std::vector<ProtocolPass> passes;
  // The resolved transport backend the run executed on, and its codec
  // hit counters: 0/0 on the in-proc path; both == messages on the
  // serialized wires (every message the run charged was really encoded
  // at post and decoded at drain — the transport-axis tests assert it).
  TransportKind transport = TransportKind::kInProc;
  std::int64_t codec_encoded = 0;
  std::int64_t codec_decoded = 0;
  // Adaptive MIS retries over all passes (sum).
  std::int64_t mis_retries = 0;
  // Fault/recovery observability (kFaulty backend only; zero/false
  // elsewhere).  degraded: some frame exhausted the retransmit budget —
  // the solution is a partial result (still primal-feasible by phase-2
  // construction).  certificate_ok: every degraded pass's reported
  // certificate validated against the central replay (AND over passes;
  // true when nothing degraded).
  FaultStats fault;
  bool degraded = false;
  bool certificate_ok = true;
};

// Runs the message-level protocol on `problem` under `plan` (tree or line
// layered plan) as a single pass with options.rule.  The quality
// guarantee needs the rule to match the instance class (kUnit: unit
// heights or all-wide; kNarrow: all-narrow), while feasibility holds for
// any input by phase-2 construction.
ProtocolRunResult run_distributed_protocol(const Problem& problem,
                                           const LayeredPlan& plan,
                                           const ProtocolOptions& options = {});

// The Section 6 two-pass schedule (Theorem 6.3): wide instances under
// kUnit, narrow under kNarrow, per-network better-of combination.
ProtocolRunResult run_height_split_protocol(
    const Problem& problem, const LayeredPlan& plan,
    const ProtocolOptions& options = {});

}  // namespace treesched
