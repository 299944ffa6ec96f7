// The two-phase primal-dual engine (paper, Sections 3.2, 5 and 6).
//
// Phase 1 processes the layered-decomposition groups in ascending order
// (epochs).  Each epoch runs one or more *stages*; stage j targets the
// satisfaction level (1 - xi^j).  A stage repeats *steps*: compute a
// maximal independent set I of the still-unsatisfied group members in the
// conflict graph, raise every d in I tightly, and push I onto the stack.
// Phase 2 pops the stack in reverse and keeps every instance that still
// fits (true capacity feasibility, so the output is feasible for every
// height/capacity profile by construction).
//
// Two stage schedules are supported:
//  - kMultiStage (this paper): b = ceil(log_xi eps) stages per epoch,
//    final slackness lambda = 1 - eps;
//  - kSingleStagePS (Panconesi-Sozio baseline, Remark after Thm 5.3): one
//    stage per epoch with permanent retirement at threshold 1/(5+eps),
//    i.e. lambda = 1/(5+eps).
//
// The engine is deliberately independent of *how* the MIS is computed: it
// takes a MisOracle.  The default greedy oracle models the sequential
// algorithms; dist/ supplies the round-counting Luby oracle for the
// distributed ones.
//
// Two phase-1 implementations share this interface (EngineImpl):
//
//  - kIncremental (default): the paper's dual state — one alpha per
//    demand and one beta per global edge — under a cached LHS per
//    instance, marked stale through the Problem's CSR edge->instances
//    index for exactly the instances whose paths intersect a raised
//    edge, and a per-stage *unsatisfied frontier* that shrinks
//    monotonically (raises never decrease an LHS within a stage), so a
//    step tests only the previous frontier instead of rescanning the
//    group.  Each epoch is one serial stage/step loop over the group's
//    active members on the engine's own oracle; each raise writes
//    alpha/beta, does its bookkeeping and marks its readers stale at the
//    moment it happens.  The paper's parallelism is part of the round
//    model — conflict-disjoint components take their steps in the same
//    synchronous rounds — which the engine charges as one MIS call per
//    step over the whole frontier.
//  - kCentralReference: the pre-incremental engine (central DualState,
//    full member rescan with a from-scratch beta walk every step), kept
//    as the parity oracle.  Both implementations are bit-identical on
//    all outputs (tests/test_engine_parity.cpp).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "decomp/layered.hpp"
#include "framework/dual_state.hpp"
#include "framework/raise_rule.hpp"
#include "model/problem.hpp"
#include "model/solution.hpp"

namespace treesched {

struct MisResult {
  std::vector<InstanceId> selected;
  int rounds = 1;  // communication rounds consumed by this MIS computation
  // Adaptive budget retries this computation needed (0 for oracles
  // without a retry notion).  Extra rounds the retries consumed are
  // already included in `rounds`.
  int retries = 0;
};

// Maximal independent set oracle over the instance conflict graph
// (conflicting = same demand or overlapping paths; paper, Section 2).
class MisOracle {
 public:
  virtual ~MisOracle() = default;
  virtual MisResult run(std::span<const InstanceId> candidates) = 0;
};

// Deterministic greedy MIS in instance-id order; 1 round (models local
// sequential selection; used by the sequential algorithms and as a fast
// stand-in when round counting is irrelevant).
class GreedyMis : public MisOracle {
 public:
  explicit GreedyMis(const Problem& problem);
  MisResult run(std::span<const InstanceId> candidates) override;

 private:
  const Problem* problem_;
  std::vector<int> edge_stamp_;
  std::vector<int> demand_stamp_;
  int stamp_ = 0;
};

// kMultiStage: this paper's xi-boosting schedule, lambda = 1-eps.
// kSingleStagePS: Panconesi-Sozio baseline, lambda = 1/(5+eps).
// kExact: raise every instance until its constraint is *tight* (lambda=1);
// this is the sequential regime (Appendix A / Bar-Noy) — steps per group
// are no longer polylog-bounded, matching the paper's remark that the
// sequential round complexity can reach n.
enum class StageMode { kMultiStage, kSingleStagePS, kExact };

// Which phase-1 implementation runs.  kIncremental is the production
// engine: one alpha per demand and one beta per edge under a cached LHS
// per instance (a satisfaction test reads the cache unless a raise marked
// it stale), a CSR-driven invalidation that touches only the instances
// whose paths intersect the raised edges, and a per-stage unsatisfied
// frontier that shrinks monotonically — no full member rescans.
// kCentralReference preserves the pre-incremental engine (central
// DualState, full member rescan + from-scratch beta walk every step) as
// the parity oracle: both paths are bit-identical on every output, which
// tests/test_engine_parity.cpp enforces with exact comparisons.
enum class EngineImpl { kIncremental, kCentralReference };

struct SolverConfig {
  double epsilon = 0.1;  // target slackness 1-eps (multi-stage mode)
  RaiseRuleKind rule = RaiseRuleKind::kUnit;
  StageMode stage_mode = StageMode::kMultiStage;
  // Appendix-A single-network refinement: skip the alpha raise (sound
  // only when every demand has a single instance).
  bool raise_alpha = true;
  // DESIGN.md Sec. 6 capacity-aware increments (true) vs the paper's
  // uniform increments applied verbatim (false; bench_t5 ablation arm).
  bool capacity_aware_raises = true;
  // Lockstep schedule (paper, Section 5 "Distributed Implementation"):
  // processors cannot test global emptiness of U, so every stage runs a
  // *fixed* budget of ceil(1 + log2(pmax/pmin)) + lockstep_slack steps,
  // idle steps costing 3 rounds each (one Luby iteration + propagation).
  // Lemma 5.1 guarantees the budget suffices; stats.lockstep_ok reports
  // whether it did.
  bool lockstep = false;
  int lockstep_slack = 2;
  // Retain the raise stack in SolveResult (for the phase-2 ablations and
  // the online warm-start caches, which also get the per-row
  // (group, stage, step) tags — see SolveResult::stack_tags).
  bool keep_stack = false;
  // Export every active instance's final LHS (the per-instance dual
  // state the online scheduler caches per conflict component) in
  // SolveResult::final_lhs.
  bool keep_lhs = false;
  // xi override for ablations; 0 = derive from the rule, Delta and h_min.
  double xi_override = 0.0;
  // Runtime verification of the interference property (quadratic; tests).
  bool check_interference = false;
  // Count per-raise notification messages (distributed accounting).
  bool count_messages = false;
  // Hard safety cap on steps per stage.
  int max_steps_per_stage = 200000;
  // Phase-1 implementation (see EngineImpl above).
  EngineImpl engine = EngineImpl::kIncremental;
  // A no-op: phase 1 is one serial loop at any value (the paper's
  // parallelism lives in the round model, see the header comment).  Kept
  // only because perfbench/ sets it; it goes with the next change to the
  // benchmark.
  int threads = 1;
};

struct SolveStats {
  int epochs = 0;          // non-empty groups processed
  int stages = 0;          // stages actually run
  int steps = 0;           // framework iterations (MIS + raise)
  int max_steps_in_stage = 0;
  std::int64_t raises = 0;          // total instances raised
  std::int64_t mis_rounds = 0;      // rounds consumed by MIS computations
  std::int64_t comm_rounds = 0;     // mis_rounds + 1 raise-notify per step
  std::int64_t messages = 0;        // raise notifications (if counted)
  std::int64_t message_bytes = 0;   // messages * per-demand record size
  double dual_objective = 0.0;      // sum alpha + sum c(e) beta(e)
  double lambda_observed = 0.0;     // min LHS/p over active instances
  double dual_upper_bound = 0.0;    // dual_objective / min(1, lambda)
  int delta = 0;                    // max |pi(d)| over active instances
  double xi = 0.0;
  int stages_per_epoch = 0;
  double profit = 0.0;
  bool interference_ok = true;
  // True iff no stage ended with unsatisfied instances left behind —
  // Lemma 5.1's prediction in lockstep mode; in adaptive mode a stage
  // can only end short when the MIS oracle fails (see mis_ok).
  bool lockstep_ok = true;
  // True iff every MIS computation returned a non-empty set for a
  // non-empty candidate pool.  A budgeted randomized oracle may fail
  // w.h.p.-rarely; the engine records an idle step instead of aborting.
  bool mis_ok = true;
  // How many whole steps spent their MIS budget without deciding anyone
  // (the silent degrade behind mis_ok = false, surfaced so the CLI and
  // benches can warn).  Counted identically on the central and the
  // incremental engine, so the parity suites compare it with ==.
  std::int64_t mis_failed_steps = 0;
  // Adaptive MIS budget retries (MisResult::retries summed over steps).
  // Both engines make the same oracle calls, so the parity suites compare
  // it with ==.
  std::int64_t mis_retries = 0;

  // Always 0: the engine times nothing into them.  They exist only
  // because perfbench/ reads them, and go with the next change to the
  // benchmark.
  std::int64_t epoch_setup_ns = 0;
  std::int64_t forest_build_ns = 0;
  std::int64_t merge_ns = 0;

  // Merge for combined (wide + narrow) runs: counts add, bounds add,
  // lambda takes the min (0.0 = unset on either side), flags AND.
  void merge(const SolveStats& other);
};

// Chronological address of one raise-stack row: the epoch (group), the
// 1-based stage within it and the 0-based step within the stage.  Under
// a decomposable oracle (GreedyMis selects within each conflict component
// exactly what it would select for the component alone), conflict-
// disjoint components take their steps independently on the shared step
// grid, so a component's rows keep the same tags no matter which other
// components run alongside it — the invariant the online scheduler's
// warm-start cache splices rows by.
struct StackTag {
  int group = 0;
  int stage = 0;
  int step = 0;
  friend bool operator==(const StackTag&, const StackTag&) = default;
  friend auto operator<=>(const StackTag&, const StackTag&) = default;
};

struct SolveResult {
  Solution solution;
  SolveStats stats;
  // The raise stack (one entry per step, in raise order); populated only
  // when SolverConfig::keep_stack is set.
  std::vector<std::vector<InstanceId>> raise_stack;
  // Per-row (group, stage, step) tags, parallel to raise_stack; populated
  // only when SolverConfig::keep_stack is set.
  std::vector<StackTag> stack_tags;
  // Final LHS of every instance's dual constraint (0.0 for inactive
  // instances), indexed by instance id; populated only when
  // SolverConfig::keep_lhs is set.
  std::vector<double> final_lhs;
};

struct StageParams;

class TwoPhaseEngine {
 public:
  // `plan` must cover every instance of `problem`.  `oracle` may be null
  // (defaults to GreedyMis).  Neither is copied; both must outlive the
  // engine.
  TwoPhaseEngine(const Problem& problem, const LayeredPlan& plan,
                 SolverConfig config, MisOracle* oracle = nullptr);

  // Restrict phase 1 to a subset of instances (wide/narrow split).  Phase
  // 2 still enforces feasibility against the full capacity profile.
  void restrict_to(std::vector<InstanceId> active);

  SolveResult run();

  // Warm-start entry point (the online scheduler's incremental re-solve):
  // runs with the stage schedule pinned to `pinned` instead of deriving it
  // from the restricted active mask.  Restricting a run to the conflict
  // components an event batch touched only reproduces the full solve's
  // per-component dynamics when every run uses the *globally* derived
  // Delta/h_min/xi — the restricted mask alone would derive a different
  // schedule and silently break the exact (==) warm-vs-cold parity.
  SolveResult run_warm(const StageParams& pinned);

 private:
  // The stage schedule shared by both engine implementations, derived
  // once per run from the active instances.
  struct StageSchedule {
    double xi = 0.0;
    int stages_per_epoch = 1;
    double fixed_threshold = 1.0;  // kExact / kSingleStagePS target
    int lockstep_budget = 0;
    bool any_active = false;
  };

  bool is_active(InstanceId i) const {
    return active_mask_[static_cast<std::size_t>(i)] != 0;
  }
  StageSchedule prepare(SolveStats& stats) const;
  double stage_target(const StageSchedule& sched, int stage) const;
  // Common tail of both paths: the scaled-dual upper bound, phase 2, and
  // the optional stack handoff.
  void finish(SolveResult& result,
              std::vector<std::vector<InstanceId>>& stack);

  // Central-reference path.
  void run_central(const StageSchedule& sched, SolveResult& result);
  void raise(InstanceId i, DualState& dual, const RaiseRule& rule,
             SolveStats& stats, std::vector<InstanceId>& raised_order,
             std::vector<double>& increments);

  // Incremental path.
  void run_incremental(const StageSchedule& sched, SolveResult& result);
  void reset_run_state();  // duals and the LHS cache
  double cached_lhs(InstanceId i, double beta_coeff) {
    const auto k = static_cast<std::size_t>(i);
    if (!lhs_fresh_[k]) {
      lhs_cache_[k] =
          dual_lhs(alpha_, beta_, problem_->instance(i), beta_coeff);
      lhs_fresh_[k] = 1;
    }
    return lhs_cache_[k];
  }
  bool unsatisfied(InstanceId i, const RaiseRule& rule, double target) {
    const DemandInstance& inst = problem_->instance(i);
    return cached_lhs(i, rule.beta_coeff(inst)) <
           target * inst.profit - kEps * inst.profit;
  }
  // Marks stale the cached LHS of every instance that reads a variable a
  // raise of i writes — alpha(a_i) and beta on i's critical edges.
  // Instances outside the current group or the active set are not read
  // before a later epoch (or ever), so marking them early is harmless.
  void mark_readers_stale(InstanceId i);
  void bookkeep_raise(InstanceId i, double delta,
                      std::span<const double> increments, double& objective,
                      SolveStats& stats,
                      std::vector<InstanceId>& raised_order);
  // Bookkeeping every raise shares on both paths: the raise count, the
  // interference check, the raise order and the message count.
  void record_raise(InstanceId i, SolveStats& stats,
                    std::vector<InstanceId>& raised_order);
  void count_notifications(InstanceId i, SolveStats& stats);

  const Problem* problem_;
  const LayeredPlan* plan_;
  SolverConfig config_;
  MisOracle* oracle_;
  std::unique_ptr<GreedyMis> default_oracle_;
  std::vector<char> active_mask_;
  std::vector<int> demand_seen_stamp_;
  int notify_stamp_ = 0;
  // Set for the duration of run_warm(): prepare() uses these instead of
  // deriving the schedule from the restricted active mask.
  const StageParams* pinned_params_ = nullptr;
  // Per-row (group, stage, step) tags, recorded alongside every stack
  // push when keep_stack is set and handed to the result by finish().
  std::vector<StackTag> stack_tags_;

  // Incremental-engine state, reset by every run(): the dual variables
  // and the cached-LHS layer over them.
  std::vector<double> alpha_;  // per demand
  std::vector<double> beta_;   // per global edge
  std::vector<double> lhs_cache_;
  std::vector<char> lhs_fresh_;
  // Scratch of the epoch loop, reused across epochs and runs so the hot
  // loop stops allocating: the group's active members, the stage's
  // unsatisfied frontier and one raise's beta increments.
  std::vector<InstanceId> members_;
  std::vector<InstanceId> unsat_;
  std::vector<double> increments_;
};

// Wide/narrow classification of the arbitrary-height case (paper,
// Section 6): wide instances (h > 1/2) run under the kUnit rule, the
// rest under kNarrow.  Shared by solve_height_split, the distributed
// solvers' ratio-bound derivation and the online service's admission
// check so they can never disagree.
inline bool is_wide_height(Height height) { return height > 0.5; }
inline bool is_wide_instance(const DemandInstance& inst) {
  return is_wide_height(inst.height);
}

// The full Section 6 class partition in both the id-list and mask forms
// the split implementations consume.  One builder shared by the modeled
// solve_height_split, the message-level run_height_split_protocol and
// the parity suite, so the class boundary cannot diverge between the
// entry points the suite holds to exact equality.
struct HeightClasses {
  std::vector<InstanceId> wide_ids, narrow_ids;
  std::vector<char> wide_mask, narrow_mask;  // sized max(n, 1)
  bool has_wide() const { return !wide_ids.empty(); }
  bool has_narrow() const { return !narrow_ids.empty(); }
};
HeightClasses classify_wide_narrow(const Problem& problem);

// The fixed per-stage step budget of Lemma 5.1: profits double along
// kill chains (Claim 5.2), so 1 + slack + ceil(log2(pmax/pmin)) steps
// suffice.  Shared by the engine's lockstep mode and the message-level
// protocol so both verify the *same* budget.
int lockstep_step_budget(const Problem& problem, int slack);

// Final slackness lambda of a stage schedule: 1-eps for the multi-stage
// (and exact) schedules, 1/(5+eps) for the Panconesi-Sozio single-stage
// baseline.  One definition shared by the modeled schedulers, the
// non-uniform solvers and the message-level protocol wrappers, so their
// reported ratio bounds cannot disagree on the lambda they assume.
double target_lambda(StageMode mode, double epsilon);

// The multi-stage schedule parameters of a phase-1 run over `active`
// instances: observed Delta (max critical-set size), h_min, the decay
// base xi = RaiseRule::default_xi(rule, delta, h_min) and the stage
// count b = ceil(log_xi eps).  This is the one place the schedule is
// derived — the engine's prepare() and the message-level protocol's
// fixed schedule both call it, so the two can never run different
// stage targets for the same instance class (which would break the
// exact protocol-vs-engine parity the test suite enforces).  A class
// whose b is not a finite int (h_min near 0 puts xi within rounding of
// 1) is rejected with a check_input diagnostic.
struct StageParams {
  bool any_active = false;
  int delta = 0;
  double h_min = 1.0;
  double xi = 0.0;
  int stages_per_epoch = 1;
};
StageParams derive_stage_params(const Problem& problem,
                                const LayeredPlan& plan,
                                const std::vector<char>& active_mask,
                                RaiseRuleKind rule, double epsilon,
                                double xi_override = 0.0);
// The arithmetic behind derive_stage_params, for a class with the given
// Delta and h_min: xi and b, with the same check_input rejection.  b
// grows with Delta and shrinks with h_min, so the online service calls
// it at the largest Delta its decompositions allow and a batch's
// smallest height to reject, at admission, a batch that would leave a
// class without a finite schedule.
StageParams class_stage_params(RaiseRuleKind rule, int delta, double h_min,
                               double epsilon, double xi_override = 0.0);

// Reverse greedy pruning of the raise stack (phase 2 of the framework).
Solution prune_stack(const Problem& problem,
                     const std::vector<std::vector<InstanceId>>& stack);

// Per-network better-of combination of two sub-solutions (paper,
// Theorem 6.3): every network keeps whichever of the two carries more of
// its profit (ties to s1).  Sound for the wide/narrow split because
// every demand is entirely wide or entirely narrow, so the union cannot
// schedule a demand twice.  One arithmetic shared by the modeled
// solve_height_split and the message-level run_height_split_protocol —
// the protocol parity suite compares their outputs with ==.
Solution combine_better_of_per_network(const Problem& problem,
                                       const Solution& s1,
                                       const Solution& s2);

// Honest round charge of the per-network better-of combination: each
// network converge-casts the two per-network profit totals up its tree
// (max depth rounds), the root compares (1 round) and broadcasts the
// winner back down (max depth rounds); networks run concurrently, so
// the charge is 2 * max depth + 1 over all networks.  Zero when the
// problem has no edges to cast over.  Charged by the distributed
// arbitrary-height solvers (src/dist/scheduler.cpp) and by the
// message-level run_height_split_protocol whenever two passes were
// actually combined — the round-identity tests assert exactly this
// term.
std::int64_t better_of_convergecast_rounds(const Problem& problem);

// Ablation pruners (bench_f11): these do NOT carry the Lemma 3.1
// guarantee; they exist to measure what the reverse-stack order buys.
// Forward-stack pruning pops in *raise* order (earliest first) — the
// analysis breaks because a kept instance no longer dominates its
// predecessors' raise amounts.
Solution prune_stack_forward(const Problem& problem,
                             const std::vector<std::vector<InstanceId>>& stack);
// Profit-greedy over a candidate set, ignoring raise order entirely.
Solution prune_by_profit(const Problem& problem,
                         std::vector<InstanceId> candidates);

// Convenience wrappers -----------------------------------------------------

// Runs the engine on all instances with the given plan/config.
SolveResult solve_with_plan(const Problem& problem, const LayeredPlan& plan,
                            const SolverConfig& config,
                            MisOracle* oracle = nullptr);

// Arbitrary-height driver (paper, Section 6 "Overall Algorithm"): runs the
// unit rule on wide instances (h > 1/2) and the narrow rule on the rest,
// then combines by keeping, per network, the more profitable of the two
// per-network sub-solutions.  Stats are merged; the dual upper bounds add.
SolveResult solve_height_split(const Problem& problem, const LayeredPlan& plan,
                               const SolverConfig& config,
                               MisOracle* oracle = nullptr);

}  // namespace treesched
