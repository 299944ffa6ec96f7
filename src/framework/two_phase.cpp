#include "framework/two_phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "framework/certify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

namespace {

// Hard safety cap on the steps of one stage.
constexpr int kMaxStepsPerStage = 200000;

}  // namespace

// ---------------------------------------------------------------------------
// GreedyMis

GreedyMis::GreedyMis(const Problem& problem)
    : problem_(&problem),
      edge_stamp_(static_cast<std::size_t>(problem.num_global_edges()), 0),
      demand_stamp_(static_cast<std::size_t>(problem.num_demands()), 0) {}

MisResult GreedyMis::run(std::span<const InstanceId> candidates) {
  ++stamp_;
  MisResult result;
  result.rounds = 1;
  for (InstanceId i : candidates) {
    const DemandInstance& inst = problem_->instance(i);
    if (demand_stamp_[static_cast<std::size_t>(inst.demand)] == stamp_)
      continue;
    const IdRuns path = problem_->path(i);
    bool blocked = false;
    for (EdgeId e : path) {
      if (edge_stamp_[static_cast<std::size_t>(e)] == stamp_) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    demand_stamp_[static_cast<std::size_t>(inst.demand)] = stamp_;
    int* const stamps = edge_stamp_.data();
    const int stamp = stamp_;
    path.for_each_id([=](EdgeId e) { stamps[e] = stamp; });
    result.selected.push_back(i);
  }
  return result;
}

// ---------------------------------------------------------------------------
// SolveStats

void SolveStats::merge(const SolveStats& other) {
  epochs += other.epochs;
  stages += other.stages;
  steps += other.steps;
  max_steps_in_stage = std::max(max_steps_in_stage, other.max_steps_in_stage);
  raises += other.raises;
  mis_rounds += other.mis_rounds;
  comm_rounds += other.comm_rounds;
  dual_objective += other.dual_objective;
  dual_upper_bound += other.dual_upper_bound;
  // 0.0 means "no run contributed a lambda yet" — on either side.  An
  // unset side must not clobber a real value through std::min (a 0.0
  // lambda would then poison every bound derived from the merged stats).
  if (lambda_observed == 0.0) {
    lambda_observed = other.lambda_observed;
  } else if (other.lambda_observed != 0.0) {
    lambda_observed = std::min(lambda_observed, other.lambda_observed);
  }
  delta = std::max(delta, other.delta);
  xi = std::max(xi, other.xi);
  stages_per_epoch = std::max(stages_per_epoch, other.stages_per_epoch);
  lockstep_ok = lockstep_ok && other.lockstep_ok;
  mis_ok = mis_ok && other.mis_ok;
  mis_failed_steps += other.mis_failed_steps;
  mis_retries += other.mis_retries;
  epoch_setup_ns += other.epoch_setup_ns;
  forest_build_ns += other.forest_build_ns;
  merge_ns += other.merge_ns;
}

// ---------------------------------------------------------------------------
// TwoPhaseEngine — shared setup

TwoPhaseEngine::TwoPhaseEngine(const Problem& problem, const LayeredPlan& plan,
                               SolverConfig config, MisOracle* oracle)
    : problem_(&problem),
      plan_(&plan),
      config_(config),
      oracle_(oracle),
      active_mask_(static_cast<std::size_t>(problem.num_instances()), 1),
      dual_(problem) {
  TS_REQUIRE(problem.finalized());
  TS_REQUIRE(plan.group.size() ==
             static_cast<std::size_t>(problem.num_instances()));
  TS_REQUIRE(config_.epsilon > 0.0 && config_.epsilon < 1.0);
  if (oracle_ == nullptr) {
    default_oracle_ = std::make_unique<GreedyMis>(problem);
    oracle_ = default_oracle_.get();
  }
}

void TwoPhaseEngine::restrict_to(std::vector<InstanceId> active) {
  std::fill(active_mask_.begin(), active_mask_.end(), 0);
  for (InstanceId i : active) {
    TS_REQUIRE(i >= 0 && i < problem_->num_instances());
    active_mask_[static_cast<std::size_t>(i)] = 1;
  }
}

TwoPhaseEngine::StageSchedule TwoPhaseEngine::prepare(SolveStats& stats) const {
  StageSchedule sched;
  // Delta, h_min, xi and the multi-stage count come from the shared
  // derivation (over the active instances only: the wide/narrow split
  // runs see different effective parameters).  A warm restart pins the
  // parameters of the *full* problem instead — a restricted re-solve
  // must replay the same stage schedule the cold solve uses, or the
  // per-component duals stop being exchangeable between the two.
  const StageParams params =
      pinned_params_ != nullptr
          ? *pinned_params_
          : derive_stage_params(*problem_, *plan_, active_mask_,
                                config_.rule, config_.epsilon,
                                config_.xi_override);
  stats.delta = params.delta;
  sched.any_active = params.any_active;
  if (!sched.any_active) return sched;

  sched.xi = params.xi;
  stats.xi = sched.xi;

  sched.stages_per_epoch = 1;
  sched.fixed_threshold = 1.0;  // kExact: raise until tight (lambda = 1)
  if (config_.stage_mode == StageMode::kMultiStage) {
    sched.stages_per_epoch = params.stages_per_epoch;
  } else if (config_.stage_mode == StageMode::kSingleStagePS) {
    // Panconesi-Sozio: a single stage per epoch with retirement at
    // 1/(5+eps)-satisfaction.
    sched.fixed_threshold = 1.0 / (5.0 + config_.epsilon);
  }
  stats.stages_per_epoch = sched.stages_per_epoch;
  sched.lockstep_budget = lockstep_step_budget(*problem_);
  return sched;
}

double TwoPhaseEngine::stage_target(const StageSchedule& sched,
                                    int stage) const {
  return config_.stage_mode == StageMode::kMultiStage
             ? 1.0 - std::pow(sched.xi, stage)
             : sched.fixed_threshold;
}

void TwoPhaseEngine::finish(SolveResult& result,
                            std::vector<std::vector<InstanceId>>& stack) {
  SolveStats& stats = result.stats;
  // lambda == 0 (possible only when an oracle failure left an instance
  // completely unsatisfied) admits no finite scaled-dual certificate.
  stats.dual_upper_bound =
      stats.lambda_observed > 0.0
          ? stats.dual_objective / std::min(1.0, stats.lambda_observed)
          : std::numeric_limits<double>::infinity();
  {
    TRACE_SPAN("engine", "phase2_prune");
    result.solution = prune_stack(*problem_, stack);
  }
  stats.profit = result.solution.profit(*problem_);
  if (config_.keep_stack) {
    result.raise_stack = std::move(stack);
    result.stack_tags = std::move(stack_tags_);
    TS_DCHECK(result.raise_stack.size() == result.stack_tags.size());
  }
}

SolveResult TwoPhaseEngine::run() {
  TRACE_SPAN("engine", "run");
  SolveResult result;
  stack_tags_.clear();
  const StageSchedule sched = prepare(result.stats);
  if (config_.keep_lhs)
    result.final_lhs.assign(
        static_cast<std::size_t>(problem_->num_instances()), 0.0);
  if (!sched.any_active) {
    result.stats.lambda_observed = 1.0;
    return result;
  }
  dual_.reset();
  if (config_.engine == EngineImpl::kCentralReference)
    run_central(sched, result);
  else
    run_incremental(sched, result);
  return result;
}

SolveResult TwoPhaseEngine::run_warm(const StageParams& pinned) {
  pinned_params_ = &pinned;
  SolveResult result = run();
  pinned_params_ = nullptr;
  return result;
}

void TwoPhaseEngine::raise(InstanceId i, double lhs, const RaiseRule& rule,
                           SolveStats& stats) {
  const DemandInstance& inst = problem_->instance(i);
  const std::span<const EdgeId> critical = plan_->critical(i);
  const double slack = inst.profit - lhs;
  TS_DCHECK(slack > 0.0);
  const double delta = rule.tight_raise(inst, critical, slack, increments_);
  if (config_.raise_alpha) dual_.raise_alpha(inst.demand, delta);
  for (std::size_t c = 0; c < critical.size(); ++c)
    dual_.raise_beta(critical[c], increments_[c]);
  ++stats.raises;
  // The raise must satisfy i's constraint tightly (paper, Section 3.2).
  TS_DCHECK(std::abs(dual_.lhs(inst, rule.beta_coeff(inst)) - inst.profit) <=
            1e-6 * std::max(1.0, inst.profit));
}

// ---------------------------------------------------------------------------
// Central-reference engine: the pre-incremental implementation, kept as
// the parity oracle.  Every step rescans the whole member list and
// recomputes each LHS from scratch over the DualState.

void TwoPhaseEngine::run_central(const StageSchedule& sched,
                                 SolveResult& result) {
  SolveStats& stats = result.stats;
  const RaiseRule rule(config_.rule, *problem_, config_.raise_alpha,
                       config_.capacity_aware_raises);

  std::vector<std::vector<InstanceId>> stack;
  std::vector<InstanceId> members, unsatisfied;

  for (int g = 0; g < plan_->num_groups; ++g) {
    members.clear();
    for (InstanceId i : plan_->members[static_cast<std::size_t>(g)])
      if (is_active(i)) members.push_back(i);
    if (members.empty()) continue;
    ++stats.epochs;
    TRACE_SPAN1("engine", "epoch", "group", g);

    for (int j = 1; j <= sched.stages_per_epoch; ++j) {
      const double target = stage_target(sched, j);
      ++stats.stages;
      TRACE_SPAN2("engine", "stage", "group", g, "stage", j);
      int steps_this_stage = 0;
      int rows_this_stage = 0;
      for (;;) {
        unsatisfied.clear();
        for (InstanceId i : members) {
          const DemandInstance& inst = problem_->instance(i);
          const double lhs = dual_.lhs(inst, rule.beta_coeff(inst));
          if (lhs < target * inst.profit - kEps * inst.profit)
            unsatisfied.push_back(i);
        }
        if (config_.lockstep) {
          if (steps_this_stage >= sched.lockstep_budget) {
            // The budget is exhausted; Lemma 5.1 predicts U is empty.
            if (!unsatisfied.empty()) stats.lockstep_ok = false;
            break;
          }
          if (unsatisfied.empty()) {
            // Idle step: processors still execute the protocol (they
            // cannot observe global emptiness) — 2 MIS rounds + 1
            // propagation round of silence.
            ++stats.steps;
            ++steps_this_stage;
            stats.mis_rounds += 2;
            stats.comm_rounds += 3;
            continue;
          }
        } else if (unsatisfied.empty()) {
          break;
        }
        const MisResult mis = oracle_->run(
            std::span<const InstanceId>(unsatisfied.data(),
                                        unsatisfied.size()));
        ++stats.steps;
        ++steps_this_stage;
        stats.mis_rounds += mis.rounds;
        stats.comm_rounds += mis.rounds + 1;  // +1: dual propagation
        stats.mis_retries += mis.retries;
        if (mis.selected.empty()) {
          // A budgeted randomized oracle can fail to decide anyone.
          // Mirror the protocol: the step's rounds are spent in silence.
          // In lockstep mode the fixed budget bounds the retries; in
          // adaptive mode no progress is possible, so the stage ends
          // short (flagged through lockstep_ok below).
          stats.mis_ok = false;
          ++stats.mis_failed_steps;
          TRACE_COUNTER("engine.mis_failed_steps", 1);
          if (config_.lockstep) continue;
          stats.lockstep_ok = false;
          break;
        }
        for (InstanceId i : mis.selected) {
          const DemandInstance& inst = problem_->instance(i);
          raise(i, dual_.lhs(inst, rule.beta_coeff(inst)), rule, stats);
        }
        if (config_.keep_stack)
          stack_tags_.push_back(StackTag{g, j, rows_this_stage});
        ++rows_this_stage;
        stack.push_back(mis.selected);
        TS_REQUIRE(steps_this_stage <= kMaxStepsPerStage);
      }
      stats.max_steps_in_stage =
          std::max(stats.max_steps_in_stage, steps_this_stage);
    }
  }

  // Certification: observed slackness over active instances and the
  // resulting feasible-dual upper bound (weak duality after scaling).
  stats.dual_objective = dual_.objective();
  stats.lambda_observed =
      observed_lambda(*problem_, dual_, rule, active_mask_);
  if (config_.keep_lhs) {
    for (InstanceId i = 0; i < problem_->num_instances(); ++i) {
      if (!is_active(i)) continue;
      const DemandInstance& inst = problem_->instance(i);
      result.final_lhs[static_cast<std::size_t>(i)] =
          dual_.lhs(inst, rule.beta_coeff(inst));
    }
  }
  finish(result, stack);
}

// ---------------------------------------------------------------------------
// Incremental engine: the same DualState under a cached LHS per instance
// and the per-stage unsatisfied frontier.  A raise marks stale, through
// the CSR edge->instances index, exactly the instances whose constraints
// read a raised variable; everyone else's cached LHS stays valid.  A
// stale LHS is recomputed by the central engine's walk (dual_lhs), the
// oracle sees the same candidate lists in the same order and the
// raises happen in its decision order — so the two paths agree bit for
// bit, and tests/test_engine_parity.cpp compares them with ==.

void TwoPhaseEngine::reset_lhs_cache() {
  const auto n = static_cast<std::size_t>(problem_->num_instances());
  lhs_cache_.assign(n, 0.0);
  lhs_fresh_.assign(n, 1);  // all-zero duals
}

void TwoPhaseEngine::mark_readers_stale(InstanceId i) {
  const DemandInstance& inst = problem_->instance(i);
  if (config_.raise_alpha)
    for (InstanceId k : problem_->instances_of_demand(inst.demand))
      lhs_fresh_[static_cast<std::size_t>(k)] = 0;
  char* const fresh = lhs_fresh_.data();
  for (EdgeId e : plan_->critical(i))
    problem_->instances_on_edge(e).for_each_id(
        [fresh](InstanceId k) { fresh[k] = 0; });
}

void TwoPhaseEngine::recompute_lhs(InstanceId i, double beta_coeff) {
  const auto k = static_cast<std::size_t>(i);
  lhs_cache_[k] = dual_lhs(dual_.alphas(), dual_.betas(),
                           problem_->instance(i).demand, problem_->path(i),
                           beta_coeff);
  lhs_fresh_[k] = 1;
}

void TwoPhaseEngine::refresh_stale_lhs(std::span<const InstanceId> ids,
                                       const RaiseRule& rule) {
  // Lane k walks the single-run path of member who[k]: left[k] betas
  // remain from at[k] on, summed into sum[k].  Each round adds the
  // shortest remaining walk's length to every lane at once, then retires
  // the lanes that finished and refills them from `ids`.
  constexpr int kLanes = 8;
  const double* at[kLanes];
  std::ptrdiff_t left[kLanes];
  double sum[kLanes];
  InstanceId who[kLanes];
  const std::span<const double> beta = dual_.betas();
  const auto retire = [&](int k) {
    const DemandInstance& inst = problem_->instance(who[k]);
    const auto i = static_cast<std::size_t>(who[k]);
    lhs_cache_[i] = dual_lhs_of_sum(dual_.alphas(), inst.demand, sum[k],
                                    rule.beta_coeff(inst));
    lhs_fresh_[i] = 1;
  };
  std::size_t next = 0;
  // Loads the next stale member into lane k; false when `ids` is
  // exhausted.
  const auto refill = [&](int k) {
    while (next < ids.size()) {
      const InstanceId i = ids[next++];
      if (lhs_fresh_[static_cast<std::size_t>(i)]) continue;
      const IdRuns path = problem_->path(i);
      TS_DCHECK(path.single_run());
      at[k] = beta.data() + path.front();
      left[k] = path.back() - path.front() + 1;
      sum[k] = 0.0;
      who[k] = i;
      return true;
    }
    return false;
  };
  int live = 0;
  while (live < kLanes && refill(live)) ++live;
  while (live == kLanes) {
    std::ptrdiff_t steps = left[0];
    for (int k = 1; k < kLanes; ++k) steps = std::min(steps, left[k]);
    for (std::ptrdiff_t t = 0; t < steps; ++t) {
#pragma GCC unroll 8
      for (int k = 0; k < kLanes; ++k) sum[k] += at[k][t];
    }
    for (int k = 0; k < kLanes; ++k) {
      at[k] += steps;
      left[k] -= steps;
    }
    for (int k = 0; k < live;) {
      if (left[k] > 0) {
        ++k;
        continue;
      }
      retire(k);
      if (refill(k)) {
        ++k;
        continue;
      }
      // `ids` is exhausted: the last live lane moves into slot k.
      --live;
      at[k] = at[live];
      left[k] = left[live];
      sum[k] = sum[live];
      who[k] = who[live];
    }
  }
  // Fewer than kLanes lanes are left: finish each on its own.
  for (int k = 0; k < live; ++k) {
    for (std::ptrdiff_t t = 0; t < left[k]; ++t) sum[k] += at[k][t];
    retire(k);
  }
}

int TwoPhaseEngine::next_failing_stage(const StageSchedule& sched,
                                       const RaiseRule& rule, int stage) {
  // One pass tests each member at next - 1; only a member that fails
  // there can move next, to its first failing stage, found by bisection
  // between `stage` (where the scan saw it pass) and next - 1.
  int next = sched.stages_per_epoch + 1;
  double last = next - 1 > stage ? stage_target(sched, next - 1) : 0.0;
  for (InstanceId i : members_) {
    if (next - 1 == stage) break;
    if (!unsatisfied(i, rule, last)) continue;
    int passes = stage;
    int fails = next - 1;
    while (fails - passes > 1) {
      const int mid = passes + (fails - passes) / 2;
      if (unsatisfied(i, rule, stage_target(sched, mid)))
        fails = mid;
      else
        passes = mid;
    }
    next = fails;
    if (next - 1 > stage) last = stage_target(sched, next - 1);
  }
  return next;
}

void TwoPhaseEngine::run_incremental(const StageSchedule& sched,
                                     SolveResult& result) {
  SolveStats& stats = result.stats;
  const RaiseRule rule(config_.rule, *problem_, config_.raise_alpha,
                       config_.capacity_aware_raises);
  reset_lhs_cache();

  std::vector<std::vector<InstanceId>> stack;

  // run_central's loop, with the stage's frontier (one scan of the
  // members, then a refilter after each step's raises) and the cached
  // LHS in place of the full rescan and the from-scratch walk, and a
  // jump over every run of idle stages.
  for (int g = 0; g < plan_->num_groups; ++g) {
    members_.clear();
    single_run_members_.clear();
    for (InstanceId i : plan_->members[static_cast<std::size_t>(g)]) {
      if (!is_active(i)) continue;
      members_.push_back(i);
      if (problem_->path(i).single_run()) single_run_members_.push_back(i);
    }
    if (members_.empty()) continue;
    ++stats.epochs;
    obs::SpanGuard epoch_span("engine", "epoch", "group", g);
    int scanned = 0;

    for (int j = 1; j <= sched.stages_per_epoch;) {
      const double target = stage_target(sched, j);
      unsat_.clear();
      refresh_stale_lhs(single_run_members_, rule);
      for (InstanceId i : members_)
        if (unsatisfied(i, rule, target)) unsat_.push_back(i);
      ++scanned;
      if (unsat_.empty()) {
        // Stages j .. next - 1 are idle in the central reference too: it
        // only counts them (under lockstep, budget idle steps apiece).
        const int next = next_failing_stage(sched, rule, j);
        const std::int64_t idle = next - j;
        stats.stages += idle;
        if (config_.lockstep) {
          const std::int64_t idle_steps = idle * sched.lockstep_budget;
          stats.steps += idle_steps;
          stats.mis_rounds += 2 * idle_steps;
          stats.comm_rounds += 3 * idle_steps;
          stats.max_steps_in_stage =
              std::max(stats.max_steps_in_stage, sched.lockstep_budget);
        }
        j = next;
        continue;
      }
      ++stats.stages;
      int steps_this_stage = 0;
      int rows_this_stage = 0;
      for (;;) {
        if (config_.lockstep) {
          if (steps_this_stage >= sched.lockstep_budget) {
            // The budget is exhausted; Lemma 5.1 predicts U is empty.
            if (!unsat_.empty()) stats.lockstep_ok = false;
            break;
          }
          if (unsat_.empty()) {
            // Idle step: 2 MIS rounds + 1 propagation round of silence.
            ++stats.steps;
            ++steps_this_stage;
            stats.mis_rounds += 2;
            stats.comm_rounds += 3;
            continue;
          }
        } else if (unsat_.empty()) {
          break;
        }
        const MisResult mis = oracle_->run(
            std::span<const InstanceId>(unsat_.data(), unsat_.size()));
        ++stats.steps;
        ++steps_this_stage;
        stats.mis_rounds += mis.rounds;
        stats.comm_rounds += mis.rounds + 1;  // +1: dual propagation
        stats.mis_retries += mis.retries;
        if (mis.selected.empty()) {
          // As in run_central: the step's rounds are spent in silence,
          // and in adaptive mode the stage ends short.
          stats.mis_ok = false;
          ++stats.mis_failed_steps;
          TRACE_COUNTER("engine.mis_failed_steps", 1);
          if (config_.lockstep) continue;
          stats.lockstep_ok = false;
          break;
        }
        for (InstanceId i : mis.selected) {
          const DemandInstance& inst = problem_->instance(i);
          raise(i, cached_lhs(i, rule.beta_coeff(inst)), rule, stats);
          mark_readers_stale(i);
          TS_DCHECK(std::abs(cached_lhs(i, rule.beta_coeff(inst)) -
                             inst.profit) <=
                    1e-6 * std::max(1.0, inst.profit));
        }
        if (config_.keep_stack)
          stack_tags_.push_back(StackTag{g, j, rows_this_stage});
        ++rows_this_stage;
        stack.push_back(mis.selected);
        TS_REQUIRE(steps_this_stage <= kMaxStepsPerStage);
        std::erase_if(unsat_, [&](InstanceId i) {
          return !unsatisfied(i, rule, target);
        });
      }
      stats.max_steps_in_stage =
          std::max(stats.max_steps_in_stage, steps_this_stage);
      ++j;
    }
    epoch_span.arg("members", static_cast<std::int64_t>(members_.size()));
    epoch_span.arg("stages_scanned", scanned);
    epoch_span.arg("stages_skipped", sched.stages_per_epoch - scanned);
  }

  // Certification: every instance reports its own satisfaction level
  // (the same operation sequence as observed_lambda over the central
  // DualState).
  stats.dual_objective = dual_.objective();
  double lambda = 1.0;
  bool any = false;
  for (InstanceId i = 0; i < problem_->num_instances(); ++i) {
    if (!is_active(i)) continue;
    const DemandInstance& inst = problem_->instance(i);
    const double lhs = cached_lhs(i, rule.beta_coeff(inst));
    const double level = lhs / inst.profit;
    lambda = any ? std::min(lambda, level) : level;
    any = true;
  }
  stats.lambda_observed = any ? lambda : 1.0;
  if (config_.keep_lhs) {
    for (InstanceId i = 0; i < problem_->num_instances(); ++i) {
      if (!is_active(i)) continue;
      const DemandInstance& inst = problem_->instance(i);
      result.final_lhs[static_cast<std::size_t>(i)] =
          cached_lhs(i, rule.beta_coeff(inst));
    }
  }
  finish(result, stack);
}

// ---------------------------------------------------------------------------

int lockstep_step_budget(const Problem& problem) {
  // Claim 5.2 budget with guards: a zero/denormal min_profit or an
  // overflowing ratio must yield a finite budget, never UB from casting
  // inf/NaN to int.  The log term is capped at 62 (a profit range beyond
  // 2^62 is outside any double's meaningful precision anyway).
  const double pmax = problem.max_profit();
  const double pmin = problem.min_profit();
  double log_range = 0.0;
  if (pmin > 0.0 && pmax > pmin) {
    const double ratio = pmax / pmin;
    if (std::isfinite(ratio))
      log_range = std::min(std::ceil(std::log2(ratio)), 62.0);
    else
      log_range = 62.0;
  }
  return 1 + kLockstepSlack + static_cast<int>(log_range);
}

double target_lambda(StageMode mode, double epsilon) {
  return mode == StageMode::kSingleStagePS ? 1.0 / (5.0 + epsilon)
                                           : 1.0 - epsilon;
}

StageParams derive_stage_params(const Problem& problem,
                                const LayeredPlan& plan,
                                const std::vector<char>& active_mask,
                                RaiseRuleKind rule, double epsilon,
                                double xi_override) {
  bool any_active = false;
  int delta = 0;
  double h_min = 1.0;
  for (InstanceId i = 0; i < problem.num_instances(); ++i) {
    if (!active_mask[static_cast<std::size_t>(i)]) continue;
    any_active = true;
    h_min = std::min(h_min, problem.instance(i).height);
    delta = std::max(delta, static_cast<int>(plan.critical(i).size()));
  }
  if (!any_active) return StageParams{};
  return class_stage_params(rule, delta, h_min, epsilon, xi_override);
}

StageParams class_stage_params(RaiseRuleKind rule, int delta, double h_min,
                               double epsilon, double xi_override) {
  StageParams params;
  params.any_active = true;
  params.delta = delta;
  params.h_min = h_min;
  params.xi = xi_override > 0.0 ? xi_override
                                : RaiseRule::default_xi(rule, delta, h_min);
  // Smallest b with xi^b <= eps, computed in double: heights near 0 put
  // xi within rounding of 1, so b can exceed int or (xi == 1.0) be -inf.
  // Running fewer stages than b would leave the class under its target
  // slackness and the ratio bound unsound, so such a class is rejected.
  // The stage loops count to b + 1, so that must fit in an int too.
  const double stages =
      std::ceil(std::log(epsilon) / std::log(params.xi));
  check_input(std::isfinite(stages) &&
                  stages < std::numeric_limits<int>::max(),
              "stage count ceil(log eps / log xi) overflows int: xi is "
              "within rounding of 1 (a minimum height near 0)");
  // The incremental engine jumps over idle stages on the premise that the
  // computed targets 1 - xi^j never decrease in j; consecutive powers lie
  // a factor xi apart, so this margin keeps them far beyond pow's
  // rounding error.  Under the int rule above it binds only for
  // eps > 0.998.
  check_input(1.0 - params.xi >= 0x1p-40,
              "stage decay base xi is within 2^-40 of 1 (or above it): the "
              "stage targets 1 - xi^j are not separated");
  params.stages_per_epoch = std::max(1, static_cast<int>(stages));
  return params;
}

// ---------------------------------------------------------------------------
// Convenience wrappers

SolveResult solve_with_plan(const Problem& problem, const LayeredPlan& plan,
                            const SolverConfig& config, MisOracle* oracle) {
  TwoPhaseEngine engine(problem, plan, config, oracle);
  return engine.run();
}

HeightClasses classify_wide_narrow(const Problem& problem) {
  HeightClasses classes;
  const int n = problem.num_instances();
  classes.wide_mask.assign(static_cast<std::size_t>(std::max(n, 1)), 0);
  classes.narrow_mask.assign(static_cast<std::size_t>(std::max(n, 1)), 0);
  for (InstanceId i = 0; i < n; ++i) {
    if (is_wide_instance(problem.instance(i))) {
      classes.wide_ids.push_back(i);
      classes.wide_mask[static_cast<std::size_t>(i)] = 1;
    } else {
      classes.narrow_ids.push_back(i);
      classes.narrow_mask[static_cast<std::size_t>(i)] = 1;
    }
  }
  return classes;
}

SolveResult solve_height_split(const Problem& problem, const LayeredPlan& plan,
                               const SolverConfig& config, MisOracle* oracle) {
  const HeightClasses classes = classify_wide_narrow(problem);

  SolveResult combined;
  std::vector<SolveResult> parts;
  if (classes.has_wide()) {
    SolverConfig wide_config = config;
    wide_config.rule = RaiseRuleKind::kUnit;
    TwoPhaseEngine engine(problem, plan, wide_config, oracle);
    engine.restrict_to(classes.wide_ids);
    parts.push_back(engine.run());
  }
  if (classes.has_narrow()) {
    SolverConfig narrow_config = config;
    narrow_config.rule = RaiseRuleKind::kNarrow;
    TwoPhaseEngine engine(problem, plan, narrow_config, oracle);
    engine.restrict_to(classes.narrow_ids);
    parts.push_back(engine.run());
  }
  if (parts.size() == 1) return std::move(parts.front());
  TS_REQUIRE(parts.size() == 2);

  combined.solution = combine_better_of_per_network(
      problem, parts[0].solution, parts[1].solution);
  combined.stats = parts[0].stats;
  combined.stats.merge(parts[1].stats);
  combined.stats.profit = combined.solution.profit(problem);
  return combined;
}

std::int64_t better_of_convergecast_rounds(const Problem& problem) {
  // Each network aggregates its two candidate per-network profits up the
  // tree (max depth rounds), the root compares (1 round) and broadcasts
  // the winner down (max depth rounds); all networks cast concurrently.
  int max_depth = 0;
  for (NetworkId q = 0; q < problem.num_networks(); ++q) {
    const TreeNetwork& t = problem.network(q);
    for (VertexId v = 0; v < t.num_vertices(); ++v)
      max_depth = std::max(max_depth, t.depth(v));
  }
  return max_depth > 0 ? 2 * static_cast<std::int64_t>(max_depth) + 1 : 0;
}

Solution combine_better_of_per_network(const Problem& problem,
                                       const Solution& s1,
                                       const Solution& s2) {
  Solution combined;
  std::vector<double> profit1(static_cast<std::size_t>(problem.num_networks()),
                              0.0);
  std::vector<double> profit2 = profit1;
  for (InstanceId i : s1.selected)
    profit1[static_cast<std::size_t>(problem.instance(i).network)] +=
        problem.instance(i).profit;
  for (InstanceId i : s2.selected)
    profit2[static_cast<std::size_t>(problem.instance(i).network)] +=
        problem.instance(i).profit;
  for (InstanceId i : s1.selected) {
    const auto q = static_cast<std::size_t>(problem.instance(i).network);
    if (profit1[q] >= profit2[q]) combined.selected.push_back(i);
  }
  for (InstanceId i : s2.selected) {
    const auto q = static_cast<std::size_t>(problem.instance(i).network);
    if (profit1[q] < profit2[q]) combined.selected.push_back(i);
  }
  return combined;
}

}  // namespace treesched
