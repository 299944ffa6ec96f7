#include "framework/two_phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "framework/certify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

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
    bool blocked = false;
    for (EdgeId e : inst.edges) {
      if (edge_stamp_[static_cast<std::size_t>(e)] == stamp_) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    demand_stamp_[static_cast<std::size_t>(inst.demand)] = stamp_;
    for (EdgeId e : inst.edges)
      edge_stamp_[static_cast<std::size_t>(e)] = stamp_;
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
  messages += other.messages;
  message_bytes += other.message_bytes;
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
  interference_ok = interference_ok && other.interference_ok;
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
      demand_seen_stamp_(static_cast<std::size_t>(problem.num_demands()), 0) {
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

void TwoPhaseEngine::count_notifications(InstanceId i, SolveStats& stats) {
  // A raised processor transmits its new dual values to every processor
  // owning an instance that shares an edge with the raised path (they
  // share beta variables).  Message payload is one demand record: end
  // points, network, profit, height and the raise amount (paper: O(M)
  // bits per message); we charge 48 bytes.
  ++notify_stamp_;
  const DemandInstance& inst = problem_->instance(i);
  std::int64_t neighbors = 0;
  for (EdgeId e : inst.edges) {
    for (InstanceId other : problem_->instances_on_edge(e)) {
      const DemandId od = problem_->instance(other).demand;
      if (od == inst.demand) continue;
      if (demand_seen_stamp_[static_cast<std::size_t>(od)] == notify_stamp_)
        continue;
      demand_seen_stamp_[static_cast<std::size_t>(od)] = notify_stamp_;
      ++neighbors;
    }
  }
  stats.messages += neighbors;
  stats.message_bytes += neighbors * 48;
}

void TwoPhaseEngine::record_raise(InstanceId i, SolveStats& stats,
                                  std::vector<InstanceId>& raised_order) {
  ++stats.raises;
  if (config_.check_interference) {
    // Every previously raised overlapping instance must have a critical
    // edge on path(i) (the interference property).
    const auto& path_i = problem_->instance(i).edges;
    for (InstanceId prev : raised_order) {
      if (!problem_->overlap(prev, i)) continue;
      bool hit = false;
      for (EdgeId e : plan_->critical[static_cast<std::size_t>(prev)]) {
        if (std::binary_search(path_i.begin(), path_i.end(), e)) {
          hit = true;
          break;
        }
      }
      if (!hit) stats.interference_ok = false;
    }
  }
  raised_order.push_back(i);
  if (config_.count_messages) count_notifications(i, stats);
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
  sched.lockstep_budget =
      lockstep_step_budget(*problem_, config_.lockstep_slack);
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

// ---------------------------------------------------------------------------
// Central-reference engine: the pre-incremental implementation, kept as
// the parity oracle.  Every step rescans the whole member list and
// recomputes each LHS from scratch over the central DualState.

void TwoPhaseEngine::raise(InstanceId i, DualState& dual,
                           const RaiseRule& rule, SolveStats& stats,
                           std::vector<InstanceId>& raised_order,
                           std::vector<double>& increments) {
  const DemandInstance& inst = problem_->instance(i);
  const auto& critical = plan_->critical[static_cast<std::size_t>(i)];
  const double lhs = dual.lhs(inst, rule.beta_coeff(inst));
  const double slack = inst.profit - lhs;
  TS_DCHECK(slack > 0.0);
  const double delta = rule.tight_raise(inst, critical, slack, increments);
  if (config_.raise_alpha) dual.raise_alpha(inst.demand, delta);
  for (std::size_t c = 0; c < critical.size(); ++c)
    dual.raise_beta(critical[c], increments[c]);
  // The raise must satisfy d's constraint tightly (paper, Section 3.2).
  TS_DCHECK(std::abs(dual.lhs(inst, rule.beta_coeff(inst)) - inst.profit) <=
            1e-6 * std::max(1.0, inst.profit));
  record_raise(i, stats, raised_order);
}

void TwoPhaseEngine::run_central(const StageSchedule& sched,
                                 SolveResult& result) {
  SolveStats& stats = result.stats;
  DualState dual(*problem_);
  const RaiseRule rule(config_.rule, *problem_, config_.raise_alpha,
                       config_.capacity_aware_raises);

  std::vector<std::vector<InstanceId>> stack;
  std::vector<InstanceId> raised_order;
  std::vector<InstanceId> members, unsatisfied;
  std::vector<double> increments;

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
          const double lhs = dual.lhs(inst, rule.beta_coeff(inst));
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
        for (InstanceId i : mis.selected)
          raise(i, dual, rule, stats, raised_order, increments);
        if (config_.keep_stack)
          stack_tags_.push_back(StackTag{g, j, rows_this_stage});
        ++rows_this_stage;
        stack.push_back(mis.selected);
        TS_REQUIRE(steps_this_stage <= config_.max_steps_per_stage);
      }
      stats.max_steps_in_stage =
          std::max(stats.max_steps_in_stage, steps_this_stage);
    }
  }

  // Certification: observed slackness over active instances and the
  // resulting feasible-dual upper bound (weak duality after scaling).
  stats.dual_objective = dual.objective();
  stats.lambda_observed =
      observed_lambda(*problem_, dual, rule, active_mask_);
  if (config_.keep_lhs) {
    for (InstanceId i = 0; i < problem_->num_instances(); ++i) {
      if (!is_active(i)) continue;
      const DemandInstance& inst = problem_->instance(i);
      result.final_lhs[static_cast<std::size_t>(i)] =
          dual.lhs(inst, rule.beta_coeff(inst));
    }
  }
  finish(result, stack);
}

// ---------------------------------------------------------------------------
// Incremental engine: one alpha per demand and one beta per global edge,
// a cached LHS per instance and the per-stage unsatisfied frontier.  A
// raise marks stale, through the CSR edge->instances index, exactly the
// instances whose constraints read a raised variable; everyone else's
// cached LHS stays valid.  A stale LHS is recomputed by the central
// engine's walk (dual_lhs), the oracle sees the same candidate lists in
// the same order, the raises happen in its decision order and the
// objective accumulates in that order — so the two paths agree bit for
// bit, and tests/test_engine_parity.cpp compares them with ==.

void TwoPhaseEngine::reset_run_state() {
  const auto n = static_cast<std::size_t>(problem_->num_instances());
  alpha_.assign(static_cast<std::size_t>(problem_->num_demands()), 0.0);
  beta_.assign(static_cast<std::size_t>(problem_->num_global_edges()), 0.0);
  lhs_cache_.assign(n, 0.0);
  lhs_fresh_.assign(n, 1);  // all-zero duals
}

void TwoPhaseEngine::mark_readers_stale(InstanceId i) {
  const DemandInstance& inst = problem_->instance(i);
  if (config_.raise_alpha)
    for (InstanceId k : problem_->instances_of_demand(inst.demand))
      lhs_fresh_[static_cast<std::size_t>(k)] = 0;
  for (EdgeId e : plan_->critical[static_cast<std::size_t>(i)])
    for (InstanceId k : problem_->instances_on_edge(e))
      lhs_fresh_[static_cast<std::size_t>(k)] = 0;
}

void TwoPhaseEngine::bookkeep_raise(InstanceId i, double delta,
                                    std::span<const double> increments,
                                    double& objective, SolveStats& stats,
                                    std::vector<InstanceId>& raised_order) {
  const auto& critical = plan_->critical[static_cast<std::size_t>(i)];
  // Accumulation order mirrors DualState exactly: the alpha term first,
  // then the critical edges in order, capacity-weighted.
  if (config_.raise_alpha) objective += delta;
  for (std::size_t c = 0; c < critical.size(); ++c)
    objective += problem_->capacity(critical[c]) * increments[c];
  record_raise(i, stats, raised_order);
}

void TwoPhaseEngine::run_incremental(const StageSchedule& sched,
                                     SolveResult& result) {
  SolveStats& stats = result.stats;
  const RaiseRule rule(config_.rule, *problem_, config_.raise_alpha,
                       config_.capacity_aware_raises);
  reset_run_state();
  double objective = 0.0;

  std::vector<std::vector<InstanceId>> stack;
  std::vector<InstanceId> raised_order;

  // run_central's loop, with the stage's frontier (one scan of the
  // members, then a refilter after each step's raises) and the cached
  // LHS in place of the full rescan and the from-scratch walk.
  for (int g = 0; g < plan_->num_groups; ++g) {
    members_.clear();
    for (InstanceId i : plan_->members[static_cast<std::size_t>(g)])
      if (is_active(i)) members_.push_back(i);
    if (members_.empty()) continue;
    ++stats.epochs;
    TRACE_SPAN1("engine", "epoch", "group", g);

    for (int j = 1; j <= sched.stages_per_epoch; ++j) {
      const double target = stage_target(sched, j);
      ++stats.stages;
      int steps_this_stage = 0;
      int rows_this_stage = 0;
      unsat_.clear();
      for (InstanceId i : members_)
        if (unsatisfied(i, rule, target)) unsat_.push_back(i);
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
          const auto& critical =
              plan_->critical[static_cast<std::size_t>(i)];
          const double slack =
              inst.profit - cached_lhs(i, rule.beta_coeff(inst));
          TS_DCHECK(slack > 0.0);
          const double delta =
              rule.tight_raise(inst, critical, slack, increments_);
          if (config_.raise_alpha)
            alpha_[static_cast<std::size_t>(inst.demand)] += delta;
          for (std::size_t c = 0; c < critical.size(); ++c)
            beta_[static_cast<std::size_t>(critical[c])] += increments_[c];
          bookkeep_raise(i, delta, increments_, objective, stats,
                         raised_order);
          mark_readers_stale(i);
          TS_DCHECK(std::abs(cached_lhs(i, rule.beta_coeff(inst)) -
                             inst.profit) <=
                    1e-6 * std::max(1.0, inst.profit));
        }
        if (config_.keep_stack)
          stack_tags_.push_back(StackTag{g, j, rows_this_stage});
        ++rows_this_stage;
        stack.push_back(mis.selected);
        TS_REQUIRE(steps_this_stage <= config_.max_steps_per_stage);
        std::erase_if(unsat_, [&](InstanceId i) {
          return !unsatisfied(i, rule, target);
        });
      }
      stats.max_steps_in_stage =
          std::max(stats.max_steps_in_stage, steps_this_stage);
    }
  }

  // Certification: every instance reports its own satisfaction level
  // (the same operation sequence as observed_lambda over the central
  // DualState).
  stats.dual_objective = objective;
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

int lockstep_step_budget(const Problem& problem, int slack) {
  // Claim 5.2 budget with guards: a zero/denormal min_profit or an
  // overflowing ratio must yield a finite budget, never UB from casting
  // inf/NaN to int.  The log term is capped at 62 (a profit range beyond
  // 2^62 is outside any double's meaningful precision anyway) and the
  // whole budget clamped to >= 1 so degenerate slack cannot disable the
  // schedule.
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
  return std::max(1, 1 + slack + static_cast<int>(log_range));
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
    delta = std::max(
        delta,
        static_cast<int>(plan.critical[static_cast<std::size_t>(i)].size()));
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
  const double stages =
      std::ceil(std::log(epsilon) / std::log(params.xi));
  check_input(std::isfinite(stages) &&
                  stages <= std::numeric_limits<int>::max(),
              "stage count ceil(log eps / log xi) overflows int: xi is "
              "within rounding of 1 (a minimum height near 0)");
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
