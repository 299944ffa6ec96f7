#include "framework/two_phase.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
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

namespace {

// Monotone wall-clock reads for the stats' timing breakdown.  Timing
// only — no field the parity suites compare with == depends on these.
inline std::int64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

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
  // The forest partitions the *active* members of every group; a new
  // active set means a new forest.
  forest_.invalidate();
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
  ++stats.raises;

  if (config_.check_interference) {
    // Every previously raised overlapping instance must have a critical
    // edge on path(i) (the interference property).
    for (InstanceId prev : raised_order) {
      if (!problem_->overlap(prev, i)) continue;
      const auto& path_i = problem_->instance(i).edges;
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
// engine's walk (dual_lhs) and the objective accumulates in the central
// order, so with the increment order argued below the two paths agree
// bit for bit — tests/test_engine_parity.cpp compares with ==.

void TwoPhaseEngine::reset_run_state() {
  const InstanceId n = problem_->num_instances();
  alpha_.assign(static_cast<std::size_t>(problem_->num_demands()), 0.0);
  beta_.assign(static_cast<std::size_t>(problem_->num_global_edges()), 0.0);
  lhs_cache_.assign(static_cast<std::size_t>(n), 0.0);
  lhs_fresh_.assign(static_cast<std::size_t>(n), 1);  // all-zero duals
  active_group_.resize(static_cast<std::size_t>(n));
  for (InstanceId i = 0; i < n; ++i)
    active_group_[static_cast<std::size_t>(i)] =
        is_active(i) ? plan_->group[static_cast<std::size_t>(i)] : -1;
  rank_of_.resize(static_cast<std::size_t>(n));
}

void TwoPhaseEngine::mark_readers_stale(InstanceId i, int group,
                                        bool own_group) {
  const auto mark = [&](InstanceId k) {
    const auto idx = static_cast<std::size_t>(k);
    if ((active_group_[idx] == group) == own_group) lhs_fresh_[idx] = 0;
  };
  const DemandInstance& inst = problem_->instance(i);
  if (config_.raise_alpha)
    for (InstanceId k : problem_->instances_of_demand(inst.demand)) mark(k);
  for (EdgeId e : plan_->critical[static_cast<std::size_t>(i)])
    for (InstanceId k : problem_->instances_on_edge(e)) mark(k);
}

void TwoPhaseEngine::bookkeep_raise(InstanceId i, double delta,
                                    std::span<const double> increments,
                                    double& objective, SolveStats& stats,
                                    std::vector<InstanceId>& raised_order) {
  const DemandInstance& inst = problem_->instance(i);
  const auto& critical = plan_->critical[static_cast<std::size_t>(i)];
  // Accumulation order mirrors DualState exactly: the alpha term first,
  // then the critical edges in order, capacity-weighted.
  if (config_.raise_alpha) objective += delta;
  for (std::size_t c = 0; c < critical.size(); ++c)
    objective += problem_->capacity(critical[c]) * increments[c];
  ++stats.raises;

  if (config_.check_interference) {
    for (InstanceId prev : raised_order) {
      if (!problem_->overlap(prev, i)) continue;
      const auto& path_i = inst.edges;
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

void TwoPhaseEngine::run_incremental(const StageSchedule& sched,
                                     SolveResult& result) {
  SolveStats& stats = result.stats;
  const RaiseRule rule(config_.rule, *problem_, config_.raise_alpha,
                       config_.capacity_aware_raises);
  reset_run_state();
  double objective = 0.0;

  // Clones let the forest's components of a group run on workers.  With
  // one oracle (threads <= 1, or an oracle without component_clone) every
  // group runs as one component on oracle_, through the same loop.
  const bool cloned =
      config_.threads > 1 && oracle_->supports_component_clone();
  worker_scratch_.resize(
      static_cast<std::size_t>(cloned ? config_.threads : 1));
  if (cloned && !forest_.built()) {
    const auto t0 = std::chrono::steady_clock::now();
    forest_.build(*problem_, *plan_, active_mask_);
    stats.forest_build_ns += elapsed_ns(t0);
  }

  std::vector<std::vector<InstanceId>> stack;
  std::vector<InstanceId> raised_order;
  std::vector<InstanceId> members;

  for (int g = 0; g < plan_->num_groups; ++g) {
    members.clear();
    for (InstanceId i : plan_->members[static_cast<std::size_t>(g)])
      if (is_active(i)) members.push_back(i);
    if (members.empty()) continue;
    ++stats.epochs;
    TRACE_SPAN1("engine", "epoch", "group", g);

    const auto setup_start = std::chrono::steady_clock::now();
    const int comp_count = [&] {
      TRACE_SPAN1("engine", "epoch_setup", "group", g);
      return derive_components(members, g, cloned);
    }();
    stats.epoch_setup_ns += elapsed_ns(setup_start);
    if (obs::tracing_enabled()) {
      TRACE_HIST("engine.components_per_epoch", comp_count);
      for (int c = 0; c < comp_count; ++c)
        TRACE_HIST("engine.component_size",
                   comp_pool_[static_cast<std::size_t>(c)].ids.size());
    }
    {
      // Fixed-size pool over an atomic work index (one component runs on
      // the calling thread alone): which worker runs which component is
      // scheduling-dependent, but each component's writes are confined
      // to the dual variables and caches only its own members read, and
      // the merge below replays everything in fixed component order — so
      // the output is independent of the interleaving.
      std::atomic<int> next{0};
      const int workers = clamp_workers(comp_count);
      // Per-worker busy time (loop entry to exhausted work queue); idle
      // is the pool wall minus that, accumulated into the metrics
      // registry after the join.
      std::vector<std::int64_t> busy_ns(static_cast<std::size_t>(workers), 0);
      const auto work = [&](int w) {
        WorkerScratch& scratch = worker_scratch_[static_cast<std::size_t>(w)];
        const bool traced = obs::tracing_enabled();
        const std::int64_t entered_ns = traced ? obs::trace_now_ns() : 0;
        for (;;) {
          const int c = next.fetch_add(1);
          if (c >= comp_count) break;
          EpochComponent& comp = comp_pool_[static_cast<std::size_t>(c)];
          TRACE_SPAN2("engine", "component", "size", comp.ids.size(),
                      "group", g);
          run_component(comp, rule, sched, g, scratch);
        }
        if (traced)
          busy_ns[static_cast<std::size_t>(w)] =
              obs::trace_now_ns() - entered_ns;
      };
      const std::int64_t pool_start_ns =
          obs::tracing_enabled() ? obs::trace_now_ns() : 0;
      TRACE_SPAN2("engine", "solve", "group", g, "components", comp_count);
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(workers) - 1);
      for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
      work(0);
      for (std::thread& t : pool) t.join();
      if (obs::tracing_enabled()) {
        const std::int64_t pool_wall_ns = obs::trace_now_ns() - pool_start_ns;
        auto& registry = obs::MetricsRegistry::global();
        for (int w = 0; w < workers; ++w) {
          const std::int64_t busy = busy_ns[static_cast<std::size_t>(w)];
          registry.counter("engine.worker_busy_ns").add(busy);
          registry.counter("engine.worker_idle_ns")
              .add(std::max<std::int64_t>(0, pool_wall_ns - busy));
        }
      }
    }
    const auto merge_start = std::chrono::steady_clock::now();
    {
      TRACE_SPAN1("engine", "merge", "group", g);
      merge_components(comp_count, members, rule, sched, g, objective, stats,
                       stack, raised_order);
    }
    stats.merge_ns += elapsed_ns(merge_start);
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
// Epoch components: the one phase-1 loop.
//
// Within one group, a raise of member i writes beta only on critical
// edges of path(i) and alpha of i's demand; any member whose constraint
// reads one of those variables conflicts with i and is therefore in i's
// connected component of the conflict graph restricted to the group.  So
// components write disjoint variables, never read each other's writes
// during an epoch, and can run concurrently.  Within a step the MIS is
// independent, so each variable takes at most one increment per step;
// each is written by one component per group, and groups run in order —
// so every alpha and beta receives the central reference's increments in
// the central order, for any thread count and decomposable
// (deterministic) oracles.  The merge replays the logs in step order for
// the bookkeeping and marks stale the other groups' readers of the
// raised variables.  With a single oracle the whole group is one
// component, and its raises keep the oracle's decision order within a
// step, exactly as the central reference raises them.

int TwoPhaseEngine::derive_components(const std::vector<InstanceId>& members,
                                      int group, bool cloned) {
  const int m = static_cast<int>(members.size());
  for (int rank = 0; rank < m; ++rank)
    rank_of_[static_cast<std::size_t>(members[static_cast<std::size_t>(rank)])] =
        rank;
  if (!cloned) {
    if (comp_pool_.empty()) comp_pool_.resize(1);
    EpochComponent& comp = comp_pool_.front();
    comp.ids = members;
    comp.oracle = oracle_;
    comp.clone.reset();
    return 1;
  }
  // The forest already holds this epoch's partition; deriving is pure
  // span slicing — O(|members| + #components).  Oracles are NOT cloned
  // here: run_component clones lazily once a frontier scan finds an
  // unsatisfied member (the monotone-frontier filter), so a fully
  // satisfied component costs neither a clone nor a stream.  Clone
  // streams derive from (seed, key), never from the parent oracle's
  // state, so the laziness cannot shift any component's randomness.
  const int count = forest_.components_in_group(group);
  if (static_cast<int>(comp_pool_.size()) < count)
    comp_pool_.resize(static_cast<std::size_t>(count));
  for (int c = 0; c < count; ++c) {
    EpochComponent& comp = comp_pool_[static_cast<std::size_t>(c)];
    comp.ids = forest_.component_ids(group, c);
    comp.stream_key = component_stream_key(group, comp.ids.front());
    comp.oracle = nullptr;
    comp.clone.reset();
  }
  return count;
}

int TwoPhaseEngine::clamp_workers(int work_items) const {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(
      1, std::min({config_.threads, work_items,
                   hw > 0 ? static_cast<int>(hw) : config_.threads}));
}

void TwoPhaseEngine::run_component(EpochComponent& comp,
                                   const RaiseRule& rule,
                                   const StageSchedule& sched, int group,
                                   WorkerScratch& scratch) {
  comp.reset_log(sched.stages_per_epoch);
  std::vector<InstanceId>& unsat = scratch.unsat;
  std::vector<double>& increments = scratch.increments;
  std::vector<std::pair<int, double>>& selected = scratch.selected;
  for (int j = 1; j <= sched.stages_per_epoch; ++j) {
    const double target = stage_target(sched, j);
    int steps_this_stage = 0;
    bool scanned = false;
    for (;;) {
      if (!scanned) {
        unsat.clear();
        for (InstanceId i : comp.ids)
          if (unsatisfied(i, rule, target)) unsat.push_back(i);
        scanned = true;
      } else {
        std::size_t w = 0;
        for (std::size_t r = 0; r < unsat.size(); ++r)
          if (unsatisfied(unsat[r], rule, target))
            unsat[w++] = unsat[r];
        unsat.resize(w);
      }
      if (config_.lockstep && steps_this_stage >= sched.lockstep_budget) {
        if (!unsat.empty()) comp.ended_short = true;
        break;
      }
      // A finished component simply stops recording; the merge pads the
      // lockstep schedule's idle steps when *every* component is done.
      if (unsat.empty()) break;
      // Lazy clone: the component proved it has frontier work, so it
      // earns its oracle now.  component_clone is concurrency-safe on the
      // parent and derives the stream from (seed, stream_key) alone —
      // see MisOracle's contract.
      if (comp.oracle == nullptr) {
        comp.clone = oracle_->component_clone(comp.stream_key);
        TS_REQUIRE(comp.clone != nullptr);
        comp.oracle = comp.clone.get();
      }
      const MisResult mis = comp.oracle->run(
          std::span<const InstanceId>(unsat.data(), unsat.size()));
      ++steps_this_stage;
      if (mis.selected.empty()) {
        comp.mis_failed = true;
        comp.step_rounds.push_back(mis.rounds);
        comp.step_retries.push_back(mis.retries);
        comp.step_begin.push_back(static_cast<int>(comp.rank_log.size()));
        if (!config_.lockstep) {
          comp.ended_short = true;
          break;
        }
        TS_REQUIRE(steps_this_stage <= config_.max_steps_per_stage);
        continue;
      }
      selected.clear();
      for (InstanceId i : mis.selected) {
        const DemandInstance& inst = problem_->instance(i);
        const auto& critical =
            plan_->critical[static_cast<std::size_t>(i)];
        const double slack =
            inst.profit - cached_lhs(i, rule.beta_coeff(inst));
        TS_DCHECK(slack > 0.0);
        const double delta =
            rule.tight_raise(inst, critical, slack, increments);
        if (config_.raise_alpha)
          alpha_[static_cast<std::size_t>(inst.demand)] += delta;
        for (std::size_t c = 0; c < critical.size(); ++c)
          beta_[static_cast<std::size_t>(critical[c])] += increments[c];
        // Own group only: the merge marks the other groups' readers.
        mark_readers_stale(i, group, true);
        TS_DCHECK(std::abs(cached_lhs(i, rule.beta_coeff(inst)) -
                           inst.profit) <= 1e-6 * std::max(1.0, inst.profit));
        selected.emplace_back(rank_of_[static_cast<std::size_t>(i)], delta);
      }
      // A clone's winners are logged in ascending member rank (randomized
      // oracles report winners in decision order; raises within a step
      // commute, so rank order is safe and deterministic for any thread
      // count).  The engine's own oracle keeps its decision order: the
      // order the central reference raises in, which fixes the objective's
      // summation order.  Ranks are unique, so the pair sort is a rank
      // sort.
      if (comp.clone != nullptr) std::sort(selected.begin(), selected.end());
      comp.step_rounds.push_back(mis.rounds);
      comp.step_retries.push_back(mis.retries);
      for (const auto& [rank, delta] : selected) {
        comp.rank_log.push_back(rank);
        comp.delta_log.push_back(delta);
      }
      comp.step_begin.push_back(static_cast<int>(comp.rank_log.size()));
      TS_REQUIRE(steps_this_stage <= config_.max_steps_per_stage);
    }
    comp.stage_begin.push_back(static_cast<int>(comp.step_rounds.size()));
  }
}

void TwoPhaseEngine::merge_components(
    int comp_count, const std::vector<InstanceId>& members,
    const RaiseRule& rule, const StageSchedule& sched, int group,
    double& objective, SolveStats& stats,
    std::vector<std::vector<InstanceId>>& stack,
    std::vector<InstanceId>& raised_order) {
  // k-way merge of the per-component decision logs by (stage, step) into
  // the chronological raise order, with the bookkeeping — objective
  // accumulation, stack rows, stats, message counting — exactly as the
  // central reference interleaves it.
  const std::span<EpochComponent> comps{comp_pool_.data(),
                                        static_cast<std::size_t>(comp_count)};
  std::vector<double>& increments = worker_scratch_.front().increments;
  for (int j = 1; j <= sched.stages_per_epoch; ++j) {
    ++stats.stages;
    int max_steps = 0;
    for (const EpochComponent& comp : comps)
      max_steps = std::max(max_steps, comp.steps_in_stage(j - 1));
    const int stage_steps =
        config_.lockstep ? sched.lockstep_budget : max_steps;
    int counted = 0;
    int rows_this_stage = 0;
    bool stage_broken = false;
    for (int t = 0; t < stage_steps && !stage_broken; ++t) {
      merge_row_.clear();
      int rounds_t = 0;
      int retries_t = 0;
      int contributors = 0;
      for (const EpochComponent& comp : comps) {
        if (t >= comp.steps_in_stage(j - 1)) continue;
        ++contributors;
        const auto s = static_cast<std::size_t>(
            comp.stage_begin[static_cast<std::size_t>(j - 1)] + t);
        rounds_t = std::max(rounds_t, comp.step_rounds[s]);
        // Like the rounds: concurrent components share the step's retry
        // attempts, and a whole-frontier single-oracle run retries exactly
        // as long as its worst component — max, not sum.
        retries_t = std::max(retries_t, comp.step_retries[s]);
        for (int k = comp.step_begin[s]; k < comp.step_begin[s + 1]; ++k)
          merge_row_.emplace_back(comp.rank_log[static_cast<std::size_t>(k)],
                                  comp.delta_log[static_cast<std::size_t>(k)]);
      }
      ++stats.steps;
      ++counted;
      if (contributors == 0) {
        // Every component finished before the budget: the union U is
        // empty, and the lockstep schedule idles through the remaining
        // steps exactly as the central reference does.
        stats.mis_rounds += 2;
        stats.comm_rounds += 3;
        continue;
      }
      // The merged step costs the *maximum* of the concurrent per-
      // component MIS rounds: components run their iterations in the same
      // synchronous rounds.
      stats.mis_rounds += rounds_t;
      stats.comm_rounds += rounds_t + 1;
      stats.mis_retries += retries_t;
      if (merge_row_.empty()) {
        // Every live component's MIS came back empty this step: the
        // union U's step failed exactly as a single-oracle empty step
        // would.  (Per-component failures that still yield a non-empty
        // union only flip mis_ok below, not this counter — the counter
        // must stay identical across thread counts, and the parity suite
        // compares it with ==.)
        stats.mis_ok = false;
        ++stats.mis_failed_steps;
        TRACE_COUNTER("engine.mis_failed_steps", 1);
        if (!config_.lockstep) stage_broken = true;
        continue;
      }
      // Several components' rows interleave by member rank; a lone
      // component's row keeps the order run_component logged it in.
      if (contributors > 1) std::sort(merge_row_.begin(), merge_row_.end());
      std::vector<InstanceId> row;
      row.reserve(merge_row_.size());
      for (const auto& [rank, delta] : merge_row_) {
        const InstanceId i = members[static_cast<std::size_t>(rank)];
        const DemandInstance& inst = problem_->instance(i);
        const auto& critical =
            plan_->critical[static_cast<std::size_t>(i)];
        rule.beta_increments(inst, critical, delta, increments);
        bookkeep_raise(i, delta, increments, objective, stats,
                       raised_order);
        // Serial, here rather than in run_component: an instance outside
        // the group can read variables that two components write, so its
        // stale flag is the one entry concurrent components could share.
        mark_readers_stale(i, group, false);
        row.push_back(i);
      }
      if (config_.keep_stack)
        stack_tags_.push_back(StackTag{group, j, rows_this_stage});
      ++rows_this_stage;
      stack.push_back(std::move(row));
    }
    stats.max_steps_in_stage = std::max(stats.max_steps_in_stage, counted);
  }
  for (const EpochComponent& comp : comps) {
    if (comp.mis_failed) stats.mis_ok = false;
    if (comp.ended_short) stats.lockstep_ok = false;
  }
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
