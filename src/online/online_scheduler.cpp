#include "online/online_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"

namespace treesched {

namespace {

inline std::int64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

bool in_class(const DemandInstance& inst, RaiseRuleKind rule) {
  return rule == RaiseRuleKind::kUnit ? is_wide_instance(inst)
                                      : !is_wide_instance(inst);
}

// Combines the per-class artifacts exactly as solve_height_split does:
// better-of per network when both classes ran, pass-through otherwise.
void combine_classes(const Problem& problem, OnlineSolveArtifacts& out) {
  if (out.wide.any && out.narrow.any) {
    out.solution = combine_better_of_per_network(problem, out.wide.solution,
                                                 out.narrow.solution);
    out.lambda = std::min(out.wide.lambda, out.narrow.lambda);
  } else if (out.wide.any) {
    out.solution = out.wide.solution;
    out.lambda = out.wide.lambda;
  } else if (out.narrow.any) {
    out.solution = out.narrow.solution;
    out.lambda = out.narrow.lambda;
  }
  out.profit = out.solution.profit(problem);
}

}  // namespace

void OnlineScheduler::adopt_topology(const Problem& base) {
  TS_REQUIRE(base.finalized());
  num_vertices_ = base.num_vertices();
  networks_ = base.shared_networks();
  capacities_.resize(static_cast<std::size_t>(base.num_global_edges()));
  for (EdgeId e = 0; e < base.num_global_edges(); ++e)
    capacities_[static_cast<std::size_t>(e)] = base.capacity(e);
  decomps_.reserve(networks_->size());
  int theta = 0;
  for (const TreeNetwork& network : *networks_) {
    decomps_.push_back(build_decomposition(network, config_.decomp));
    theta = std::max(theta, decomps_.back().pivot_size());
  }
  max_critical_ = 2 * (theta + 1);
}

OnlineScheduler::OnlineScheduler(const Problem& base, OnlineConfig config)
    : config_(std::move(config)) {
  adopt_topology(base);

  // The base's demands become permanent residents (negative keys, so the
  // event stream's non-negative keys can never collide).
  records_.reserve(static_cast<std::size_t>(base.num_demands()));
  for (DemandId d = 0; d < base.num_demands(); ++d) {
    const Demand& dem = base.demand(d);
    SnapshotDemandRecord rec;
    rec.u = dem.u;
    rec.v = dem.v;
    rec.profit = dem.profit;
    rec.height = dem.height;
    const auto& acc = base.access(d);
    if (static_cast<int>(acc.size()) < base.num_networks()) rec.access = acc;
    rec.key = -static_cast<DemandKey>(d) - 1;
    index_of_key_[rec.key] = static_cast<int>(records_.size());
    records_.push_back(std::move(rec));
    ++live_demands_;
  }

  wide_.rule = RaiseRuleKind::kUnit;
  narrow_.rule = RaiseRuleKind::kNarrow;

  rebuild_problem();
  OnlineBatchReport ignored;
  refresh_class(wide_, ignored);
  refresh_class(narrow_, ignored);
}

OnlineScheduler::OnlineScheduler(const Problem& base, OnlineConfig config,
                                 const SchedulerSnapshot& snap)
    : config_(std::move(config)) {
  adopt_topology(base);

  // The snapshot's record list is the full post-churn state — residents
  // included — so nothing is adopted from the base beyond the topology.
  records_.reserve(snap.records.size());
  for (const SnapshotDemandRecord& r : snap.records) {
    check_input(r.u >= 0 && r.u < num_vertices_ && r.v >= 0 &&
                    r.v < num_vertices_,
                "snapshot: record endpoint out of range for this base");
    check_input(index_of_key_.find(r.key) == index_of_key_.end(),
                "snapshot: duplicate demand key");
    index_of_key_[r.key] = static_cast<int>(records_.size());
    records_.push_back(r);
    if (r.alive)
      ++live_demands_;
    else
      ++dead_demands_;
  }
  batches_applied_ = static_cast<int>(snap.batches_applied);

  wide_.rule = RaiseRuleKind::kUnit;
  narrow_.rule = RaiseRuleKind::kNarrow;

  // The materialized problem, the layered plans and (below, per class)
  // the forests are deterministic functions of the records: recompute
  // them instead of trusting serialized derived state.
  rebuild_problem();
  restore_class(wide_, snap.wide);
  restore_class(narrow_, snap.narrow);
}

SchedulerSnapshot OnlineScheduler::capture() const {
  SchedulerSnapshot snap;
  snap.batches_applied = static_cast<std::uint32_t>(batches_applied_);
  snap.records = records_;
  snap.wide.components = wide_.cache;
  snap.narrow.components = narrow_.cache;
  return snap;
}

std::vector<char> OnlineScheduler::class_mask(RaiseRuleKind rule) const {
  const int n = problem_->num_instances();
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (InstanceId i = 0; i < n; ++i) {
    const DemandInstance& inst = problem_->instance(i);
    mask[static_cast<std::size_t>(i)] =
        in_class(inst, rule) &&
                records_[static_cast<std::size_t>(inst.demand)].alive
            ? 1
            : 0;
  }
  return mask;
}

void OnlineScheduler::restore_class(ClassState& cls,
                                    const ClassSnapshot& snap) {
  // The mask and the params are what the captured run's last refresh
  // derived from the same records; derive_stage_params re-applies
  // class_stage_params' admission checks to them.
  cls.mask = class_mask(cls.rule);
  cls.params =
      derive_stage_params(*problem_, plan_, cls.mask, cls.rule,
                          config_.solver.epsilon, config_.solver.xi_override);
  cls.forest.build(*problem_, cls.mask);
  // The caches are installed verbatim, but only after the rebuilt
  // forest's partition confirms them: every component's member list must
  // match its cache entry exactly, or the snapshot belongs to a
  // different problem than the records rebuild.  Its stack rows must be
  // what refresh_class splits off a run: in strictly ascending tag
  // order, each a non-empty ascending list of the component's own
  // members, so assemble() splices disjoint rows of ids it owns.
  const auto ascending = [](const auto& v) {
    return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
           v.end();
  };
  const int comps = cls.forest.num_components();
  check_input(static_cast<std::size_t>(comps) == snap.components.size(),
              "snapshot: component count does not match the rebuilt forest");
  for (int c = 0; c < comps; ++c) {
    const auto ids = cls.forest.component_members(c);
    const SnapshotComponent& sc = snap.components[static_cast<std::size_t>(c)];
    check_input(sc.members.size() == ids.size() &&
                    std::equal(ids.begin(), ids.end(), sc.members.begin()),
                "snapshot: component members do not match the rebuilt forest");
    check_input(sc.lhs.size() == sc.members.size() &&
                    sc.tags.size() == sc.rows.size(),
                "snapshot: component cache shape mismatch");
    check_input(ascending(sc.tags),
                "snapshot: component stack rows are not in tag order");
    for (const std::vector<InstanceId>& row : sc.rows)
      check_input(!row.empty() && ascending(row) &&
                      std::includes(ids.begin(), ids.end(), row.begin(),
                                    row.end()),
                  "snapshot: stack row is not an ascending list of its "
                  "component's members");
  }
  cls.cache = snap.components;
}

void OnlineScheduler::rebuild_problem() {
  TRACE_SPAN1("online", "rebuild_problem", "demands", records_.size());
  if (problem_.has_value()) {
    // Between compactions the record set is append-only (tombstones only
    // flip liveness), so the materialized problem extends in place:
    // reopen, append the new records, re-finalize — O(new instances) for
    // the expansion, linear index rebuild — and grow the plans to match.
    Problem& p = *problem_;
    const int old_demands = p.num_demands();
    TS_REQUIRE(old_demands <= static_cast<int>(records_.size()));
    if (old_demands == static_cast<int>(records_.size())) return;
    p.reopen();
    for (std::size_t r = static_cast<std::size_t>(old_demands);
         r < records_.size(); ++r) {
      const SnapshotDemandRecord& rec = records_[r];
      const DemandId d = p.add_demand(rec.u, rec.v, rec.profit, rec.height);
      if (!rec.access.empty()) p.set_access(d, rec.access);
    }
    p.finalize();
    extend_tree_layered_plan(p, decomps_, plan_);
  } else {
    Problem p(num_vertices_, networks_);
    EdgeId global = 0;
    for (NetworkId q = 0; q < static_cast<NetworkId>(networks_->size());
         ++q) {
      const EdgeId local_edges =
          (*networks_)[static_cast<std::size_t>(q)].num_edges();
      for (EdgeId local = 0; local < local_edges; ++local)
        p.set_capacity(q, local,
                       capacities_[static_cast<std::size_t>(global++)]);
    }
    // Every record is materialized — dead ones included.  Tombstones keep
    // demand and instance ids append-stable between compactions, which is
    // what lets the per-component caches survive a batch.
    for (const SnapshotDemandRecord& rec : records_) {
      const DemandId d = p.add_demand(rec.u, rec.v, rec.profit, rec.height);
      if (!rec.access.empty()) p.set_access(d, rec.access);
    }
    p.finalize();
    plan_ = build_tree_layered_plan(p, decomps_);
    problem_.emplace(std::move(p));
  }
}

void OnlineScheduler::compact() {
  TRACE_SPAN1("online", "compact", "dead", dead_demands_);
  std::vector<SnapshotDemandRecord> survivors;
  survivors.reserve(static_cast<std::size_t>(live_demands_));
  index_of_key_.clear();
  for (SnapshotDemandRecord& rec : records_) {
    if (!rec.alive) continue;
    index_of_key_[rec.key] = static_cast<int>(survivors.size());
    survivors.push_back(std::move(rec));
  }
  records_ = std::move(survivors);
  dead_demands_ = 0;
  // The surviving records renumber, so the incremental extension path is
  // off the table: drop the materialized problem to force a full rebuild.
  problem_.reset();
  // Instance ids were renumbered: every forest and cache is void, and the
  // empty masks make the next refresh start each class afresh.
  for (ClassState* cls : {&wide_, &narrow_}) {
    cls->mask.clear();
    cls->forest = ComponentForest();
    cls->cache.clear();
  }
}

std::vector<char> OnlineScheduler::live_mask() const {
  const int n = problem_->num_instances();
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (InstanceId i = 0; i < n; ++i) {
    const auto d = static_cast<std::size_t>(problem_->instance(i).demand);
    mask[static_cast<std::size_t>(i)] = records_[d].alive ? 1 : 0;
  }
  return mask;
}

void OnlineScheduler::check_batch(const EventBatch& batch) const {
  const auto networks = static_cast<NetworkId>(networks_->size());
  std::unordered_set<DemandKey> arriving;
  double narrow_h_min = 1.0;
  bool any_narrow = false;
  for (const OnlineArrival& arrival : batch.arrivals) {
    const DemandDraw& draw = arrival.draw;
    check_input(draw.u >= 0 && draw.u < num_vertices_ && draw.v >= 0 &&
                    draw.v < num_vertices_ && draw.u != draw.v,
                "online arrival: demand endpoints out of range");
    check_input(draw.profit > 0.0 && std::isfinite(draw.profit),
                "online arrival: profit must be positive and finite");
    check_input(draw.height > 0.0 && draw.height <= 1.0,
                "online arrival: height must lie in (0, 1]");
    for (const NetworkId q : draw.access)
      check_input(q >= 0 && q < networks,
                  "online arrival: access network out of range");
    check_input(index_of_key_.find(arrival.key) == index_of_key_.end() &&
                    arriving.insert(arrival.key).second,
                "online arrival: demand key already in use");
    if (!is_wide_height(draw.height)) {
      narrow_h_min = std::min(narrow_h_min, draw.height);
      any_narrow = true;
    }
  }
  std::unordered_set<DemandKey> departing;
  for (const DemandKey key : batch.departures) {
    const auto it = index_of_key_.find(key);
    const bool live =
        arriving.count(key) != 0 ||
        (it != index_of_key_.end() &&
         records_[static_cast<std::size_t>(it->second)].alive);
    check_input(live && departing.insert(key).second,
                "online departure: demand key is not live");
  }
  // Throws unless the narrow class's schedule stays admissible (see the
  // header) with this batch's smallest height, at any Delta the plans
  // can produce.
  if (any_narrow)
    class_stage_params(RaiseRuleKind::kNarrow, max_critical_, narrow_h_min,
                       config_.solver.epsilon, config_.solver.xi_override);
}

OnlineBatchReport OnlineScheduler::step(const EventBatch& batch) {
  TRACE_SPAN2("online", "step", "arrivals", batch.arrivals.size(),
              "departures", batch.departures.size());
  check_batch(batch);
  const auto t0 = std::chrono::steady_clock::now();
  OnlineBatchReport report;
  report.batch = batches_applied_++;
  report.time = batch.time;
  report.arrivals = static_cast<int>(batch.arrivals.size());
  report.departures = static_cast<int>(batch.departures.size());

  for (const OnlineArrival& arrival : batch.arrivals) {
    TS_REQUIRE(index_of_key_.find(arrival.key) == index_of_key_.end());
    SnapshotDemandRecord rec;
    rec.u = arrival.draw.u;
    rec.v = arrival.draw.v;
    rec.profit = arrival.draw.profit;
    rec.height = arrival.draw.height;
    rec.access = arrival.draw.access;
    rec.key = arrival.key;
    index_of_key_[rec.key] = static_cast<int>(records_.size());
    records_.push_back(std::move(rec));
    ++live_demands_;
  }
  for (const DemandKey key : batch.departures) {
    const auto it = index_of_key_.find(key);
    TS_REQUIRE(it != index_of_key_.end());
    SnapshotDemandRecord& rec = records_[static_cast<std::size_t>(it->second)];
    TS_REQUIRE(rec.alive);
    rec.alive = false;
    --live_demands_;
    ++dead_demands_;
  }

  // Never compact to an empty record set: a problem needs a demand.
  // With nothing live the tombstones stay until a batch with arrivals.
  const bool compacted =
      live_demands_ > 0 && dead_demands_ > config_.compaction_floor &&
      static_cast<double>(dead_demands_) >
          config_.compaction_slack * static_cast<double>(live_demands_);
  if (compacted) compact();
  report.compacted = compacted;

  // A departure-only batch leaves the materialized problem untouched —
  // tombstones only flip the liveness mask, never the instance set.
  const auto t_rebuild = std::chrono::steady_clock::now();
  if (!batch.arrivals.empty() || compacted) rebuild_problem();
  report.rebuild_ns = elapsed_ns(t_rebuild);

  const auto t_refresh = std::chrono::steady_clock::now();
  refresh_class(wide_, report);
  refresh_class(narrow_, report);
  report.refresh_ns = elapsed_ns(t_refresh);

  report.live_demands = live_demands_;
  // Every instance is in exactly one class.
  report.live_instances = static_cast<int>(
      std::count(wide_.mask.begin(), wide_.mask.end(), 1) +
      std::count(narrow_.mask.begin(), narrow_.mask.end(), 1));
  report.solve_ns = elapsed_ns(t0);
  return report;
}

void OnlineScheduler::refresh_class(ClassState& cls,
                                    OnlineBatchReport& report) {
  const Problem& problem = *problem_;
  const int n = problem.num_instances();

  // The class's new active mask and its delta against the previous batch.
  std::vector<char> mask = class_mask(cls.rule);
  std::vector<InstanceId> added, removed;
  const int old_n = static_cast<int>(cls.mask.size());
  for (InstanceId i = 0; i < n; ++i) {
    const bool now = mask[static_cast<std::size_t>(i)] != 0;
    const bool before =
        i < old_n && cls.mask[static_cast<std::size_t>(i)] != 0;
    if (now && !before) added.push_back(i);
    if (!now && before) removed.push_back(i);
  }

  // The class stage schedule every run (warm or cold) is pinned to.  A
  // moved parameter invalidates every cached component: they were solved
  // under a different schedule.  A class with an empty mask has nothing
  // cached (and its forest builds afresh below), so nothing is reported.
  const StageParams params =
      derive_stage_params(problem, plan_, mask, cls.rule,
                          config_.solver.epsilon, config_.solver.xi_override);
  const bool params_changed = params != cls.params;
  if (params_changed && !cls.mask.empty()) report.params_changed = true;
  const bool reuse =
      !params_changed && config_.mode == OnlineSolveMode::kWarm;

  cls.forest.update(problem, mask, added, removed);

  // A component the update carried over has exactly its old members, and
  // its dynamics depend only on its members (ids resolve to immutable
  // demand data), the capacities and the pinned schedule, so its cache
  // entry is what a re-solve would produce.
  const int comps = cls.forest.num_components();
  std::vector<SnapshotComponent> cache(static_cast<std::size_t>(comps));
  std::vector<int> touched;
  std::vector<InstanceId> touched_union;
  for (int c = 0; c < comps; ++c) {
    const int prior = reuse ? cls.forest.carried_from(c) : -1;
    if (prior >= 0) {
      cache[static_cast<std::size_t>(c)] =
          std::move(cls.cache[static_cast<std::size_t>(prior)]);
    } else {
      touched.push_back(c);
      const auto ids = cls.forest.component_members(c);
      touched_union.insert(touched_union.end(), ids.begin(), ids.end());
    }
  }
  report.total_components += comps;
  report.touched_components += static_cast<int>(touched.size());
  report.touched_instances +=
      static_cast<std::int64_t>(touched_union.size());

  if (!touched.empty()) {
    TRACE_SPAN2("online", "resolve", "components", touched.size(),
                "instances", touched_union.size());
    SolverConfig cfg = config_.solver;
    cfg.rule = cls.rule;
    cfg.keep_stack = true;
    cfg.keep_lhs = true;
    TwoPhaseEngine engine(problem, plan_, cfg);
    engine.restrict_to(touched_union);
    const SolveResult run = engine.run_warm(params);

    for (const int c : touched) {
      const auto ids = cls.forest.component_members(c);
      SnapshotComponent& cc = cache[static_cast<std::size_t>(c)];
      cc.members.assign(ids.begin(), ids.end());
      cc.lhs.resize(ids.size());
      double lambda = 1.0;
      bool any = false;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const double lhs =
            run.final_lhs[static_cast<std::size_t>(ids[k])];
        cc.lhs[k] = lhs;
        const double level = lhs / problem.instance(ids[k]).profit;
        lambda = any ? std::min(lambda, level) : level;
        any = true;
      }
      cc.lambda = lambda;
    }
    // Split the run's stack by component.  Rows are ascending by id (=
    // ascending member rank), so each component's slice — a subsequence —
    // stays ascending; the tag rides along unchanged, because conflict-
    // disjoint components advance through the same (group, stage, step)
    // grid no matter who runs alongside them.
    for (std::size_t r = 0; r < run.raise_stack.size(); ++r) {
      const StackTag tag = run.stack_tags[r];
      for (const InstanceId i : run.raise_stack[r]) {
        SnapshotComponent& cc =
            cache[static_cast<std::size_t>(cls.forest.component_of(i))];
        if (cc.tags.empty() || !(cc.tags.back() == tag)) {
          cc.tags.push_back(tag);
          cc.rows.emplace_back();
        }
        cc.rows.back().push_back(i);
      }
    }
  }

  cls.cache = std::move(cache);
  cls.mask = std::move(mask);
  cls.params = params;
}

ClassArtifacts OnlineScheduler::assemble_class(const ClassState& cls) const {
  const Problem& problem = *problem_;
  ClassArtifacts art;
  art.rule = cls.rule;
  art.final_lhs.assign(static_cast<std::size_t>(problem.num_instances()),
                       0.0);

  struct RowRef {
    StackTag tag;
    const std::vector<InstanceId>* row;
  };
  std::vector<RowRef> refs;
  double lambda = 1.0;
  bool any = false;
  for (const SnapshotComponent& cc : cls.cache) {
    for (std::size_t k = 0; k < cc.members.size(); ++k)
      art.final_lhs[static_cast<std::size_t>(cc.members[k])] = cc.lhs[k];
    lambda = any ? std::min(lambda, cc.lambda) : cc.lambda;
    any = true;
    for (std::size_t r = 0; r < cc.rows.size(); ++r)
      refs.push_back(RowRef{cc.tags[r], &cc.rows[r]});
  }
  art.any = any;
  art.lambda = any ? lambda : 0.0;

  // Chronological order is lexicographic in (group, stage, step); within
  // one tag the concurrent components' sub-rows merge back in ascending
  // id, reproducing the cold stack row exactly.  Rows of distinct refs
  // are disjoint, so (tag, first id) is a strict total order.
  std::sort(refs.begin(), refs.end(), [](const RowRef& a, const RowRef& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.row->front() < b.row->front();
  });
  for (std::size_t r = 0; r < refs.size();) {
    std::size_t e = r;
    while (e < refs.size() && refs[e].tag == refs[r].tag) ++e;
    std::vector<InstanceId> row;
    for (std::size_t k = r; k < e; ++k)
      row.insert(row.end(), refs[k].row->begin(), refs[k].row->end());
    std::sort(row.begin(), row.end());
    art.stack_tags.push_back(refs[r].tag);
    art.raise_stack.push_back(std::move(row));
    r = e;
  }

  art.solution = prune_stack(problem, art.raise_stack);
  return art;
}

OnlineSolveArtifacts OnlineScheduler::assemble() const {
  TRACE_SPAN("online", "assemble");
  OnlineSolveArtifacts out;
  out.wide = assemble_class(wide_);
  out.narrow = assemble_class(narrow_);
  combine_classes(*problem_, out);
  return out;
}

OnlineSolveArtifacts solve_cold(const Problem& problem,
                                const LayeredPlan& plan,
                                const SolverConfig& solver,
                                const std::vector<char>& live_mask) {
  TRACE_SPAN("online", "solve_cold");
  OnlineSolveArtifacts out;
  const HeightClasses classes = classify_wide_narrow(problem);
  const auto run_class = [&](RaiseRuleKind rule,
                             const std::vector<InstanceId>& class_ids) {
    ClassArtifacts art;
    art.rule = rule;
    art.final_lhs.assign(static_cast<std::size_t>(problem.num_instances()),
                         0.0);
    std::vector<InstanceId> ids;
    for (const InstanceId i : class_ids)
      if (live_mask[static_cast<std::size_t>(i)]) ids.push_back(i);
    if (ids.empty()) return art;
    SolverConfig cfg = solver;
    cfg.rule = rule;
    cfg.keep_stack = true;
    cfg.keep_lhs = true;
    TwoPhaseEngine engine(problem, plan, cfg);
    engine.restrict_to(ids);
    SolveResult run = engine.run();
    art.any = true;
    art.raise_stack = std::move(run.raise_stack);
    art.stack_tags = std::move(run.stack_tags);
    art.final_lhs = std::move(run.final_lhs);
    art.lambda = run.stats.lambda_observed;
    art.solution = prune_stack(problem, art.raise_stack);
    return art;
  };
  out.wide = run_class(RaiseRuleKind::kUnit, classes.wide_ids);
  out.narrow = run_class(RaiseRuleKind::kNarrow, classes.narrow_ids);
  combine_classes(problem, out);
  return out;
}

}  // namespace treesched
