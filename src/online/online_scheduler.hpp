// OnlineScheduler: the incremental warm-start re-solve service.
//
// The batch pipeline solves a static Problem once; the service regime
// replays an arrival/departure event stream (online/event_stream.hpp)
// and must keep the two-phase solution current at every batch.  The
// scheduler exploits the engine's decomposition invariant: conflict
// components of a height class (instances connected by shared edges or
// shared demands across ALL plan groups) evolve fully independently
// under a fixed stage schedule, so a batch only has to re-solve the
// components its events actually touched.
//
// Per height class (wide/kUnit, narrow/kNarrow — the Section 6 split)
// the scheduler keeps:
//  * a run-persistent ComponentForest over the class's live instances
//    (the conflict components across all plan groups), revised per
//    batch by ComponentForest::update — add/remove of member instances,
//    with the untouched components re-united without path walks;
//  * a per-component cache: member ids, the component's raise-stack
//    rows with their (group, stage, step) tags, the members' final
//    LHS (SolveResult::final_lhs) and the component's observed lambda.
// A component whose member set is unchanged by the batch (and whose
// class-wide stage parameters did not move) is *skipped*: its cached
// rows, duals and lambda are exactly what a cold solve would recompute.
// Everything else forms the touched set, re-solved in ONE restricted
// TwoPhaseEngine::run_warm call seeded with the pinned class schedule.
//
// assemble() splices the cached components back into full per-class
// artifacts (stack rows merged by tag, ascending ids within a tag — the
// chronological order of the cold run) and prunes; solve_cold() is the
// from-scratch reference.  tests/test_online.cpp holds the two to exact
// (==) equality on stack, tags, selected sets, lambda and per-instance LHS
// after every batch, across threads {1, 4}.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "decomp/layered.hpp"
#include "framework/component_forest.hpp"
#include "framework/two_phase.hpp"
#include "model/problem.hpp"
#include "online/event_stream.hpp"
#include "online/snapshot.hpp"

namespace treesched {

enum class OnlineSolveMode {
  kWarm,  // incremental: skip untouched components
  kCold,  // re-solve everything each batch (the baseline arm)
};

struct OnlineConfig {
  // Engine configuration for the per-class runs; rule, keep_stack and
  // keep_lhs are overridden per class by the scheduler.
  SolverConfig solver;
  DecompKind decomp = DecompKind::kRootFixing;
  OnlineSolveMode mode = OnlineSolveMode::kWarm;
  // Tombstoned (departed) demands stay in the Problem so instance ids
  // stay stable; once dead > compaction_slack * live (and more than the
  // floor), the records are compacted and every cache rebuilt cold.
  double compaction_slack = 4.0;
  int compaction_floor = 64;
};

// What one step() did, for throughput reporting.
struct OnlineBatchReport {
  int batch = 0;
  double time = 0.0;
  int arrivals = 0;
  int departures = 0;
  int live_demands = 0;
  int live_instances = 0;
  // Across both height classes: components re-solved this batch vs the
  // total, and the instances inside them (the re-solve working set).
  int touched_components = 0;
  int total_components = 0;
  std::int64_t touched_instances = 0;
  bool compacted = false;
  bool params_changed = false;  // a class schedule moved => cold re-solve
  std::int64_t solve_ns = 0;    // problem rebuild + forest + engine time
  std::int64_t rebuild_ns = 0;  // problem + plan rebuild share of solve_ns
  std::int64_t refresh_ns = 0;  // forest + engine share of solve_ns
};

// Per-class output equivalent to a cold restricted engine run with
// keep_stack/keep_lhs: what the parity suite compares with ==.
struct ClassArtifacts {
  RaiseRuleKind rule = RaiseRuleKind::kUnit;
  bool any = false;  // class has live instances
  std::vector<std::vector<InstanceId>> raise_stack;
  std::vector<StackTag> stack_tags;
  std::vector<double> final_lhs;  // per instance id; 0.0 outside class
  double lambda = 0.0;
  Solution solution;  // prune_stack over the class stack
};

struct OnlineSolveArtifacts {
  ClassArtifacts wide, narrow;
  Solution solution;  // better-of-per-network combination
  double profit = 0.0;
  double lambda = 0.0;
};

class OnlineScheduler {
 public:
  // `base` supplies the topology, capacities and the initial resident
  // demands (adopted as live records that never depart; the event
  // stream's own initial population arrives via its batch 0).
  OnlineScheduler(const Problem& base, OnlineConfig config);

  // Restores a captured scheduler.  `base` and `config` must be the ones
  // the captured run was constructed with (the snapshot holds only the
  // churn state; topology, capacities and policy come from the caller —
  // basic shape mismatches throw).  The materialized problem, plans and
  // per-class forests are rebuilt deterministically from the snapshot's
  // records; the per-component caches are installed verbatim after being
  // cross-checked against the rebuilt forest's partition.
  OnlineScheduler(const Problem& base, OnlineConfig config,
                  const SchedulerSnapshot& snap);

  // Captures the full warm-start state: restoring the capture yields a
  // scheduler whose assemble() and future step()s are ==-identical to
  // this one's (tests/test_recovery.cpp pins it).
  SchedulerSnapshot capture() const;

  // Rejects, with a check_input diagnostic, a batch step() cannot apply:
  // an arrival with endpoints out of range or equal, a profit that is not
  // positive and finite, a height outside (0, 1], an access network out
  // of range, or a key already in use (or repeated in the batch); a
  // departure of a key that is not live (or departs twice); or a narrow
  // height whose class schedule would not be a finite int stage count.
  // step() calls it before changing any state, and DurableOnlineService
  // before the journal append, so a rejected batch is never journaled
  // and an admitted batch cannot throw.
  void check_batch(const EventBatch& batch) const;

  // Applies one event batch and re-solves the touched components.
  OnlineBatchReport step(const EventBatch& batch);

  // Splices the per-component caches into full per-class artifacts and
  // the combined solution.
  OnlineSolveArtifacts assemble() const;

  // The current materialized problem/plan and liveness (for the cold
  // reference and the feasibility report).
  const Problem& problem() const { return *problem_; }
  const LayeredPlan& plan() const { return plan_; }
  std::vector<char> live_mask() const;  // per instance id
  int live_demands() const { return live_demands_; }
  int batches_applied() const { return batches_applied_; }

 private:
  // One demand's whole service lifetime; the record index is its demand
  // id in the materialized problem until a compaction renumbers.
  struct DemandRecord {
    VertexId u = kNoVertex;
    VertexId v = kNoVertex;
    Profit profit = 0.0;
    Height height = 1.0;
    std::vector<NetworkId> access;  // empty = all networks
    DemandKey key = 0;
    bool alive = true;
  };

  // Cached state of one conflict component (identified by its member
  // list; keyed by its smallest member id).
  struct CompCache {
    std::vector<InstanceId> members;               // ascending ids
    std::vector<std::vector<InstanceId>> rows;     // this comp's stack rows
    std::vector<StackTag> tags;                    // parallel to rows
    std::vector<double> lhs;                       // parallel to members
    double lambda = 1.0;                           // min level over members
  };

  struct ClassState {
    RaiseRuleKind rule = RaiseRuleKind::kUnit;
    std::vector<char> mask;  // live AND in-class, per instance id
    StageParams params;
    ComponentForest forest;
    std::unordered_map<InstanceId, CompCache> cache;
    bool valid = false;  // false => next refresh re-solves everything
  };

  void adopt_topology(const Problem& base);
  void capture_class(const ClassState& cls, ClassSnapshot& out) const;
  void restore_class(ClassState& cls, const ClassSnapshot& snap);
  void rebuild_problem();
  void compact();
  // Re-solves the class's touched components against the current
  // problem/plan; returns via the report fields.
  void refresh_class(ClassState& cls, OnlineBatchReport& report);
  ClassArtifacts assemble_class(const ClassState& cls) const;

  OnlineConfig config_;
  // Immutable topology the per-batch problems are rebuilt over — shared
  // with the base (and every materialized problem), never copied.
  VertexId num_vertices_ = 0;
  std::shared_ptr<const std::vector<TreeNetwork>> networks_;
  std::vector<Capacity> capacities_;  // per global edge of the base
  // Tree decompositions depend only on the topology: computed once, the
  // per-batch plan rebuild is just the per-instance group/critical pass.
  std::vector<TreeDecomposition> decomps_;
  // 2(theta + 1), theta the largest pivot set: no instance's critical set
  // is larger (the capture node's and each pivot bend's path wings).
  int max_critical_ = 0;

  std::vector<DemandRecord> records_;  // index = demand id
  std::unordered_map<DemandKey, int> index_of_key_;
  int live_demands_ = 0;
  int dead_demands_ = 0;
  int batches_applied_ = 0;

  std::optional<Problem> problem_;
  LayeredPlan plan_;

  ClassState wide_, narrow_;
};

// Cold reference: per-class restricted engine runs (keep_stack/keep_lhs)
// over live AND in-class instances of `problem`, combined per network —
// exactly what OnlineScheduler::assemble() must reproduce field for
// field.  `solver` is the same base config the scheduler was given.
OnlineSolveArtifacts solve_cold(const Problem& problem,
                                const LayeredPlan& plan,
                                const SolverConfig& solver,
                                const std::vector<char>& live_mask);

}  // namespace treesched
