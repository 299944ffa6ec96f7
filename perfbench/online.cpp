// online-dense and online-sparse: the DurableOnlineService (journal, a
// snapshot every 16 batches) replaying a seeded arrival/departure trace.
// One operation is a step() followed by scheduler().assemble(); the
// open-loop latencies are derived from these service times by run.py.
// A lap is a fresh set-up followed by the trace's first batches.  The
// network is part of the workload (a fixed tree per shape); the seed
// draws the resident demands and the trace.
//
//  - online-dense: 2048-vertex random-attachment trees, 2 independent
//    networks, 3000 resident uniform-pair demands, Poisson arrivals at
//    64 per batch with mean lifetime 8, threads 4.  The conflict graph
//    percolates, so nearly every component is touched each batch and the
//    cost is the rebuild plus a full warm re-solve.
//  - online-sparse: an 8192-vertex tree with an identical second copy,
//    3400 local-pair residents (locality 2), bursty arrivals at rate 24
//    with mean lifetime 2, threads 1.  Few components are touched, so the
//    cost shifts to the cache splice in assemble(), the rebuild, the
//    journal and the serial engine path.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>

#include "bench.hpp"
#include "capacity/capacity_profile.hpp"
#include "decomp/layered.hpp"
#include "model/solution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/durable_service.hpp"
#include "online/event_stream.hpp"
#include "online/journal.hpp"
#include "online/online_scheduler.hpp"
#include "online/snapshot.hpp"
#include "workload/demand_gen.hpp"
#include "workload/tree_gen.hpp"

namespace perfbench {

using namespace treesched;
namespace fs = std::filesystem;

namespace {

constexpr int kMinLaps = 3;
constexpr int kSnapshotEvery = 16;
// assemble() is compared with a cold re-solve every this many batches.
constexpr int kColdCheckEvery = 64;
// Recovery files are copied 8 batches after a snapshot, at these batch
// counts; each copy is recovered kRecoveriesPerCopy times.
constexpr std::uint32_t kCopyPoints[] = {24, 72, 120, 168};
constexpr int kRecoveriesPerCopy = 5;
constexpr std::uint64_t kTopologySeed = 1;

struct Shape {
  const char* name;
  VertexId vertices;
  bool identical_networks;
  EndpointLaw endpoints;
  int locality;
  double profit_max;
  int residents;
  ArrivalLaw arrivals;
  double rate;
  double mean_lifetime;
  int threads;
  // Batches per lap (p95 needs >= 200).
  int lap_batches;
};

constexpr Shape kDense{"online-dense", 2048, false,
                       EndpointLaw::kUniformPair, 4, 100.0, 3000,
                       ArrivalLaw::kPoisson, 64.0, 8.0, 4, 200};
constexpr Shape kSparse{"online-sparse", 8192, true,
                        EndpointLaw::kLocalPair, 2, 64.0, 3400,
                        ArrivalLaw::kBursty, 24.0, 2.0, 1, 200};

DemandGenConfig demand_config(const Shape& shape) {
  DemandGenConfig cfg;
  cfg.endpoints = shape.endpoints;
  cfg.locality = shape.locality;
  cfg.heights = HeightLaw::kBimodal;
  cfg.profit_max = shape.profit_max;
  return cfg;
}

OnlineConfig online_config(const Shape& shape) {
  OnlineConfig config;
  config.solver.threads = shape.threads;
  return config;
}

struct Setup {
  std::optional<Problem> base;
  std::vector<EventBatch> trace;
  std::optional<DurableOnlineService> service;
  double finalize_ms = 0.0;
};

// Base problem as make_tree_problem builds it, with finalize() timed.
void make_base(const Shape& shape, std::uint64_t seed, Setup& s) {
  Rng topology(kTopologySeed);
  Problem p(shape.vertices,
            make_networks(TreeShape::kRandomAttachment, shape.vertices, 2,
                          topology, shape.identical_networks));
  apply_capacity_law(p, CapacityLaw::kUniform, 1.0, 1.0, topology);
  Rng rng(seed);
  DemandGenConfig demands = demand_config(shape);
  demands.num_demands = shape.residents;
  add_random_demands(p, demands, rng);
  const auto start = Clock::now();
  p.finalize();
  s.finalize_ms = ms_since(start);
  s.base.emplace(std::move(p));
}

OnlineTrafficSpec traffic_of(const Shape& shape, std::uint64_t seed) {
  OnlineTrafficSpec traffic;
  traffic.arrivals = shape.arrivals;
  traffic.rate = shape.rate;
  traffic.num_batches = shape.lap_batches;
  traffic.seed = seed + 100;
  TenantClass tenant;
  tenant.mean_lifetime = shape.mean_lifetime;
  traffic.tenants.push_back(tenant);
  // Batch 0 brings the churn population to its steady-state size (mean
  // arrivals per batch x mean lifetime), so measured batches start in
  // steady state.
  const double burst_mean = traffic.arrivals == ArrivalLaw::kBursty
                                ? 1.0 + traffic.burst_fraction *
                                            (traffic.burst_factor - 1.0)
                                : 1.0;
  traffic.initial_population =
      static_cast<int>(shape.rate * burst_mean * shape.mean_lifetime + 0.5);
  return traffic;
}

DurabilityConfig durability(const std::string& journal_path) {
  DurabilityConfig dur;
  dur.journal_path = journal_path;
  dur.snapshot_every = kSnapshotEvery;
  return dur;
}

// Input generation, finalize, trace generation, service construction
// (the initial cold solve) and the warm-up operation (batch 0).
void set_up(const Shape& shape, const Options& options, Setup& s) {
  make_base(shape, options.seed, s);
  s.trace = make_event_trace(*s.base, demand_config(shape),
                             traffic_of(shape, options.seed));
  s.service.emplace(*s.base, online_config(shape),
                    durability(options.workdir + "/service.wal"));
  s.service->step(s.trace[0]);
  s.service->scheduler().assemble();
}

bool equal_artifacts(const OnlineSolveArtifacts& a,
                     const OnlineSolveArtifacts& b) {
  const auto same = [](const ClassArtifacts& x, const ClassArtifacts& y) {
    return x.raise_stack == y.raise_stack && x.stack_tags == y.stack_tags &&
           x.final_lhs == y.final_lhs && x.lambda == y.lambda &&
           x.solution.selected == y.solution.selected;
  };
  return same(a.wide, b.wide) && same(a.narrow, b.narrow) &&
         a.solution.selected == b.solution.selected && a.lambda == b.lambda;
}

bool equals_cold(const OnlineScheduler& scheduler,
                 const OnlineSolveArtifacts& assembled,
                 const SolverConfig& solver) {
  return equal_artifacts(
      assembled, solve_cold(scheduler.problem(), scheduler.plan(), solver,
                            scheduler.live_mask()));
}

// A copy of the durable files as they stood at one batch count, and the
// uninterrupted scheduler's state there.
struct RecoveryCopy {
  std::string journal_path;
  SchedulerSnapshot state;
};

RecoveryCopy copy_files(const DurableOnlineService& service,
                        const std::string& journal_path,
                        const std::string& dir) {
  fs::create_directories(dir);
  RecoveryCopy copy;
  copy.journal_path = dir + "/service.wal";
  for (const char* suffix : {"", ".snap.a", ".snap.b"}) {
    const fs::path from = journal_path + suffix;
    if (fs::exists(from))
      fs::copy_file(from, copy.journal_path + suffix,
                    fs::copy_options::overwrite_existing);
  }
  copy.state = service.scheduler().capture();
  return copy;
}

// Sums over every batch of the untraced laps.
struct Sums {
  double wall_ms = 0.0, assemble_ms = 0.0, phase2_ms = 0.0;
  double rebuild_ms = 0.0, refresh_ms = 0.0;
  double append_ms = 0.0, snapshot_ms = 0.0;
  int batches = 0, append_batches = 0, snapshot_batches = 0, pruned = 0;
};

// Deterministic results of the first lap.
struct FirstLap {
  std::vector<double> profit;  // per batch; later laps must repeat it
  double profit_share = 0.0;   // summed over the batches
  std::int64_t touched_components = 0, total_components = 0;
  std::int64_t touched_instances = 0;
  int cold_resolves = 0, compactions = 0;
  std::int64_t journal_bytes = 0;
  std::int64_t snapshot_bytes = 0;
  std::vector<RecoveryCopy> copies;
};

// Recovers each copy: the public call, then its three parts one by one.
// Every recovered scheduler must equal the uninterrupted one.
void measure_recovery(const Shape& shape, const Problem& base,
                      const OnlineConfig& config,
                      const std::vector<RecoveryCopy>& copies, Report& r) {
  std::vector<double> recover_ms, load_ms, restore_ms, replay_ms;
  for (const RecoveryCopy& copy : copies) {
    const std::string where = std::string(shape.name) + ": recovery at batch " +
                              std::to_string(copy.state.batches_applied);
    for (int rep = 0; rep < kRecoveriesPerCopy; ++rep) {
      RecoveryReport report;
      const auto start = Clock::now();
      std::optional<DurableOnlineService> recovered;
      {
        obs::SpanGuard span("bench", "recover");
        recovered.emplace(DurableOnlineService::recover(
            base, config, durability(copy.journal_path), &report));
      }
      recover_ms.push_back(ms_since(start));
      r.attempt(report.snapshot_loaded &&
                    report.replayed == kSnapshotEvery / 2 &&
                    recovered->scheduler().capture() == copy.state,
                where);
    }
    auto start = Clock::now();
    SchedulerSnapshot snap;
    bool loaded = false;
    {
      obs::SpanGuard span("bench", "snapshot_load");
      loaded = SnapshotStore(copy.journal_path + ".snap").load_newest(snap);
    }
    load_ms.push_back(ms_since(start));
    start = Clock::now();
    std::optional<OnlineScheduler> restored;
    {
      obs::SpanGuard span("bench", "restore");
      restored.emplace(base, config, snap);
    }
    restore_ms.push_back(ms_since(start));
    start = Clock::now();
    {
      obs::SpanGuard span("bench", "replay");
      const JournalReplay replay = replay_journal(copy.journal_path);
      for (std::uint32_t seq = snap.batches_applied; seq < replay.next_seq;
           ++seq)
        restored->step(replay.batches[seq]);
    }
    replay_ms.push_back(ms_since(start));
    r.attempt(loaded && restored->capture() == copy.state,
              where + ", step by step");
  }
  r.layer("durability.recover_p50_ms", median(recover_ms));
  r.layer("durability.snapshot_load_ms", median(load_ms));
  r.layer("durability.restore_ms", median(restore_ms));
  r.layer("durability.replay_ms", median(replay_ms));
}

}  // namespace

Report run_online(const Options& options, bool dense) {
  const Shape& shape = dense ? kDense : kSparse;
  const OnlineConfig config = online_config(shape);
  const std::string journal_path = options.workdir + "/service.wal";
  Report r;
  Sums sums;
  FirstLap first;
  SpanTotals spans;
  std::vector<double> finalize_ms, plan_ms;
  int traced_batches = 0;
  std::int64_t live_instances = 0;

  const auto lap = [&](int index, bool traced) {
    const bool first_lap = index == 0 && !traced;
    const bool probe = first_lap && options.trace;
    Setup s;
    const auto setup_start = Clock::now();
    set_up(shape, options, s);
    if (!traced) {
      r.setup_s.push_back(ms_since(setup_start) / 1e3);
      finalize_ms.push_back(s.finalize_ms);
    }
    DurableOnlineService& service = *s.service;
    std::vector<double> walls;
    for (int k = 1; k <= shape.lap_batches; ++k) {
      const EventBatch& batch = s.trace[static_cast<std::size_t>(k)];
      // A traced pass keeps only the last batch's spans for the trace file.
      if (traced) obs::reset_trace();
      const auto start = Clock::now();
      OnlineBatchReport report;
      {
        obs::SpanGuard span("bench", "step");
        report = service.step(batch);
      }
      const double step_ms = ms_since(start);
      const auto assemble_start = Clock::now();
      OnlineSolveArtifacts assembled;
      {
        obs::SpanGuard span("bench", "assemble");
        assembled = service.scheduler().assemble();
      }
      const double assemble_ms = ms_since(assemble_start);
      const double wall_ms = ms_since(start);
      walls.push_back(wall_ms);

      // Checks and bookkeeping, outside the timed region.
      const OnlineScheduler& scheduler = service.scheduler();
      const std::string what = std::string(shape.name) + ": lap " +
                               std::to_string(index) + " batch " +
                               std::to_string(k);
      bool ok =
          check_feasibility(scheduler.problem(), assembled.solution).feasible;
      if (first_lap) {
        if (k % kColdCheckEvery == 0 || k == shape.lap_batches)
          ok = ok && equals_cold(scheduler, assembled, config.solver);
        first.profit.push_back(assembled.profit);
        const std::vector<char> live = scheduler.live_mask();
        first.profit_share +=
            assembled.profit / offered_profit(scheduler.problem(), &live);
        r.events.push_back(report.arrivals + report.departures);
      } else {
        const auto at = static_cast<std::size_t>(k - 1);
        ok = ok && assembled.profit == first.profit[at];
      }
      r.attempt(ok, what);
      if (traced) {
        spans.harvest();
        ++traced_batches;
        live_instances += report.live_instances;
        continue;
      }
      ++sums.batches;
      sums.wall_ms += wall_ms;
      sums.assemble_ms += assemble_ms;
      sums.rebuild_ms += ms_of_ns(report.rebuild_ns);
      sums.refresh_ms += ms_of_ns(report.refresh_ns);
      // What step() spends beyond the scheduler: the journal append, and
      // on every snapshot_every-th batch the snapshot write.
      const double durable_ms = step_ms - ms_of_ns(report.solve_ns);
      const std::uint32_t applied = service.batches_applied();
      if (applied % kSnapshotEvery == 0) {
        sums.snapshot_ms += durable_ms;
        ++sums.snapshot_batches;
      } else {
        sums.append_ms += durable_ms;
        ++sums.append_batches;
      }
      if (!first_lap) continue;
      first.touched_components += report.touched_components;
      first.total_components += report.total_components;
      first.touched_instances += report.touched_instances;
      first.cold_resolves += report.params_changed ? 1 : 0;
      first.compactions += report.compacted ? 1 : 0;
      if (!probe) continue;
      // Phase 2 alone: the prune of each class's spliced stack.
      const auto prune_start = Clock::now();
      Solution wide, narrow;
      {
        obs::SpanGuard span("bench", "phase2");
        wide = prune_stack(scheduler.problem(), assembled.wide.raise_stack);
        narrow = prune_stack(scheduler.problem(), assembled.narrow.raise_stack);
      }
      sums.phase2_ms += ms_since(prune_start);
      ++sums.pruned;
      r.attempt(wide.selected == assembled.wide.solution.selected &&
                    narrow.selected == assembled.narrow.solution.selected,
                what + ", phase 2 alone");
      for (const std::uint32_t point : kCopyPoints)
        if (applied == point)
          first.copies.push_back(copy_files(
              service, journal_path,
              options.workdir + "/copy" + std::to_string(point)));
    }
    (traced ? r.traced_laps : r.laps).push_back(std::move(walls));
    if (!first_lap) return;
    first.journal_bytes = service.journal_bytes_written();
    if (!probe) return;
    first.snapshot_bytes = static_cast<std::int64_t>(
        encode_snapshot(service.scheduler().capture()).size());
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      obs::SpanGuard span("bench", "plan");
      build_tree_layered_plan(*s.base, config.decomp);
      plan_ms.push_back(ms_since(start));
    }
    s.service.reset();
    measure_recovery(shape, *s.base, config, first.copies, r);
  };
  run_laps(options.seconds, kMinLaps, [&](int k) { lap(k, false); });
  r.profit_share = first.profit_share / shape.lap_batches;
  if (!options.trace) return r;

  r.layer("model.lower_ms", median(finalize_ms));
  r.layer("decomp.plan_ms", median(plan_ms));
  r.layer("framework.phase2_ms", sums.phase2_ms / sums.pruned);
  r.layer("online.rebuild_ms", sums.rebuild_ms / sums.batches);
  r.layer("online.refresh_ms", sums.refresh_ms / sums.batches);
  r.layer("online.assemble_ms", sums.assemble_ms / sums.batches);
  r.layer("online.touched_ratio",
          static_cast<double>(first.touched_components) /
              static_cast<double>(first.total_components));
  r.layer("online.touched_instances",
          static_cast<double>(first.touched_instances) / shape.lap_batches);
  r.layer("online.cold_resolves", first.cold_resolves);
  r.layer("online.compactions", first.compactions);
  r.layer("durability.append_ms", sums.append_ms / sums.append_batches);
  r.layer("durability.snapshot_ms", sums.snapshot_ms / sums.snapshot_batches);
  r.layer("durability.journal_bytes", static_cast<double>(first.journal_bytes));
  r.layer("durability.snapshot_bytes",
          static_cast<double>(first.snapshot_bytes));
  // Named layers against the batch they sit in; what is left is the event
  // bookkeeping inside step() and the timers themselves.
  const double named = sums.rebuild_ms + sums.refresh_ms + sums.append_ms +
                       sums.snapshot_ms + sums.assemble_ms;
  r.layer("obs.unattributed_share", 1.0 - named / sums.wall_ms);

  obs::enable_tracing();
  obs::MetricsRegistry::global().reset();
  run_laps(options.seconds, kMinLaps, [&](int k) { lap(k, true); });
  obs::disable_tracing();
  const double traced = traced_batches;
  r.layer("framework.forest_build_ms", spans.ms("forest/build") / traced);
  r.layer("framework.epoch_setup_ms", spans.ms("engine/epoch_setup") / traced);
  r.layer("framework.merge_ms", spans.ms("engine/merge") / traced);
  r.layer("framework.worker_busy_share", worker_busy_share());
  r.layer("framework.largest_component_share",
          largest_component_size() / (static_cast<double>(live_instances) /
                                       traced));
  obs::write_chrome_trace(options.workdir + "/trace.json");
  return r;
}

}  // namespace perfbench
