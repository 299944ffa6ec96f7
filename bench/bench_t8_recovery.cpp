// T8 — durability cost and crash-recovery latency of the online
// service: what the write-ahead journal and periodic snapshots add to
// the steady-churn replay, and what recovery costs with and without a
// snapshot to start from.
//
// Each scenario replays a seeded trace three ways: bare OnlineScheduler
// (the T7 warm arm), DurableOnlineService with journal + snapshots, and
// then recovery from the on-disk state — once loading the newest
// snapshot (replays only the journal suffix) and once journal-only
// (snapshots withheld, replays everything).  Before any timing is
// trusted, both recovered schedulers are held to exact equality with
// the uninterrupted run (selected sets, raise stacks, per-instance LHS,
// lambda); a mismatch aborts the bench.
//
// Gate: journal_bytes is deterministic (seeded trace, fixed codec) and
// committed under the perf-trajectory gate — growth means the record
// encoding got fatter.  The *_ms timings and the snapshot_* / recovery_*
// fields are informational for the trajectory tool; the binary itself
// exits nonzero if recovery-from-snapshot ever replays more than
// snapshot_every batches (the snapshot cursor stopped advancing).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "online/durable_service.hpp"
#include "online/event_stream.hpp"
#include "online/online_scheduler.hpp"
#include "workload/scenario.hpp"

using namespace treesched;
using namespace treesched::benchutil;

namespace {

struct RecoveryScenario {
  int id = 0;
  const char* name = "";
  VertexId num_vertices = 512;
  int num_networks = 2;
  int residents = 220;
  ArrivalLaw arrivals = ArrivalLaw::kPoisson;
  double rate = 6.0;
  int num_batches = 10;
  int snapshot_every = 4;
  double mean_lifetime = 2.0;
  std::uint64_t seed = 1;
};

DemandGenConfig demand_config() {
  DemandGenConfig cfg;
  cfg.endpoints = EndpointLaw::kLocalPair;
  cfg.locality = 2;
  cfg.heights = HeightLaw::kBimodal;
  cfg.profit_max = 64.0;
  return cfg;
}

Problem make_base(const RecoveryScenario& s) {
  TreeScenarioSpec spec;
  spec.num_vertices = s.num_vertices;
  spec.num_networks = s.num_networks;
  spec.identical_networks = true;
  spec.demands = demand_config();
  spec.demands.num_demands = s.residents;
  spec.seed = s.seed;
  return make_tree_problem(spec);
}

std::vector<EventBatch> make_trace(const Problem& base,
                                   const RecoveryScenario& s) {
  OnlineTrafficSpec traffic;
  traffic.arrivals = s.arrivals;
  traffic.rate = s.rate;
  traffic.num_batches = s.num_batches;
  traffic.seed = s.seed + 100;
  TenantClass tenant;
  tenant.mean_lifetime = s.mean_lifetime;
  traffic.tenants.push_back(tenant);
  return make_event_trace(base, demand_config(), traffic);
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Exact-equality check of two schedulers' assembled artifacts; aborts
// on divergence so no timing of a wrong recovery is ever reported.
void require_equal(const OnlineScheduler& got, const OnlineScheduler& want,
                   const char* what) {
  const OnlineSolveArtifacts a = got.assemble();
  const OnlineSolveArtifacts b = want.assemble();
  if (got.batches_applied() != want.batches_applied() ||
      got.live_mask() != want.live_mask() ||
      a.solution.selected != b.solution.selected ||
      a.wide.raise_stack != b.wide.raise_stack ||
      a.narrow.raise_stack != b.narrow.raise_stack ||
      a.wide.final_lhs != b.wide.final_lhs ||
      a.narrow.final_lhs != b.narrow.final_lhs || a.lambda != b.lambda) {
    std::fprintf(stderr,
                 "BENCH ERROR: %s diverged from the uninterrupted run\n",
                 what);
    std::abort();
  }
}

}  // namespace

int main() {
  print_claim(
      "t8_recovery",
      "journal + snapshot durability recovers the online service to the "
      "exact uninterrupted state, replaying at most snapshot_every "
      "batches when a snapshot is available");

  std::vector<RecoveryScenario> scenarios(2);
  scenarios[0].id = 0;
  scenarios[0].name = "poisson-sparse";
  scenarios[0].seed = 3;
  scenarios[1].id = 1;
  scenarios[1].name = "bursty-sparse";
  scenarios[1].arrivals = ArrivalLaw::kBursty;
  scenarios[1].rate = 3.0;
  scenarios[1].seed = 5;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "treesched_bench_t8";
  std::filesystem::create_directories(dir);

  std::vector<JsonRecord> rows;
  std::printf("%-16s %9s %9s %9s %11s %11s %9s\n", "scenario", "plain ms",
              "durable ms", "journalKB", "recov(snap)", "recov(wal)",
              "replayed");
  bool cursor_ok = true;
  for (const RecoveryScenario& s : scenarios) {
    const Problem base = make_base(s);
    const std::vector<EventBatch> trace = make_trace(base, s);
    const OnlineConfig config;

    // Arm 1: the bare scheduler — the durability-free reference (also
    // the state every recovery is compared against).
    auto start = std::chrono::steady_clock::now();
    OnlineScheduler plain(base, config);
    for (const EventBatch& batch : trace) plain.step(batch);
    const double plain_ms = ms_since(start);

    // Arm 2: the durable service — journal append + flush per batch,
    // snapshot every snapshot_every batches.
    DurabilityConfig dur;
    dur.journal_path = (dir / (std::string(s.name) + ".wal")).string();
    dur.snapshot_every = s.snapshot_every;
    start = std::chrono::steady_clock::now();
    std::int64_t journal_bytes = 0;
    {
      DurableOnlineService service(base, config, dur);
      for (const EventBatch& batch : trace) service.step(batch);
      journal_bytes = service.journal_bytes_written();
      require_equal(service.scheduler(), plain, "durable replay");
    }
    const double durable_ms = ms_since(start);

    // Snapshot size and write cost, measured directly.
    const SchedulerSnapshot snap = plain.capture();
    const double snapshot_bytes =
        static_cast<double>(encode_snapshot(snap).size());
    SnapshotStore probe((dir / (std::string(s.name) + ".probe")).string());
    probe.reset();
    start = std::chrono::steady_clock::now();
    probe.write(encode_snapshot(snap));
    const double snapshot_write_ms = ms_since(start);

    // Arm 3a: recovery from newest snapshot + journal suffix.
    RecoveryReport with_snap;
    start = std::chrono::steady_clock::now();
    {
      DurableOnlineService recovered =
          DurableOnlineService::recover(base, config, dur, &with_snap);
      require_equal(recovered.scheduler(), plain, "snapshot recovery");
    }
    const double recover_snap_ms = ms_since(start);
    if (!with_snap.snapshot_loaded ||
        with_snap.replayed > static_cast<std::uint32_t>(s.snapshot_every)) {
      std::fprintf(stderr,
                   "GATE: %s replayed %u batches with snapshot_every=%d\n",
                   s.name, with_snap.replayed, s.snapshot_every);
      cursor_ok = false;
    }

    // Arm 3b: journal-only recovery — snapshots withheld by pointing
    // the store at slots that were never written.
    DurabilityConfig wal_only = dur;
    wal_only.snapshot_base = (dir / "absent").string();
    RecoveryReport wal_report;
    start = std::chrono::steady_clock::now();
    {
      DurableOnlineService recovered = DurableOnlineService::recover(
          base, config, wal_only, &wal_report);
      require_equal(recovered.scheduler(), plain, "journal-only recovery");
    }
    const double recover_wal_ms = ms_since(start);

    std::printf("%-16s %9.1f %10.1f %9.1f %10.1fms %10.1fms %6u/%u\n",
                s.name, plain_ms, durable_ms,
                static_cast<double>(journal_bytes) / 1024.0, recover_snap_ms,
                recover_wal_ms, with_snap.replayed, wal_report.replayed);

    JsonRecord row;
    row.emplace_back("scenario", s.id);
    row.emplace_back("seed", static_cast<double>(s.seed));
    row.emplace_back("batches", s.num_batches);
    row.emplace_back("residents", s.residents);
    row.emplace_back("journal_bytes",
                     static_cast<double>(journal_bytes));  // gated
    row.emplace_back("snapshot_bytes", snapshot_bytes);
    row.emplace_back("snapshot_write_ms", snapshot_write_ms);
    row.emplace_back("snapshot_batches",
                     static_cast<double>(with_snap.snapshot_batches));
    row.emplace_back("recovery_replayed_with_snapshot",
                     static_cast<double>(with_snap.replayed));
    row.emplace_back("recovery_replayed_journal_only",
                     static_cast<double>(wal_report.replayed));
    row.emplace_back("recovery_with_snapshot_ms", recover_snap_ms);
    row.emplace_back("recovery_journal_only_ms", recover_wal_ms);
    row.emplace_back("plain_replay_ms", plain_ms);
    row.emplace_back("durable_replay_ms", durable_ms);
    rows.push_back(std::move(row));
  }
  emit_json("t8_recovery", rows);

  std::printf("snapshot cursor gate: %s\n", cursor_ok ? "ok" : "VIOLATED");
  return cursor_ok ? 0 : 1;
}
