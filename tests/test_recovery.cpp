// Crash recovery parity: for every seeded crash point, recovering from
// the journal + newest valid snapshot must reproduce the uninterrupted
// run EXACTLY — the same raise stack, tags, selected sets, lambda and
// per-shard LHS the online parity suite compares, plus the liveness
// mask and the instance numbering (compaction renumbering included).
// And no torn or corrupt journal/snapshot is ever accepted: a damaged
// file loses at most the un-applied tail, never yields a different
// state (the PR 8 corrupt_undetected == 0 standard, at process level).
#include "online/durable_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/framing.hpp"

#include "online/event_stream.hpp"
#include "online/journal.hpp"
#include "online/online_scheduler.hpp"
#include "online/snapshot.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::small_tree_problem;

// --- plumbing --------------------------------------------------------------

std::string temp_path(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "treesched_recovery";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

void expect_class_equal(const ClassArtifacts& got, const ClassArtifacts& want,
                        const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.any, want.any);
  EXPECT_EQ(got.raise_stack, want.raise_stack);
  ASSERT_EQ(got.stack_tags.size(), want.stack_tags.size());
  for (std::size_t r = 0; r < got.stack_tags.size(); ++r)
    EXPECT_EQ(got.stack_tags[r], want.stack_tags[r]);
  EXPECT_EQ(got.solution.selected, want.solution.selected);
  EXPECT_EQ(got.lambda, want.lambda);  // exact, no tolerance
  EXPECT_EQ(got.final_lhs, want.final_lhs);
}

// Exact state equality between two live schedulers: the assembled
// artifacts field for field, plus the materialized problem's shape and
// liveness (instance-id stability — the compaction satellite's claim).
void expect_scheduler_equal(const OnlineScheduler& got,
                            const OnlineScheduler& want,
                            const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.batches_applied(), want.batches_applied());
  ASSERT_EQ(got.problem().num_instances(), want.problem().num_instances());
  ASSERT_EQ(got.problem().num_demands(), want.problem().num_demands());
  EXPECT_EQ(got.live_demands(), want.live_demands());
  EXPECT_EQ(got.live_mask(), want.live_mask());
  const OnlineSolveArtifacts a = got.assemble();
  const OnlineSolveArtifacts b = want.assemble();
  expect_class_equal(a.wide, b.wide, where + " wide");
  expect_class_equal(a.narrow, b.narrow, where + " narrow");
  EXPECT_EQ(a.solution.selected, b.solution.selected);
  EXPECT_EQ(a.profit, b.profit);
  EXPECT_EQ(a.lambda, b.lambda);
}

// Every deterministic OnlineBatchReport field (the timings are not):
// a restore that derived a different class mask or different params
// would re-solve other components than the uninterrupted run does.
void expect_report_equal(const OnlineBatchReport& got,
                         const OnlineBatchReport& want,
                         const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.batch, want.batch);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.arrivals, want.arrivals);
  EXPECT_EQ(got.departures, want.departures);
  EXPECT_EQ(got.live_demands, want.live_demands);
  EXPECT_EQ(got.live_instances, want.live_instances);
  EXPECT_EQ(got.touched_components, want.touched_components);
  EXPECT_EQ(got.total_components, want.total_components);
  EXPECT_EQ(got.touched_instances, want.touched_instances);
  EXPECT_EQ(got.compacted, want.compacted);
  EXPECT_EQ(got.params_changed, want.params_changed);
}

// The cold-reference parity check from test_online: the recovered
// scheduler must not just equal the uninterrupted one, it must still
// equal a from-scratch solve of its own problem.
void expect_cold_parity(const OnlineScheduler& scheduler,
                        const SolverConfig& solver,
                        const std::string& where) {
  const OnlineSolveArtifacts warm = scheduler.assemble();
  const OnlineSolveArtifacts cold = solve_cold(
      scheduler.problem(), scheduler.plan(), solver, scheduler.live_mask());
  expect_class_equal(warm.wide, cold.wide, where + " vs-cold wide");
  expect_class_equal(warm.narrow, cold.narrow, where + " vs-cold narrow");
  SCOPED_TRACE(where);
  EXPECT_EQ(warm.solution.selected, cold.solution.selected);
  EXPECT_EQ(warm.profit, cold.profit);
  EXPECT_EQ(warm.lambda, cold.lambda);
}

// A fresh scheduler stepped through trace[0..upto) — the uninterrupted
// reference every recovery is held to.
OnlineScheduler reference_at(const Problem& base, const OnlineConfig& config,
                             const std::vector<EventBatch>& trace,
                             std::size_t upto) {
  OnlineScheduler scheduler(base, config);
  for (std::size_t b = 0; b < upto; ++b) scheduler.step(trace[b]);
  return scheduler;
}

struct Scenario {
  Problem base;
  OnlineConfig config;
  std::vector<EventBatch> trace;
};

Scenario make_scenario(ArrivalLaw law, std::uint64_t seed) {
  Scenario s{small_tree_problem(seed, 28, 2, 8, HeightLaw::kBimodal), {}, {}};
  DemandGenConfig demand_cfg;
  demand_cfg.heights = HeightLaw::kBimodal;
  OnlineTrafficSpec traffic;
  traffic.arrivals = law;
  traffic.rate = 5.0;
  traffic.num_batches = 8;
  traffic.seed = seed;
  TenantClass churn;
  churn.mean_lifetime = 4.0;
  traffic.tenants = {churn};
  s.trace = make_event_trace(s.base, demand_cfg, traffic);
  return s;
}

// Local-pair demands on identical networks: the conflict graph splits
// into many components, and a batch touches only a few of them.
Scenario make_local_scenario(std::uint64_t seed) {
  DemandGenConfig demand_cfg;
  demand_cfg.endpoints = EndpointLaw::kLocalPair;
  demand_cfg.locality = 2;
  demand_cfg.heights = HeightLaw::kBimodal;
  TreeScenarioSpec spec;
  spec.num_vertices = 128;
  spec.identical_networks = true;
  spec.demands = demand_cfg;
  spec.demands.num_demands = 24;
  spec.seed = seed;
  Scenario s{make_tree_problem(spec), {}, {}};
  OnlineTrafficSpec traffic;
  traffic.rate = 3.0;
  traffic.num_batches = 10;
  traffic.seed = seed;
  TenantClass churn;
  churn.mean_lifetime = 3.0;
  traffic.tenants = {churn};
  s.trace = make_event_trace(s.base, demand_cfg, traffic);
  return s;
}

// --- crash plan ------------------------------------------------------------

TEST(CrashPlan, ParsesSpecStrings) {
  const CrashPlan empty = parse_crash_plan("");
  EXPECT_FALSE(empty.armed());

  const CrashPlan plan =
      parse_crash_plan("point=mid-snapshot,batch=5,seed=99");
  EXPECT_EQ(plan.point, CrashPoint::kMidSnapshotWrite);
  EXPECT_EQ(plan.batch, 5u);
  EXPECT_EQ(plan.seed, 99u);

  EXPECT_EQ(parse_crash_plan("point=mid-append").point,
            CrashPoint::kMidJournalAppend);
  EXPECT_EQ(parse_crash_plan("point=after-append").point,
            CrashPoint::kAfterAppend);
  EXPECT_EQ(parse_crash_plan("point=after-apply").point,
            CrashPoint::kAfterApply);
  EXPECT_EQ(parse_crash_plan("point=after-snapshot").point,
            CrashPoint::kAfterSnapshot);

  EXPECT_THROW(parse_crash_plan("point=mid-flight"), std::invalid_argument);
  EXPECT_THROW(parse_crash_plan("batch=x"), std::invalid_argument);
  EXPECT_THROW(parse_crash_plan("frequency=2"), std::invalid_argument);
  EXPECT_THROW(parse_crash_plan("batch"), std::invalid_argument);
}

// --- journal ---------------------------------------------------------------

void expect_batch_equal(const EventBatch& got, const EventBatch& want,
                        const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.time, want.time);
  ASSERT_EQ(got.arrivals.size(), want.arrivals.size());
  for (std::size_t a = 0; a < got.arrivals.size(); ++a) {
    EXPECT_EQ(got.arrivals[a].key, want.arrivals[a].key);
    EXPECT_EQ(got.arrivals[a].tenant, want.arrivals[a].tenant);
    EXPECT_EQ(got.arrivals[a].draw.u, want.arrivals[a].draw.u);
    EXPECT_EQ(got.arrivals[a].draw.v, want.arrivals[a].draw.v);
    EXPECT_EQ(got.arrivals[a].draw.profit, want.arrivals[a].draw.profit);
    EXPECT_EQ(got.arrivals[a].draw.height, want.arrivals[a].draw.height);
    EXPECT_EQ(got.arrivals[a].draw.access, want.arrivals[a].draw.access);
  }
  EXPECT_EQ(got.departures, want.departures);
}

TEST(Journal, AppendReplayRoundTrip) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 31);
  const std::string path = temp_path("journal_roundtrip.wal");
  {
    Journal journal = Journal::create(path);
    for (std::uint32_t b = 0; b < s.trace.size(); ++b) {
      EXPECT_EQ(journal.next_seq(), b);
      journal.append(s.trace[b]);
    }
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_TRUE(replay.file_exists);
  EXPECT_FALSE(replay.torn);
  EXPECT_EQ(replay.next_seq, s.trace.size());
  ASSERT_EQ(replay.batches.size(), s.trace.size());
  for (std::size_t b = 0; b < s.trace.size(); ++b)
    expect_batch_equal(replay.batches[b], s.trace[b],
                       "batch " + std::to_string(b));
}

TEST(Journal, MissingFileIsEmptyReplay) {
  const JournalReplay replay =
      replay_journal(temp_path("never_written.wal"));
  EXPECT_FALSE(replay.file_exists);
  EXPECT_FALSE(replay.torn);
  EXPECT_EQ(replay.next_seq, 0u);
  EXPECT_TRUE(replay.batches.empty());
}

// A torn append (simulated via append_torn, the crash harness's own
// write path) is discarded with a diagnostic; resume truncates it and
// the re-appended record replays cleanly.
TEST(Journal, TornAppendIsDiscardedAndResumed) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 33);
  const std::string path = temp_path("journal_torn.wal");
  {
    Journal journal = Journal::create(path);
    journal.append(s.trace[0]);
    journal.append(s.trace[1]);
    std::vector<std::uint8_t> record;
    const std::size_t len = encode_journal_record(s.trace[2], 2, record);
    journal.append_torn(s.trace[2], len / 2);
  }
  JournalReplay replay = replay_journal(path);
  EXPECT_TRUE(replay.torn);
  EXPECT_FALSE(replay.diagnostic.empty());
  EXPECT_EQ(replay.next_seq, 2u);
  {
    Journal journal = Journal::resume(path, replay);
    EXPECT_EQ(journal.next_seq(), 2u);
    journal.append(s.trace[2]);
  }
  replay = replay_journal(path);
  EXPECT_FALSE(replay.torn);
  ASSERT_EQ(replay.next_seq, 3u);
  for (std::size_t b = 0; b < 3; ++b)
    expect_batch_equal(replay.batches[b], s.trace[b],
                       "resumed batch " + std::to_string(b));
}

// Post-hoc truncation: however many bytes survive, the replay is exactly
// the longest whole-record prefix — never a partial or altered batch.
TEST(Journal, EveryTruncationYieldsExactPrefix) {
  const Scenario s = make_scenario(ArrivalLaw::kBursty, 37);
  std::vector<std::uint8_t> image;
  std::vector<std::size_t> boundaries{0};
  for (std::uint32_t b = 0; b < s.trace.size(); ++b) {
    encode_journal_record(s.trace[b], b, image);
    boundaries.push_back(image.size());
  }
  for (std::size_t len = 0; len <= image.size(); ++len) {
    const JournalReplay replay = replay_journal_bytes(
        {image.data(), len});
    // The number of whole records below `len`.
    std::size_t want = 0;
    while (want + 1 < boundaries.size() && boundaries[want + 1] <= len)
      ++want;
    ASSERT_EQ(replay.batches.size(), want) << "len " << len;
    EXPECT_EQ(replay.valid_bytes, boundaries[want]) << "len " << len;
    EXPECT_EQ(replay.torn, len != boundaries[want]) << "len " << len;
    for (std::size_t b = 0; b < want; ++b)
      expect_batch_equal(replay.batches[b], s.trace[b],
                         "len " + std::to_string(len) + " batch " +
                             std::to_string(b));
  }
}

// --- snapshot capture/restore ----------------------------------------------

// Captures at batch 5, restores through the byte image and steps the
// restored and the uninterrupted scheduler side by side to the end.
// Returns whether some batch after the restore served cached components.
bool expect_round_trip(const Scenario& s, const std::string& label) {
  SCOPED_TRACE(label);
  OnlineScheduler original(s.base, s.config);
  for (std::size_t b = 0; b < 5; ++b) original.step(s.trace[b]);

  const SchedulerSnapshot snap = original.capture();
  EXPECT_EQ(snap.batches_applied, 5u);
  // Deterministic encoding: equal state, equal bytes.
  const std::vector<std::uint8_t> image = encode_snapshot(snap);
  EXPECT_EQ(image, encode_snapshot(original.capture()));

  SchedulerSnapshot decoded;
  std::string error;
  EXPECT_TRUE(decode_snapshot(image, decoded, &error)) << error;
  EXPECT_TRUE(decoded == snap);

  OnlineScheduler restored(s.base, s.config, decoded);
  expect_scheduler_equal(restored, original, "restored at 5");
  // The restored scheduler is fully live: stepping both onward keeps
  // them identical batch by batch (forests, caches, masks and params all
  // came back).
  bool reused = false;
  for (std::size_t b = 5; b < s.trace.size(); ++b) {
    const OnlineBatchReport got = restored.step(s.trace[b]);
    expect_report_equal(got, original.step(s.trace[b]),
                        "restored batch " + std::to_string(b));
    reused |= got.touched_components < got.total_components;
  }
  expect_scheduler_equal(restored, original, "restored stepped to end");
  expect_cold_parity(restored, s.config.solver, "restored stepped to end");
  return reused;
}

TEST(Snapshot, CaptureEncodeDecodeRestoreRoundTrip) {
  // One giant component every batch, and a scenario in which batches
  // leave most components untouched: there a restore that derived a
  // different mask or different params would re-solve cold.
  expect_round_trip(make_scenario(ArrivalLaw::kPoisson, 41), "percolated");
  EXPECT_TRUE(expect_round_trip(make_local_scenario(45), "local"))
      << "every batch after the restore re-solved everything; the "
         "restored caches were not exercised";
}

// The store keeps the newest valid slot in memory: whole writes
// alternate between the slots, a torn write leaves the newest slot where
// it was (so the next write overwrites the torn one), and a store that
// loads resumes from the slot it loaded.
TEST(Snapshot, StoreWritesAlternateAndATornWriteKeepsTheNewestSlot) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 67);
  OnlineScheduler scheduler(s.base, s.config);
  std::vector<std::vector<std::uint8_t>> images;
  for (std::size_t b = 0; b < 5; ++b) {
    scheduler.step(s.trace[b]);
    images.push_back(encode_snapshot(scheduler.capture()));
  }
  const std::string base = temp_path("alternate.snap");
  SnapshotStore store(base);
  store.reset();
  store.write(images[0]);
  EXPECT_EQ(read_file(store.slot_a()), images[0]);
  EXPECT_FALSE(std::filesystem::exists(store.slot_b()));
  store.write(images[1]);
  EXPECT_EQ(read_file(store.slot_b()), images[1]);
  EXPECT_EQ(read_file(store.slot_a()), images[0]);
  // Torn: only a prefix reaches slot a, and slot b stays the newest.
  EXPECT_EQ(store.write(images[2], images[2].size() / 2),
            images[2].size() / 2);
  EXPECT_EQ(read_file(store.slot_a()).size(), images[2].size() / 2);
  store.write(images[3]);
  EXPECT_EQ(read_file(store.slot_a()), images[3]);
  EXPECT_EQ(read_file(store.slot_b()), images[1]);

  SnapshotStore reloaded(base);
  SchedulerSnapshot newest;
  ASSERT_TRUE(reloaded.load_newest(newest));
  EXPECT_EQ(encode_snapshot(newest), images[3]);
  reloaded.write(images[4]);
  EXPECT_EQ(read_file(reloaded.slot_b()), images[4]);
  EXPECT_EQ(read_file(reloaded.slot_a()), images[3]);
}

// A snapshot whose bytes are intact (the CRCs are recomputed on encode)
// but whose caches the records do not back is rejected at restore with a
// diagnostic: a stack row naming an instance outside its component would
// otherwise abort a later assemble() (an id past the problem) or splice
// a wrong stack (another component's member).
TEST(Snapshot, RestoreRejectsStackRowsOutsideTheirComponent) {
  const Scenario s = make_local_scenario(45);
  OnlineScheduler scheduler(s.base, s.config);
  for (std::size_t b = 0; b < 5; ++b) scheduler.step(s.trace[b]);
  const SchedulerSnapshot snap = scheduler.capture();
  const std::vector<SnapshotComponent>& comps = snap.wide.components;
  ASSERT_GE(comps.size(), 2u);
  // A one-id row, so the edited row stays ascending and only the
  // membership check can reject it.
  std::size_t c = 0, r = 0;
  while (c < comps.size()) {
    const auto& rows = comps[c].rows;
    r = 0;
    while (r < rows.size() && rows[r].size() != 1) ++r;
    if (r < rows.size()) break;
    ++c;
  }
  ASSERT_LT(c, comps.size()) << "no one-id stack row to edit";
  const InstanceId other = comps[c == 0 ? 1 : 0].members.front();

  const auto restore_with = [&](InstanceId id) {
    SchedulerSnapshot bad = snap;
    bad.wide.components[c].rows[r].front() = id;
    SchedulerSnapshot decoded;
    std::string error;
    EXPECT_TRUE(decode_snapshot(encode_snapshot(bad), decoded, &error))
        << error;
    OnlineScheduler restored(s.base, s.config, decoded);
  };
  EXPECT_THROW(restore_with(1 << 20), std::invalid_argument);
  EXPECT_THROW(restore_with(other), std::invalid_argument);
  EXPECT_NO_THROW(restore_with(comps[c].rows[r].front()));
}

// Snapshot records skip check_batch, so restore must reject what a live
// batch could not have admitted: a non-finite profit (Problem::add_demand
// rejects it) and a live narrow height whose stage count overflows
// (derive_stage_params applies class_stage_params' checks), both before
// any later step() could trip over them.
TEST(Snapshot, RestoreRejectsUnadmittableRecords) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 41);
  OnlineScheduler scheduler(s.base, s.config);
  for (std::size_t b = 0; b < 3; ++b) scheduler.step(s.trace[b]);
  const SchedulerSnapshot snap = scheduler.capture();

  SchedulerSnapshot bad = snap;
  ASSERT_FALSE(bad.records.empty());
  bad.records.back().profit = std::numeric_limits<double>::infinity();
  EXPECT_THROW(OnlineScheduler(s.base, s.config, bad), std::invalid_argument);

  bad = snap;
  const auto narrow = std::find_if(
      bad.records.begin(), bad.records.end(),
      [](const SnapshotDemandRecord& r) {
        return r.alive && !is_wide_height(r.height);
      });
  ASSERT_NE(narrow, bad.records.end()) << "no live narrow record";
  narrow->height = 1e-17;
  EXPECT_THROW(OnlineScheduler(s.base, s.config, bad), std::invalid_argument);
}

TEST(Snapshot, SchemaDriftAndWrongFileFailLoudly) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 43);
  OnlineScheduler scheduler(s.base, s.config);
  scheduler.step(s.trace[0]);
  const std::vector<std::uint8_t> image =
      encode_snapshot(scheduler.capture());

  // An older or a newer version with a *recomputed* header checksum:
  // only the schema check can reject it, and its message must say so.
  SchedulerSnapshot out;
  std::string error;
  for (const std::uint32_t other :
       {kSnapshotVersion - 1, kSnapshotVersion + 1}) {
    std::vector<std::uint8_t> drifted = image;
    std::memcpy(drifted.data() + 4, &other, 4);
    const std::uint32_t fixed_crc = crc32({drifted.data(), 24});
    std::memcpy(drifted.data() + 24, &fixed_crc, 4);
    EXPECT_FALSE(decode_snapshot(drifted, out, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }

  // Wrong magic: rejected as not-a-snapshot.
  std::vector<std::uint8_t> alien = image;
  alien[0] ^= 0xFF;
  EXPECT_FALSE(decode_snapshot(alien, out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // The empty file and a truncated header are rejected, not UB.
  EXPECT_FALSE(decode_snapshot({}, out, &error));
  EXPECT_FALSE(
      decode_snapshot({image.data(), 10}, out, &error));
}

// Restoring against the wrong base topology must throw, not mis-restore.
TEST(Snapshot, RestoreAgainstWrongBaseThrows) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 47);
  OnlineScheduler scheduler(s.base, s.config);
  for (std::size_t b = 0; b < 3; ++b) scheduler.step(s.trace[b]);
  const SchedulerSnapshot snap = scheduler.capture();

  const Problem other = small_tree_problem(48, 10, 2, 4);
  EXPECT_THROW(OnlineScheduler(other, s.config, snap),
               std::invalid_argument);
}

// --- the crash matrix ------------------------------------------------------

struct MatrixCase {
  CrashPoint point;
  std::uint32_t batch;
  // Batches the recovered service must come back with: the crashed
  // batch itself survives iff the journal append completed.
  std::uint32_t expect_applied(std::uint32_t crash_batch) const {
    return point == CrashPoint::kMidJournalAppend ? crash_batch
                                                  : crash_batch + 1;
  }
};

TEST(CrashRecovery, EveryCrashPointRecoversToExactParity) {
  const std::vector<ArrivalLaw> laws{ArrivalLaw::kPoisson,
                                     ArrivalLaw::kBursty};
  const std::vector<CrashPoint> points{
      CrashPoint::kMidJournalAppend, CrashPoint::kAfterAppend,
      CrashPoint::kAfterApply, CrashPoint::kMidSnapshotWrite,
      CrashPoint::kAfterSnapshot};
  // Odd crash batches with snapshot_every=2: the mid-snapshot point
  // fires exactly when the triggering batch completes a snapshot period.
  const std::vector<std::uint32_t> crash_batches{3, 5};

  for (const ArrivalLaw law : laws) {
    const Scenario s = make_scenario(law, law == ArrivalLaw::kPoisson ? 51
                                                                      : 53);
    for (const CrashPoint point : points) {
      for (const std::uint32_t crash_batch : crash_batches) {
        const std::string label = std::string(to_string(law)) + "/" +
                                  to_string(point) + "/b" +
                                  std::to_string(crash_batch);
        DurabilityConfig dur;
        dur.journal_path = temp_path("matrix.wal");
        dur.snapshot_every = 2;
        dur.crash = {point, crash_batch, 7 + crash_batch};

        bool crashed = false;
        try {
          DurableOnlineService service(s.base, s.config, dur);
          for (const EventBatch& batch : s.trace) service.step(batch);
        } catch (const CrashInjected& crash) {
          crashed = true;
          EXPECT_EQ(crash.point, point) << label;
          EXPECT_EQ(crash.batch, crash_batch) << label;
        }
        ASSERT_TRUE(crashed) << label << ": the plan never fired";

        dur.crash = {};  // recover without a plan armed
        RecoveryReport report;
        DurableOnlineService recovered =
            DurableOnlineService::recover(s.base, s.config, dur, &report);
        const std::uint32_t applied =
            MatrixCase{point, crash_batch}.expect_applied(crash_batch);
        ASSERT_EQ(recovered.batches_applied(), applied) << label;
        EXPECT_EQ(report.journal_torn,
                  point == CrashPoint::kMidJournalAppend)
            << label;

        // Exact equality with the uninterrupted run at the recovery
        // point, in every batch report after it, and at the end —
        // through the resumed journal, so a second replay agrees too.
        OnlineScheduler reference =
            reference_at(s.base, s.config, s.trace, applied);
        expect_scheduler_equal(recovered.scheduler(), reference,
                               label + " at recovery");
        for (std::size_t b = applied; b < s.trace.size(); ++b)
          expect_report_equal(recovered.step(s.trace[b]),
                              reference.step(s.trace[b]),
                              label + " batch " + std::to_string(b));
        expect_scheduler_equal(recovered.scheduler(), reference,
                               label + " at end");
        expect_cold_parity(recovered.scheduler(), s.config.solver,
                           label + " at end");
      }
    }
  }
}

// Two crashes back to back: the resumed journal keeps its sequence
// discipline, and the second recovery still lands on exact parity.
TEST(CrashRecovery, RepeatedCrashesRecoverRepeatedly) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 57);
  DurabilityConfig dur;
  dur.journal_path = temp_path("repeated.wal");
  dur.snapshot_every = 3;

  dur.crash = {CrashPoint::kMidJournalAppend, 2, 11};
  bool crashed = false;
  try {
    DurableOnlineService service(s.base, s.config, dur);
    for (const EventBatch& batch : s.trace) service.step(batch);
  } catch (const CrashInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  // Recover with a *new* plan armed: crash again further in.
  dur.crash = {CrashPoint::kMidSnapshotWrite, 5, 13};
  crashed = false;
  try {
    DurableOnlineService service =
        DurableOnlineService::recover(s.base, s.config, dur);
    for (std::size_t b = service.batches_applied(); b < s.trace.size(); ++b)
      service.step(s.trace[b]);
  } catch (const CrashInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  dur.crash = {};
  RecoveryReport report;
  DurableOnlineService recovered =
      DurableOnlineService::recover(s.base, s.config, dur, &report);
  ASSERT_EQ(recovered.batches_applied(), 6u);
  for (std::size_t b = 6; b < s.trace.size(); ++b)
    recovered.step(s.trace[b]);
  expect_scheduler_equal(
      recovered.scheduler(),
      reference_at(s.base, s.config, s.trace, s.trace.size()),
      "after two crash/recover cycles");
}

// snapshot_every=0: no snapshots at all — recovery is a full journal
// replay and must still be exact.
TEST(CrashRecovery, JournalOnlyRecovery) {
  const Scenario s = make_scenario(ArrivalLaw::kBursty, 59);
  DurabilityConfig dur;
  dur.journal_path = temp_path("journal_only.wal");
  dur.snapshot_every = 0;
  dur.crash = {CrashPoint::kAfterApply, 4, 3};

  bool crashed = false;
  try {
    DurableOnlineService service(s.base, s.config, dur);
    for (const EventBatch& batch : s.trace) service.step(batch);
  } catch (const CrashInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  dur.crash = {};
  RecoveryReport report;
  DurableOnlineService recovered =
      DurableOnlineService::recover(s.base, s.config, dur, &report);
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.replayed, 5u);
  expect_scheduler_equal(recovered.scheduler(),
                         reference_at(s.base, s.config, s.trace, 5),
                         "journal-only recovery");
}

// A batch the scheduler cannot apply is rejected at admission with a
// diagnostic, before the journal append and before any state change:
// the service keeps serving the rest of the trace, and a restart never
// replays the bad batch.
TEST(CrashRecovery, UnappliableBatchIsRejectedBeforeTheJournal) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 31);
  DurabilityConfig dur;
  dur.journal_path = temp_path("admission.wal");
  dur.snapshot_every = 2;
  constexpr std::size_t kGood = 3;

  // A key that is live after the good prefix.
  std::vector<DemandKey> live;
  for (std::size_t b = 0; b < kGood; ++b) {
    for (const OnlineArrival& a : s.trace[b].arrivals) live.push_back(a.key);
    for (const DemandKey k : s.trace[b].departures)
      live.erase(std::find(live.begin(), live.end(), k));
  }
  ASSERT_FALSE(live.empty());

  const auto arrival = [](DemandKey key) {
    OnlineArrival a;
    a.key = key;
    a.draw.u = 0;
    a.draw.v = 1;
    a.draw.profit = 1.0;
    a.draw.height = 0.25;
    return a;
  };
  std::vector<std::pair<std::string, EventBatch>> bad;
  const auto add = [&](const std::string& what, OnlineArrival a) {
    EventBatch batch;
    batch.arrivals.push_back(std::move(a));
    bad.emplace_back(what, std::move(batch));
  };
  OnlineArrival a = arrival(1000000);
  a.draw.height = 1e-17;  // narrow stage count overflows int
  add("near-zero height", a);
  a = arrival(1000000);
  a.draw.v = 100000;
  add("endpoint out of range", a);
  a = arrival(1000000);
  a.draw.v = a.draw.u;
  add("equal endpoints", a);
  a = arrival(1000000);
  a.draw.profit = std::numeric_limits<double>::infinity();
  add("infinite profit", a);
  a = arrival(1000000);
  a.draw.height = 1.5;
  add("height above 1", a);
  a = arrival(1000000);
  a.draw.access = {s.base.num_networks()};
  add("access network out of range", a);
  add("key in use", arrival(live.front()));
  {
    EventBatch batch;
    batch.arrivals = {arrival(1000000), arrival(1000000)};
    bad.emplace_back("key repeated in the batch", std::move(batch));
  }
  {
    EventBatch batch;
    batch.departures = {999999};
    bad.emplace_back("unknown departure", std::move(batch));
  }
  {
    EventBatch batch;
    batch.departures = {live.front(), live.front()};
    bad.emplace_back("departure repeated in the batch", std::move(batch));
  }

  {
    DurableOnlineService service(s.base, s.config, dur);
    for (std::size_t b = 0; b < kGood; ++b) service.step(s.trace[b]);
    const std::int64_t journal_bytes = service.journal_bytes_written();
    for (const auto& [what, batch] : bad) {
      SCOPED_TRACE(what);
      try {
        service.step(batch);
        ADD_FAILURE() << "admitted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind("treesched: ", 0), 0u)
            << e.what();
      }
      EXPECT_EQ(service.batches_applied(), kGood);
      EXPECT_EQ(service.journal_bytes_written(), journal_bytes);
      EXPECT_EQ(replay_journal(dur.journal_path).next_seq, kGood);
    }
    for (std::size_t b = kGood; b < s.trace.size(); ++b)
      service.step(s.trace[b]);
    expect_scheduler_equal(
        service.scheduler(),
        reference_at(s.base, s.config, s.trace, s.trace.size()),
        "after the rejected batches");
  }

  const DurableOnlineService recovered =
      DurableOnlineService::recover(s.base, s.config, dur);
  expect_scheduler_equal(
      recovered.scheduler(),
      reference_at(s.base, s.config, s.trace, s.trace.size()),
      "recovered after the rejected batches");
}

// A journaled batch that departs every live demand must replay, and a
// snapshot of the emptied state must restore: recovery lands on the
// uninterrupted run's exact state either way.
TEST(CrashRecovery, RecoversAfterABatchThatDepartsEveryDemand) {
  const Problem base = small_tree_problem(31, 24, 2, 1);
  const std::vector<EventBatch> trace =
      testutil::emptying_trace(base, 70, 0, 5);
  const OnlineConfig config;
  const OnlineScheduler reference =
      reference_at(base, config, trace, trace.size());
  EXPECT_EQ(reference.live_demands(), 0);
  for (const int every : {0, 1}) {
    SCOPED_TRACE("snapshot_every " + std::to_string(every));
    DurabilityConfig dur;
    dur.journal_path = temp_path("emptying.wal");
    dur.snapshot_every = every;
    {
      DurableOnlineService service(base, config, dur);
      for (const EventBatch& batch : trace) service.step(batch);
    }
    RecoveryReport report;
    const DurableOnlineService recovered =
        DurableOnlineService::recover(base, config, dur, &report);
    EXPECT_EQ(report.snapshot_loaded, every > 0);
    EXPECT_TRUE(recovered.scheduler().capture() == reference.capture());
    expect_scheduler_equal(recovered.scheduler(), reference, "recovered");
  }
}

// Corrupting the newest snapshot slot must fall back to the older slot;
// corrupting both must fall back to a full journal replay.  Either way
// the corrupt bytes are rejected, never absorbed.
TEST(CrashRecovery, CorruptSnapshotSlotsFallBackSafely) {
  const Scenario s = make_scenario(ArrivalLaw::kPoisson, 61);
  DurabilityConfig dur;
  dur.journal_path = temp_path("corrupt_slots.wal");
  dur.snapshot_every = 2;
  {
    DurableOnlineService service(s.base, s.config, dur);
    for (std::size_t b = 0; b < 6; ++b) service.step(s.trace[b]);
  }
  const SnapshotStore store(dur.journal_path + ".snap");
  // Identify the newest slot by decoding both.
  const auto slot_seq = [](const std::string& path) -> std::uint32_t {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    SchedulerSnapshot snap;
    EXPECT_TRUE(decode_snapshot(bytes, snap)) << path;
    return snap.batches_applied;
  };
  const std::uint32_t seq_a = slot_seq(store.slot_a());
  const std::uint32_t seq_b = slot_seq(store.slot_b());
  ASSERT_NE(seq_a, seq_b);
  const std::string newest =
      seq_a > seq_b ? store.slot_a() : store.slot_b();
  const std::string older =
      seq_a > seq_b ? store.slot_b() : store.slot_a();
  const std::uint32_t older_seq = std::min(seq_a, seq_b);

  // Flip one payload byte of the newest slot.
  std::vector<std::uint8_t> bytes = read_file(newest);
  bytes[bytes.size() / 2] ^= 0x20;
  write_file(newest, bytes);

  RecoveryReport report;
  DurableOnlineService recovered =
      DurableOnlineService::recover(s.base, s.config, dur, &report);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshot_batches, older_seq);
  EXPECT_NE(report.note.find("rejected"), std::string::npos) << report.note;
  ASSERT_EQ(recovered.batches_applied(), 6u);
  expect_scheduler_equal(recovered.scheduler(),
                         reference_at(s.base, s.config, s.trace, 6),
                         "fallback to older slot");

  // Now corrupt the older slot too: journal-only recovery.
  std::vector<std::uint8_t> bytes2 = read_file(older);
  bytes2[bytes2.size() / 3] ^= 0x01;
  write_file(older, bytes2);
  DurableOnlineService replayed =
      DurableOnlineService::recover(s.base, s.config, dur, &report);
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.replayed, 6u);
  expect_scheduler_equal(replayed.scheduler(),
                         reference_at(s.base, s.config, s.trace, 6),
                         "fallback to journal replay");
}

// --- compaction (satellite: instance-id stability across restart) ----------

// A crash after a tombstone compaction but before the next snapshot:
// the replay must re-trigger the same compaction deterministically and
// land on the exact renumbered state (instance ids, masks, caches).
TEST(CrashRecovery, CompactionBetweenSnapshotAndCrashReplaysExactly) {
  const Scenario base_scenario = make_scenario(ArrivalLaw::kPoisson, 17);
  Scenario s = base_scenario;
  // The forced-compaction config from test_online: tombstones purge
  // quickly.
  s.config.compaction_floor = 4;
  s.config.compaction_slack = 0.25;
  DemandGenConfig demand_cfg;
  demand_cfg.heights = HeightLaw::kBimodal;
  OnlineTrafficSpec traffic;
  traffic.rate = 8.0;
  traffic.num_batches = 10;
  traffic.seed = 17;
  TenantClass churn;
  churn.mean_lifetime = 1.0;
  traffic.tenants = {churn};
  s.trace = make_event_trace(s.base, demand_cfg, traffic);

  // Find the compaction batches on a dry run.
  std::vector<std::uint32_t> compactions;
  {
    OnlineScheduler probe(s.base, s.config);
    for (std::size_t b = 0; b < s.trace.size(); ++b)
      if (probe.step(s.trace[b]).compacted)
        compactions.push_back(static_cast<std::uint32_t>(b));
  }
  ASSERT_FALSE(compactions.empty())
      << "trace never compacted; the arm is not exercising the purge";

  const int snapshot_every = 4;
  for (const std::uint32_t compaction_batch : compactions) {
    const std::string label =
        "compaction at batch " + std::to_string(compaction_batch);
    // Crash right after the compaction batch applied, before any later
    // snapshot could capture the renumbered state.
    DurabilityConfig dur;
    dur.journal_path = temp_path("compaction.wal");
    dur.snapshot_every = snapshot_every;
    dur.crash = {CrashPoint::kAfterApply, compaction_batch, 29};

    bool crashed = false;
    try {
      DurableOnlineService service(s.base, s.config, dur);
      for (const EventBatch& batch : s.trace) service.step(batch);
    } catch (const CrashInjected&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << label;

    dur.crash = {};
    RecoveryReport report;
    DurableOnlineService recovered =
        DurableOnlineService::recover(s.base, s.config, dur, &report);
    ASSERT_EQ(recovered.batches_applied(), compaction_batch + 1) << label;
    // If a snapshot preceded the crash, the replay spans the
    // compaction: snapshot state (pre-purge) -> replayed purge.
    if (compaction_batch + 1 > static_cast<std::uint32_t>(snapshot_every)) {
      EXPECT_TRUE(report.snapshot_loaded) << label;
    }
    const OnlineScheduler reference =
        reference_at(s.base, s.config, s.trace, compaction_batch + 1);
    // expect_scheduler_equal compares num_instances/num_demands and the
    // per-instance-id artifacts — renumbering drift cannot hide.
    expect_scheduler_equal(recovered.scheduler(), reference, label);

    for (std::size_t b = compaction_batch + 1; b < s.trace.size(); ++b)
      recovered.step(s.trace[b]);
    expect_scheduler_equal(
        recovered.scheduler(),
        reference_at(s.base, s.config, s.trace, s.trace.size()),
        label + " stepped to end");
    expect_cold_parity(recovered.scheduler(), s.config.solver,
                       label + " stepped to end");
  }

  // A snapshot taken *after* a compaction must itself restore exactly
  // (the snapshot carries the renumbered records verbatim).
  {
    DurabilityConfig dur;
    dur.journal_path = temp_path("compaction_snap.wal");
    dur.snapshot_every = static_cast<int>(compactions.front()) + 1;
    dur.crash = {CrashPoint::kAfterSnapshot, compactions.front(), 31};
    bool crashed = false;
    try {
      DurableOnlineService service(s.base, s.config, dur);
      for (const EventBatch& batch : s.trace) service.step(batch);
    } catch (const CrashInjected&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
    dur.crash = {};
    RecoveryReport report;
    DurableOnlineService recovered =
        DurableOnlineService::recover(s.base, s.config, dur, &report);
    EXPECT_TRUE(report.snapshot_loaded);
    EXPECT_EQ(report.snapshot_batches, compactions.front() + 1);
    EXPECT_EQ(report.replayed, 0u);
    expect_scheduler_equal(
        recovered.scheduler(),
        reference_at(s.base, s.config, s.trace, compactions.front() + 1),
        "post-compaction snapshot restored");
  }
}

}  // namespace
}  // namespace treesched
