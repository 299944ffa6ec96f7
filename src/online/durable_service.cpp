#include "online/durable_service.hpp"

#include <cstdint>
#include <cstdlib>
#include <limits>

#include "common/prelude.hpp"
#include "common/rng.hpp"
#include "common/spec.hpp"

namespace treesched {

const char* to_string(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kMidJournalAppend:
      return "mid-append";
    case CrashPoint::kAfterAppend:
      return "after-append";
    case CrashPoint::kAfterApply:
      return "after-apply";
    case CrashPoint::kMidSnapshotWrite:
      return "mid-snapshot";
    case CrashPoint::kAfterSnapshot:
      return "after-snapshot";
  }
  return "?";
}

namespace {

CrashPoint parse_crash_point(const std::string& name) {
  if (name == "none") return CrashPoint::kNone;
  if (name == "mid-append") return CrashPoint::kMidJournalAppend;
  if (name == "after-append") return CrashPoint::kAfterAppend;
  if (name == "after-apply") return CrashPoint::kAfterApply;
  if (name == "mid-snapshot") return CrashPoint::kMidSnapshotWrite;
  if (name == "after-snapshot") return CrashPoint::kAfterSnapshot;
  check_input(false,
              "crash plan: unknown point '" + name +
                  "' (expected mid-append|after-append|after-apply|"
                  "mid-snapshot|after-snapshot)");
  return CrashPoint::kNone;  // unreachable
}

// The once-per-process env hook, mirroring TREESCHED_FAULTS.
const CrashPlan& env_crash_plan() {
  static const CrashPlan plan = [] {
    const char* env = std::getenv("TREESCHED_CRASH");
    if (env == nullptr || *env == '\0') return CrashPlan{};
    return parse_crash_plan(env);
  }();
  return plan;
}

}  // namespace

CrashPlan parse_crash_plan(const std::string& spec) {
  CrashPlan plan;
  for_each_spec_item(spec, "crash plan", [&](const std::string& key,
                                             const std::string& value) {
    if (key == "point") {
      plan.point = parse_crash_point(value);
    } else if (key == "batch") {
      const std::uint64_t batch = parse_spec_u64("crash plan", key, value);
      check_input(batch <= std::numeric_limits<std::uint32_t>::max(),
                  "crash plan: batch " + value + " is past 2^32 - 1");
      plan.batch = static_cast<std::uint32_t>(batch);
    } else if (key == "seed") {
      plan.seed = parse_spec_u64("crash plan", key, value);
    } else {
      check_input(false, "crash plan: unknown key '" + key + "'");
    }
  });
  return plan;
}

// --- the durable service ---------------------------------------------------

DurableOnlineService::DurableOnlineService(OnlineConfig /*config*/,
                                           DurabilityConfig durability)
    : durability_(std::move(durability)),
      store_(durability_.snapshot_base.empty()
                 ? durability_.journal_path + ".snap"
                 : durability_.snapshot_base) {
  check_input(!durability_.journal_path.empty(),
              "durable service: journal path is required");
  check_input(durability_.snapshot_every >= 0,
              "durable service: snapshot_every must be >= 0");
  if (!durability_.crash.armed()) durability_.crash = env_crash_plan();
}

DurableOnlineService::DurableOnlineService(const Problem& base,
                                           OnlineConfig config,
                                           DurabilityConfig durability)
    : DurableOnlineService(config, std::move(durability)) {
  // Fresh start: the journal restarts at seq 0, so any surviving
  // snapshot belongs to a *different* event history — clear both slots.
  store_.reset();
  journal_.emplace(Journal::create(durability_.journal_path));
  scheduler_ = std::make_unique<OnlineScheduler>(base, std::move(config));
}

DurableOnlineService DurableOnlineService::recover(const Problem& base,
                                                   OnlineConfig config,
                                                   DurabilityConfig durability,
                                                   RecoveryReport* report) {
  DurableOnlineService service(config, std::move(durability));
  RecoveryReport rec;

  SchedulerSnapshot snap;
  std::string note;
  const bool have_snapshot = service.store_.load_newest(snap, &note);
  rec.snapshot_loaded = have_snapshot;
  rec.snapshot_batches = have_snapshot ? snap.batches_applied : 0;
  rec.note = note;

  JournalReplay replay = replay_journal(service.durability_.journal_path);
  rec.journal_torn = replay.torn;
  if (replay.torn) rec.note += "; journal: " + replay.diagnostic;

  // The WAL order (append before apply, snapshot after apply) makes the
  // snapshot's cursor a prefix of the journal's valid records; anything
  // else means the files belong to different runs.
  check_input(rec.snapshot_batches <= replay.next_seq,
              "recover: snapshot is ahead of the journal (" +
                  std::to_string(rec.snapshot_batches) + " > " +
                  std::to_string(replay.next_seq) +
                  ") — mismatched journal/snapshot files");

  if (have_snapshot)
    service.scheduler_ =
        std::make_unique<OnlineScheduler>(base, config, snap);
  else
    service.scheduler_ = std::make_unique<OnlineScheduler>(base, config);

  // Replay the journal suffix.  Replayed batches are NOT re-journaled:
  // they are already durable (that is what makes replay idempotent
  // across repeated crashes during recovery).
  for (std::uint32_t seq = rec.snapshot_batches; seq < replay.next_seq;
       ++seq) {
    service.scheduler_->step(
        replay.batches[static_cast<std::size_t>(seq)]);
    ++rec.replayed;
  }
  TS_REQUIRE(service.batches_applied() == replay.next_seq);

  // Truncate the torn tail (if any) and resume appending after it.
  service.journal_.emplace(
      Journal::resume(service.durability_.journal_path, replay));

  if (report != nullptr) *report = rec;
  return service;
}

bool DurableOnlineService::crash_due(CrashPoint point,
                                     std::uint32_t batch) const {
  return durability_.crash.point == point && durability_.crash.batch == batch;
}

std::size_t DurableOnlineService::torn_prefix(std::size_t image_len) const {
  // Deterministic strict prefix: everything from an empty write to all
  // but the last byte, drawn from the plan seed and the crash site.
  SplitMix64 mix(durability_.crash.seed ^
                 (static_cast<std::uint64_t>(durability_.crash.batch) << 32));
  return static_cast<std::size_t>(mix.next() % image_len);
}

OnlineBatchReport DurableOnlineService::step(const EventBatch& batch) {
  const std::uint32_t seq = journal_->next_seq();
  TS_REQUIRE(seq == batches_applied());  // journal and state in lockstep
  // Admission: a batch the scheduler cannot apply is rejected before it
  // reaches the journal, where recovery would replay it forever.
  scheduler_->check_batch(batch);

  if (crash_due(CrashPoint::kMidJournalAppend, seq)) {
    std::vector<std::uint8_t> image;
    const std::size_t len = encode_journal_record(batch, seq, image);
    journal_->append_torn(batch, torn_prefix(len));
    throw CrashInjected(CrashPoint::kMidJournalAppend, seq);
  }
  journal_->append(batch);
  if (crash_due(CrashPoint::kAfterAppend, seq))
    throw CrashInjected(CrashPoint::kAfterAppend, seq);

  OnlineBatchReport report = scheduler_->step(batch);
  if (crash_due(CrashPoint::kAfterApply, seq))
    throw CrashInjected(CrashPoint::kAfterApply, seq);

  maybe_snapshot();
  if (crash_due(CrashPoint::kAfterSnapshot, seq))
    throw CrashInjected(CrashPoint::kAfterSnapshot, seq);
  return report;
}

void DurableOnlineService::maybe_snapshot() {
  if (durability_.snapshot_every <= 0) return;
  const std::uint32_t applied = batches_applied();
  if (applied % static_cast<std::uint32_t>(durability_.snapshot_every) != 0)
    return;
  const std::vector<std::uint8_t> image =
      encode_snapshot(scheduler_->capture());
  // The crash fires on the batch that *triggered* the snapshot.
  if (crash_due(CrashPoint::kMidSnapshotWrite, applied - 1)) {
    store_.write(image, torn_prefix(image.size()));
    throw CrashInjected(CrashPoint::kMidSnapshotWrite, applied - 1);
  }
  store_.write(image);
}

}  // namespace treesched
