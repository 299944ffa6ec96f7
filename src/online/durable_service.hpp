// DurableOnlineService: the OnlineScheduler behind a write-ahead journal
// and versioned snapshots, plus the seeded crash-injection harness that
// proves the recovery path.
//
// WAL discipline per batch:
//   1. append the batch to the journal and flush — the batch is durable
//      *before* any state changes;
//   2. apply it (OnlineScheduler::step);
//   3. every snapshot_every applied batches, capture + write a snapshot
//      through the A/B SnapshotStore.
// Recovery therefore never needs more than: newest valid snapshot +
// replay of the journal records with seq >= its batches_applied.  A
// torn journal tail is truncated (it was never applied — the WAL order
// guarantees the scheduler state is a prefix of the journal); a torn
// snapshot slot falls back to the other slot, or to a full journal
// replay when both are gone.  tests/test_recovery.cpp holds the
// recovered state to exact (==) equality with the uninterrupted run at
// every seeded crash point.
//
// CrashPlan is FaultPlan's process-level sibling: a named crash point, a
// batch index to fire at, and a seed that picks the torn-write length —
// fully deterministic, replayable from the spec string alone
// ("point=mid-append,batch=3,seed=7").  A firing plan throws
// CrashInjected *after* the configured partial write reaches disk, so a
// test (or the CLI) observes exactly what a kill -9 at that instant
// leaves behind.  The TREESCHED_CRASH environment variable (read once
// per process, same hook pattern as TREESCHED_FAULTS) supplies the plan
// for services constructed without an explicit one — CI crashes the CLI
// without the CLI knowing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "online/journal.hpp"
#include "online/online_scheduler.hpp"
#include "online/snapshot.hpp"

namespace treesched {

// --- crash injection -------------------------------------------------------

enum class CrashPoint {
  kNone,             // never fires
  kMidJournalAppend, // torn journal write; the batch was never applied
  kAfterAppend,      // journal has the batch, crash before apply
  kAfterApply,       // applied, crash before the snapshot decision
  kMidSnapshotWrite, // torn snapshot slot; journal + state are complete
  kAfterSnapshot,    // clean crash right after a snapshot write
};

const char* to_string(CrashPoint point);

struct CrashPlan {
  CrashPoint point = CrashPoint::kNone;
  // Absolute batch sequence number (== journal seq) the plan fires at.
  std::uint32_t batch = 0;
  // Picks the torn-write prefix length at the two mid-write points.
  std::uint64_t seed = 1;

  bool armed() const { return point != CrashPoint::kNone; }
};

// Parses "point=mid-append|after-append|after-apply|mid-snapshot|
// after-snapshot,batch=N,seed=S" (any order; batch and seed optional).
// The empty string is the unarmed plan.  Throws std::invalid_argument on
// unknown keys, unknown point names, unparsable values or a batch past
// 2^32 - 1 — this is the TREESCHED_CRASH / --crash= format.
CrashPlan parse_crash_plan(const std::string& spec);

// Thrown when an armed plan fires: the simulated kill -9.  Whatever the
// plan tore is already on disk; the process is expected to unwind and
// restart via DurableOnlineService::recover.
struct CrashInjected : std::runtime_error {
  CrashInjected(CrashPoint point_, std::uint32_t batch_)
      : std::runtime_error(std::string("crash injected: ") +
                           to_string(point_) + " at batch " +
                           std::to_string(batch_)),
        point(point_),
        batch(batch_) {}
  CrashPoint point;
  std::uint32_t batch;
};

// --- the durable service ---------------------------------------------------

struct DurabilityConfig {
  std::string journal_path;  // required
  // Snapshot slot base; empty means journal_path + ".snap" (slots get
  // ".a"/".b" appended by SnapshotStore).
  std::string snapshot_base;
  // Capture + write a snapshot every N applied batches; 0 disables
  // snapshots (recovery replays the whole journal).
  int snapshot_every = 0;
  // Explicit crash plan; when unarmed, TREESCHED_CRASH (read once per
  // process) supplies one — explicit plans are never overridden, so
  // env-driven CI crash runs leave plan-pinning tests untouched.
  CrashPlan crash;
};

struct RecoveryReport {
  bool snapshot_loaded = false;
  std::uint32_t snapshot_batches = 0;  // batches_applied of the snapshot
  std::uint32_t replayed = 0;          // journal records re-applied
  bool journal_torn = false;           // a torn tail was truncated
  std::string note;                    // human-readable summary
};

class DurableOnlineService {
 public:
  // Fresh start: truncates the journal and clears both snapshot slots
  // (stale snapshots from a previous journal would otherwise pair with
  // the new log).  `base`/`config` as for OnlineScheduler.
  DurableOnlineService(const Problem& base, OnlineConfig config,
                       DurabilityConfig durability);

  // Crash recovery: loads the newest valid snapshot (if any), truncates
  // the journal's torn tail, replays the journal suffix through the
  // scheduler, and resumes appending.  `base`/`config` must equal the
  // crashed service's (the durable state holds only the churn).
  static DurableOnlineService recover(const Problem& base,
                                      OnlineConfig config,
                                      DurabilityConfig durability,
                                      RecoveryReport* report = nullptr);

  // Journal-append (durable first), apply, maybe snapshot.  Throws
  // CrashInjected when the armed plan fires at this batch.
  OnlineBatchReport step(const EventBatch& batch);

  OnlineScheduler& scheduler() { return *scheduler_; }
  const OnlineScheduler& scheduler() const { return *scheduler_; }
  // == the journal seq of the next batch to feed in; a resumed trace
  // skips this many leading batches.
  std::uint32_t batches_applied() const {
    return static_cast<std::uint32_t>(scheduler_->batches_applied());
  }
  std::int64_t journal_bytes_written() const {
    return journal_->bytes_written();
  }

 private:
  DurableOnlineService(OnlineConfig config, DurabilityConfig durability);

  // True when the plan fires at `batch` for `point`.
  bool crash_due(CrashPoint point, std::uint32_t batch) const;
  // Deterministic torn-write prefix length in [0, image_len).
  std::size_t torn_prefix(std::size_t image_len) const;
  void maybe_snapshot();

  DurabilityConfig durability_;
  SnapshotStore store_;
  std::optional<Journal> journal_;
  std::unique_ptr<OnlineScheduler> scheduler_;
};

}  // namespace treesched
