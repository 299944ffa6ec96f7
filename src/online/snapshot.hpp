// Versioned, section-checksummed binary snapshots of the full
// OnlineScheduler warm-start state.
//
// The snapshot holds only what restore cannot rebuild: the demand
// records with their tombstones (which fix the compaction high-water
// mark — live/dead counts are recomputed from them), the journal cursor
// (batches_applied, which doubles as the event-stream RNG cursor: traces
// are regenerated from the seed and resumed by skipping the applied
// prefix), and per height class every component's stack/tag/LHS/lambda
// cache, in forest order.  Everything else the scheduler holds — the
// materialized Problem, the layered plans, the class masks, the pinned
// stage params and the per-class ComponentForests — is a deterministic
// function of the records (Problem rebuild, derive_stage_params and
// ComponentForest::build, whose equality with the incrementally-updated
// forest test_component_forest pins), so restore recomputes it instead
// of trusting bytes on disk.
//
// File layout (host byte order, shared io/framing.hpp helpers):
//   header:  u32 magic | u32 version | u32 seq | u32 section_count |
//            u64 total_bytes | u32 header_crc  (crc over the 24 bytes
//            before it)
//   then section_count sections, each a [u32 crc | u32 section_id |
//   payload] frame — the same layout as the wire recovery sublayer and
//   the journal, with the section id in the sequence slot and the
//   payload self-delimiting.
// A wrong magic or version fails loudly and distinctly (schema drift is
// not corruption); any flipped bit lands on the header CRC, a section
// CRC, or a structural reject — never on a silently different state.
//
// Snapshots are written through SnapshotStore, an A/B double-buffered
// pair of slot files: a write targets the slot NOT holding the newest
// valid snapshot, so a crash mid-write (torn slot) always leaves the
// previous snapshot intact; the loader picks the valid slot with the
// highest sequence number.  The store remembers which slot that is, so a
// write reads no slot file.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "framework/two_phase.hpp"
#include "online/event_stream.hpp"

namespace treesched {

inline constexpr std::uint32_t kSnapshotMagic = 0x544E5350u;  // "PSNT"
inline constexpr std::uint32_t kSnapshotVersion = 2;

// --- the captured state ----------------------------------------------------

struct SnapshotDemandRecord {
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
  Profit profit = 0.0;
  Height height = 1.0;
  std::vector<NetworkId> access;  // empty = all networks
  DemandKey key = 0;
  bool alive = true;

  friend bool operator==(const SnapshotDemandRecord&,
                         const SnapshotDemandRecord&) = default;
};

// One conflict component's cache, in forest component order.
struct SnapshotComponent {
  std::vector<InstanceId> members;            // ascending ids
  std::vector<std::vector<InstanceId>> rows;  // the comp's stack rows
  std::vector<StackTag> tags;                 // parallel to rows
  std::vector<double> lhs;                    // parallel to members
  double lambda = 1.0;

  friend bool operator==(const SnapshotComponent&,
                         const SnapshotComponent&) = default;
};

struct ClassSnapshot {
  std::vector<SnapshotComponent> components;

  friend bool operator==(const ClassSnapshot&, const ClassSnapshot&) = default;
};

struct SchedulerSnapshot {
  // Batches applied == journal sequence cursor == event-stream cursor.
  std::uint32_t batches_applied = 0;
  std::vector<SnapshotDemandRecord> records;  // index = demand id
  ClassSnapshot wide, narrow;

  friend bool operator==(const SchedulerSnapshot&,
                         const SchedulerSnapshot&) = default;
};

// --- codec -----------------------------------------------------------------

// Encodes the snapshot into a fresh byte image (deterministic: equal
// snapshots encode to equal bytes).
std::vector<std::uint8_t> encode_snapshot(const SchedulerSnapshot& snap);

// Decodes a full snapshot image.  Returns false — with a diagnostic in
// *error when non-null — on a wrong magic, a version mismatch (reported
// distinctly: schema drift must fail loudly), a header or section
// checksum mismatch, a structural reject, or trailing/missing bytes.
// Never UB on garbage: every count is bounds-checked before allocation.
bool decode_snapshot(std::span<const std::uint8_t> bytes,
                     SchedulerSnapshot& out, std::string* error = nullptr);

// --- the A/B slot store ----------------------------------------------------

class SnapshotStore {
 public:
  // The store writes `base + ".a"` and `base + ".b"`.
  explicit SnapshotStore(std::string base);

  const std::string& slot_a() const { return slot_a_; }
  const std::string& slot_b() const { return slot_b_; }

  // Removes both slot files (fresh service start): no slot is newest.
  void reset();

  // Writes an encoded snapshot image (encode_snapshot) to the slot not
  // holding the newest valid snapshot, which it then becomes.  Requires a
  // store that was reset() or load_newest()ed, so the newest slot is
  // known.  Returns the bytes written.  `truncate_at`, when below the
  // image size, simulates a crash mid-write: only that prefix reaches the
  // file (the caller is expected to die right after) and the newest slot
  // stays where it was.
  static constexpr std::size_t kWholeImage = static_cast<std::size_t>(-1);
  std::size_t write(std::span<const std::uint8_t> image,
                    std::size_t truncate_at = kWholeImage);

  // Loads the newest valid snapshot across both slots, and remembers its
  // slot as the newest.  Returns false when neither slot holds one; *note
  // (when non-null) describes what was found — including any torn/corrupt
  // slot that was rejected.
  bool load_newest(SchedulerSnapshot& out, std::string* note = nullptr);

 private:
  enum class Newest : std::uint8_t { kUnknown, kNone, kA, kB };

  std::string slot_a_, slot_b_;
  Newest newest_ = Newest::kUnknown;
};

}  // namespace treesched
