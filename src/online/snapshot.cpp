#include "online/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/prelude.hpp"
#include "io/framing.hpp"

namespace treesched {

namespace {

constexpr std::uint32_t kSectionRecords = 1;
constexpr std::uint32_t kSectionWide = 2;
constexpr std::uint32_t kSectionNarrow = 3;
constexpr std::uint32_t kSectionCount = 3;
constexpr std::size_t kHeaderBytes = 28;  // 24 + u32 header crc

// --- section payload codecs ------------------------------------------------

void encode_records(const std::vector<SnapshotDemandRecord>& records,
                    std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(records.size()));
  for (const SnapshotDemandRecord& r : records) {
    put_i32(out, r.u);
    put_i32(out, r.v);
    put_f64(out, r.profit);
    put_f64(out, r.height);
    put_i64(out, r.key);
    put_u8(out, r.alive ? 1 : 0);
    put_u32(out, static_cast<std::uint32_t>(r.access.size()));
    for (const NetworkId n : r.access) put_i32(out, n);
  }
}

bool decode_records(std::span<const std::uint8_t> buf, std::size_t& offset,
                    std::vector<SnapshotDemandRecord>& out,
                    std::string* error) {
  std::uint32_t count = 0;
  if (!get_u32(buf, offset, count)) {
    fail(error, "snapshot records header truncated");
    return false;
  }
  // Each record is at least 37 bytes (u+v, profit+height, key, alive,
  // access count).
  if (!count_fits(buf, offset, count, 37)) {
    fail(error, "snapshot record count exceeds remaining bytes");
    return false;
  }
  out.resize(count);
  for (SnapshotDemandRecord& r : out) {
    std::uint8_t alive = 0;
    std::uint32_t access_count = 0;
    if (!get_i32(buf, offset, r.u) || !get_i32(buf, offset, r.v) ||
        !get_f64(buf, offset, r.profit) || !get_f64(buf, offset, r.height) ||
        !get_i64(buf, offset, r.key) || !get_u8(buf, offset, alive) ||
        !get_u32(buf, offset, access_count)) {
      fail(error, "snapshot record truncated");
      return false;
    }
    if (r.u < 0 || r.v < 0 || alive > 1) {
      fail(error, "snapshot record corrupt");
      return false;
    }
    r.alive = alive != 0;
    if (!count_fits(buf, offset, access_count, 4)) {
      fail(error, "snapshot record access count exceeds remaining bytes");
      return false;
    }
    r.access.resize(access_count);
    for (NetworkId& n : r.access) {
      if (!get_i32(buf, offset, n)) {
        fail(error, "snapshot record access list truncated");
        return false;
      }
    }
  }
  return true;
}

void encode_class(const ClassSnapshot& cls, std::vector<std::uint8_t>& out) {
  put_u32(out, static_cast<std::uint32_t>(cls.components.size()));
  for (const SnapshotComponent& comp : cls.components) {
    put_u32(out, static_cast<std::uint32_t>(comp.members.size()));
    for (const InstanceId id : comp.members) put_i32(out, id);
    put_f64(out, comp.lambda);
    for (const double x : comp.lhs) put_f64(out, x);  // |members| values
    put_u32(out, static_cast<std::uint32_t>(comp.rows.size()));
    for (std::size_t i = 0; i < comp.rows.size(); ++i) {
      put_i32(out, comp.tags[i].group);
      put_i32(out, comp.tags[i].stage);
      put_i32(out, comp.tags[i].step);
      put_u32(out, static_cast<std::uint32_t>(comp.rows[i].size()));
      for (const InstanceId id : comp.rows[i]) put_i32(out, id);
    }
  }
}

bool decode_class(std::span<const std::uint8_t> buf, std::size_t& offset,
                  ClassSnapshot& out, std::string* error) {
  std::uint32_t comp_count = 0;
  if (!get_u32(buf, offset, comp_count)) {
    fail(error, "snapshot class component count truncated");
    return false;
  }
  // A component is at least 16 bytes (member count, lambda, row count).
  if (!count_fits(buf, offset, comp_count, 16)) {
    fail(error, "snapshot class component count exceeds remaining bytes");
    return false;
  }
  out.components.resize(comp_count);
  for (SnapshotComponent& comp : out.components) {
    std::uint32_t member_count = 0;
    if (!get_u32(buf, offset, member_count)) {
      fail(error, "snapshot component truncated");
      return false;
    }
    // Members then lambda then |members| LHS doubles.  A component has
    // at least one member (the forest never produces empty components).
    if (member_count == 0) {
      fail(error, "snapshot component corrupt (empty member list)");
      return false;
    }
    if (!count_fits(buf, offset, member_count, 4 + 8)) {
      fail(error, "snapshot component member count exceeds remaining bytes");
      return false;
    }
    comp.members.resize(member_count);
    for (InstanceId& id : comp.members) {
      if (!get_i32(buf, offset, id)) {
        fail(error, "snapshot component members truncated");
        return false;
      }
      if (id < 0) {
        fail(error, "snapshot component corrupt (negative member)");
        return false;
      }
    }
    if (!get_f64(buf, offset, comp.lambda)) {
      fail(error, "snapshot component lambda truncated");
      return false;
    }
    comp.lhs.resize(member_count);
    for (double& x : comp.lhs) {
      if (!get_f64(buf, offset, x)) {
        fail(error, "snapshot component lhs truncated");
        return false;
      }
    }
    std::uint32_t row_count = 0;
    if (!get_u32(buf, offset, row_count)) {
      fail(error, "snapshot component row count truncated");
      return false;
    }
    // A row is at least 16 bytes (tag triple + id count).
    if (!count_fits(buf, offset, row_count, 16)) {
      fail(error, "snapshot component row count exceeds remaining bytes");
      return false;
    }
    comp.rows.resize(row_count);
    comp.tags.resize(row_count);
    for (std::uint32_t i = 0; i < row_count; ++i) {
      std::uint32_t id_count = 0;
      if (!get_i32(buf, offset, comp.tags[i].group) ||
          !get_i32(buf, offset, comp.tags[i].stage) ||
          !get_i32(buf, offset, comp.tags[i].step) ||
          !get_u32(buf, offset, id_count)) {
        fail(error, "snapshot stack row truncated");
        return false;
      }
      // A raise-stack row is never empty (every step raises someone).
      if (id_count == 0) {
        fail(error, "snapshot stack row corrupt (empty row)");
        return false;
      }
      if (!count_fits(buf, offset, id_count, 4)) {
        fail(error, "snapshot stack row id count exceeds remaining bytes");
        return false;
      }
      comp.rows[i].resize(id_count);
      for (InstanceId& id : comp.rows[i]) {
        if (!get_i32(buf, offset, id)) {
          fail(error, "snapshot stack row ids truncated");
          return false;
        }
      }
    }
  }
  return true;
}

// Appends one [crc | section_id | payload] section frame.
template <typename EncodeFn>
void append_section(std::vector<std::uint8_t>& out, std::uint32_t section_id,
                    EncodeFn&& encode) {
  const std::size_t frame_start = begin_crc_frame(out);
  encode(out);
  end_crc_frame(out, frame_start, section_id);
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const SchedulerSnapshot& snap) {
  std::vector<std::uint8_t> out;
  // Header, with the total-bytes field patched once the image is done.
  put_u32(out, kSnapshotMagic);
  put_u32(out, kSnapshotVersion);
  put_u32(out, snap.batches_applied);
  put_u32(out, kSectionCount);
  put_u64(out, 0);  // total_bytes placeholder
  put_u32(out, 0);  // header crc placeholder
  append_section(out, kSectionRecords,
                 [&](std::vector<std::uint8_t>& b) {
                   encode_records(snap.records, b);
                 });
  append_section(out, kSectionWide, [&](std::vector<std::uint8_t>& b) {
    encode_class(snap.wide, b);
  });
  append_section(out, kSectionNarrow, [&](std::vector<std::uint8_t>& b) {
    encode_class(snap.narrow, b);
  });
  const std::uint64_t total = out.size();
  std::memcpy(out.data() + 16, &total, 8);
  const std::uint32_t crc = crc32({out.data(), 24});
  std::memcpy(out.data() + 24, &crc, 4);
  return out;
}

bool decode_snapshot(std::span<const std::uint8_t> bytes,
                     SchedulerSnapshot& out, std::string* error) {
  std::size_t offset = 0;
  std::uint32_t magic = 0, version = 0, seq = 0, section_count = 0;
  std::uint64_t total_bytes = 0;
  std::uint32_t header_crc = 0;
  if (!get_u32(bytes, offset, magic) || !get_u32(bytes, offset, version) ||
      !get_u32(bytes, offset, seq) ||
      !get_u32(bytes, offset, section_count) ||
      !get_u64(bytes, offset, total_bytes) ||
      !get_u32(bytes, offset, header_crc)) {
    fail(error, "snapshot header truncated");
    return false;
  }
  if (magic != kSnapshotMagic) {
    fail(error, "snapshot magic mismatch (not a snapshot file)");
    return false;
  }
  // Distinct, loud failure for schema drift: a future format bump must
  // never be mistaken for corruption (or silently half-read).
  if (version != kSnapshotVersion) {
    fail(error, "snapshot schema version mismatch (file v" +
                    std::to_string(version) + ", binary v" +
                    std::to_string(kSnapshotVersion) + ")");
    return false;
  }
  if (crc32({bytes.data(), 24}) != header_crc) {
    fail(error, "snapshot header checksum mismatch");
    return false;
  }
  if (total_bytes != bytes.size()) {
    fail(error, "snapshot length mismatch (header says " +
                    std::to_string(total_bytes) + " bytes, have " +
                    std::to_string(bytes.size()) + ")");
    return false;
  }
  if (section_count != kSectionCount) {
    fail(error, "snapshot section count mismatch");
    return false;
  }
  SchedulerSnapshot snap;
  snap.batches_applied = seq;
  for (std::uint32_t want_id = kSectionRecords; want_id <= kSectionNarrow;
       ++want_id) {
    // Structurally parse the section payload to learn the frame extent,
    // then verify the checksum over exactly those bytes.
    std::size_t payload_end = offset + kCrcFrameHeaderBytes;
    if (bytes.size() < payload_end) {
      fail(error, "snapshot section header truncated");
      return false;
    }
    bool ok = false;
    switch (want_id) {
      case kSectionRecords:
        ok = decode_records(bytes, payload_end, snap.records, error);
        break;
      case kSectionWide:
        ok = decode_class(bytes, payload_end, snap.wide, error);
        break;
      case kSectionNarrow:
        ok = decode_class(bytes, payload_end, snap.narrow, error);
        break;
      default:
        break;
    }
    if (!ok) return false;
    std::uint32_t section_id = 0;
    if (!verify_crc_frame(bytes, offset, payload_end - offset, section_id,
                          error)) {
      if (error != nullptr) *error = "snapshot section " + *error;
      return false;
    }
    if (section_id != want_id) {
      fail(error, "snapshot section id mismatch (expected " +
                      std::to_string(want_id) + ", found " +
                      std::to_string(section_id) + ")");
      return false;
    }
    offset = payload_end;
  }
  if (offset != bytes.size()) {
    fail(error, "snapshot has trailing bytes");
    return false;
  }
  out = std::move(snap);
  return true;
}

// --- the A/B slot store ----------------------------------------------------

namespace {

// Validity and sequence of one slot file.  A missing or invalid slot is
// seq-less; `note` collects a diagnostic for rejected non-empty slots.
struct SlotProbe {
  bool valid = false;
  std::uint32_t seq = 0;
  SchedulerSnapshot snap;
};

SlotProbe probe_slot(const std::string& path, std::string* note) {
  SlotProbe probe;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return probe;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (note != nullptr) *note += "slot '" + path + "' unreadable; ";
    return probe;
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::string error;
  if (!decode_snapshot(bytes, probe.snap, &error)) {
    if (note != nullptr)
      *note += "slot '" + path + "' rejected: " + error + "; ";
    return probe;
  }
  probe.valid = true;
  probe.seq = probe.snap.batches_applied;
  return probe;
}

}  // namespace

SnapshotStore::SnapshotStore(std::string base)
    : slot_a_(base + ".a"), slot_b_(base + ".b") {
  check_input(!base.empty(), "snapshot store: empty base path");
}

void SnapshotStore::reset() {
  std::error_code ec;
  std::filesystem::remove(slot_a_, ec);
  std::filesystem::remove(slot_b_, ec);
  newest_ = Newest::kNone;
}

std::size_t SnapshotStore::write(std::span<const std::uint8_t> image,
                                 std::size_t truncate_at) {
  TS_REQUIRE(newest_ != Newest::kUnknown);
  // Target the slot NOT holding the newest valid snapshot, so the
  // previous one survives a torn write of this one.
  const bool to_b = newest_ == Newest::kA;
  const std::string& target = to_b ? slot_b_ : slot_a_;
  const std::size_t bytes = std::min(truncate_at, image.size());
  std::ofstream out(target, std::ios::binary | std::ios::trunc);
  check_input(out.good(), "snapshot store: cannot open '" + target + "'");
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(bytes));
  out.flush();
  check_input(out.good(), "snapshot store: write failed on '" + target + "'");
  if (bytes == image.size()) newest_ = to_b ? Newest::kB : Newest::kA;
  return bytes;
}

bool SnapshotStore::load_newest(SchedulerSnapshot& out, std::string* note) {
  if (note != nullptr) note->clear();
  SlotProbe a = probe_slot(slot_a_, note);
  SlotProbe b = probe_slot(slot_b_, note);
  if (!a.valid && !b.valid) {
    if (note != nullptr) *note += "no valid snapshot";
    newest_ = Newest::kNone;
    return false;
  }
  const bool a_newest = a.valid && (!b.valid || a.seq >= b.seq);
  newest_ = a_newest ? Newest::kA : Newest::kB;
  SlotProbe& newest = a_newest ? a : b;
  if (note != nullptr)
    *note += "loaded snapshot at batch " + std::to_string(newest.seq);
  out = std::move(newest.snap);
  return true;
}

}  // namespace treesched
