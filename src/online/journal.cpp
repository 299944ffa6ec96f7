#include "online/journal.hpp"

#include <filesystem>

#include "common/prelude.hpp"
#include "io/framing.hpp"

namespace treesched {

std::size_t encode_event_batch(const EventBatch& batch,
                               std::vector<std::uint8_t>& out) {
  const std::size_t before = out.size();
  put_f64(out, batch.time);
  put_u32(out, static_cast<std::uint32_t>(batch.arrivals.size()));
  for (const OnlineArrival& a : batch.arrivals) {
    put_i64(out, a.key);
    put_i32(out, a.tenant);
    put_i32(out, a.draw.u);
    put_i32(out, a.draw.v);
    put_f64(out, a.draw.profit);
    put_f64(out, a.draw.height);
    put_u32(out, static_cast<std::uint32_t>(a.draw.access.size()));
    for (const NetworkId n : a.draw.access) put_i32(out, n);
  }
  put_u32(out, static_cast<std::uint32_t>(batch.departures.size()));
  for (const DemandKey k : batch.departures) put_i64(out, k);
  return out.size() - before;
}

bool decode_event_batch(std::span<const std::uint8_t> buf,
                        std::size_t& offset, EventBatch& out,
                        std::string* error) {
  std::size_t at = offset;
  EventBatch batch;
  std::uint32_t arrival_count = 0;
  if (!get_f64(buf, at, batch.time) || !get_u32(buf, at, arrival_count)) {
    fail(error, "event batch header truncated");
    return false;
  }
  // Each arrival is at least 40 bytes (key + tenant + u + v + profit +
  // height + access count).
  if (!count_fits(buf, at, arrival_count, 40)) {
    fail(error, "event batch arrival count exceeds remaining bytes");
    return false;
  }
  batch.arrivals.resize(arrival_count);
  for (OnlineArrival& a : batch.arrivals) {
    std::uint32_t access_count = 0;
    if (!get_i64(buf, at, a.key) || !get_i32(buf, at, a.tenant) ||
        !get_i32(buf, at, a.draw.u) || !get_i32(buf, at, a.draw.v) ||
        !get_f64(buf, at, a.draw.profit) ||
        !get_f64(buf, at, a.draw.height) ||
        !get_u32(buf, at, access_count)) {
      fail(error, "event batch arrival truncated");
      return false;
    }
    if (a.tenant < 0 || a.draw.u < 0 || a.draw.v < 0) {
      fail(error, "event batch arrival corrupt (negative field)");
      return false;
    }
    if (!count_fits(buf, at, access_count, 4)) {
      fail(error, "event batch access count exceeds remaining bytes");
      return false;
    }
    a.draw.access.resize(access_count);
    for (NetworkId& n : a.draw.access) {
      if (!get_i32(buf, at, n)) {
        fail(error, "event batch access list truncated");
        return false;
      }
      if (n < 0) {
        fail(error, "event batch access list corrupt (negative network)");
        return false;
      }
    }
  }
  std::uint32_t departure_count = 0;
  if (!get_u32(buf, at, departure_count)) {
    fail(error, "event batch departure count truncated");
    return false;
  }
  if (!count_fits(buf, at, departure_count, 8)) {
    fail(error, "event batch departure count exceeds remaining bytes");
    return false;
  }
  batch.departures.resize(departure_count);
  for (DemandKey& k : batch.departures) {
    if (!get_i64(buf, at, k)) {
      fail(error, "event batch departure list truncated");
      return false;
    }
  }
  out = std::move(batch);
  offset = at;
  return true;
}

std::size_t encode_journal_record(const EventBatch& batch, std::uint32_t seq,
                                  std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = begin_crc_frame(out);
  encode_event_batch(batch, out);
  return end_crc_frame(out, frame_start, seq);
}

// --- replay ----------------------------------------------------------------

JournalReplay replay_journal_bytes(std::span<const std::uint8_t> bytes) {
  JournalReplay replay;
  replay.file_exists = true;
  std::size_t offset = 0;
  std::string error;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kCrcFrameHeaderBytes) {
      replay.torn = true;
      replay.diagnostic = "torn tail: partial frame header";
      break;
    }
    // Parse the payload structurally to learn the frame extent, then
    // verify the checksum over exactly those bytes (same discipline as
    // the wire's decode_frame).
    EventBatch batch;
    std::size_t payload_end = offset + kCrcFrameHeaderBytes;
    if (!decode_event_batch(bytes, payload_end, batch, &error)) {
      replay.torn = true;
      replay.diagnostic = "torn tail: " + error;
      break;
    }
    std::uint32_t seq = 0;
    if (!verify_crc_frame(bytes, offset, payload_end - offset, seq, &error)) {
      replay.torn = true;
      replay.diagnostic = "torn tail: " + error;
      break;
    }
    if (seq != replay.next_seq) {
      replay.torn = true;
      replay.diagnostic = "torn tail: sequence gap (expected " +
                          std::to_string(replay.next_seq) + ", found " +
                          std::to_string(seq) + ")";
      break;
    }
    replay.batches.push_back(std::move(batch));
    replay.next_seq += 1;
    offset = payload_end;
    replay.valid_bytes = offset;
  }
  return replay;
}

JournalReplay replay_journal(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return JournalReplay{};
  std::ifstream in(path, std::ios::binary);
  check_input(in.good(), "journal: cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  check_input(!in.bad(), "journal: read error on '" + path + "'");
  return replay_journal_bytes(bytes);
}

// --- writer ----------------------------------------------------------------

Journal::Journal(std::string path, std::uint32_t next_seq,
                 std::size_t keep_bytes)
    : path_(std::move(path)), next_seq_(next_seq) {
  std::error_code ec;
  if (std::filesystem::exists(path_, ec))
    std::filesystem::resize_file(path_, keep_bytes, ec);
  out_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                       std::ios::app);
  if (!out_.is_open()) {
    // First open on a fresh path: create it.
    out_.open(path_, std::ios::binary | std::ios::out);
  }
  check_input(out_.is_open(), "journal: cannot open '" + path_ + "'");
}

Journal Journal::create(const std::string& path) {
  return Journal(path, 0, 0);
}

Journal Journal::resume(const std::string& path,
                        const JournalReplay& replay) {
  return Journal(path, replay.next_seq, replay.valid_bytes);
}

void Journal::write_and_flush(const std::uint8_t* data, std::size_t size) {
  out_.write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  out_.flush();
  check_input(out_.good(), "journal: write failed on '" + path_ + "'");
  bytes_written_ += static_cast<std::int64_t>(size);
}

std::size_t Journal::append(const EventBatch& batch) {
  scratch_.clear();
  const std::size_t len = encode_journal_record(batch, next_seq_, scratch_);
  write_and_flush(scratch_.data(), len);
  next_seq_ += 1;
  return len;
}

void Journal::append_torn(const EventBatch& batch, std::size_t bytes) {
  scratch_.clear();
  const std::size_t len = encode_journal_record(batch, next_seq_, scratch_);
  TS_REQUIRE(bytes < len);  // must be a strict prefix: a *torn* append
  write_and_flush(scratch_.data(), bytes);
}

}  // namespace treesched
