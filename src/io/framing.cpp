#include "io/framing.hpp"

#include <array>
#include <cstring>

namespace treesched {

namespace {

struct Crc32Table {
  std::array<std::uint32_t, 256> entry;
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      entry[i] = c;
    }
  }
};

template <typename T>
void put_raw(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
bool get_raw(std::span<const std::uint8_t> buf, std::size_t& offset, T& v) {
  if (offset > buf.size() || buf.size() - offset < sizeof(T)) return false;
  std::memcpy(&v, buf.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const Crc32Table table;
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data)
    c = table.entry[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_raw(out, v);
}
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_raw(out, v);
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_raw(out, v);
}
void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_raw(out, v);
}
void put_f64(std::vector<std::uint8_t>& out, double v) { put_raw(out, v); }

bool get_u8(std::span<const std::uint8_t> buf, std::size_t& offset,
            std::uint8_t& v) {
  return get_raw(buf, offset, v);
}
bool get_u32(std::span<const std::uint8_t> buf, std::size_t& offset,
             std::uint32_t& v) {
  return get_raw(buf, offset, v);
}
bool get_i32(std::span<const std::uint8_t> buf, std::size_t& offset,
             std::int32_t& v) {
  return get_raw(buf, offset, v);
}
bool get_u64(std::span<const std::uint8_t> buf, std::size_t& offset,
             std::uint64_t& v) {
  return get_raw(buf, offset, v);
}
bool get_i64(std::span<const std::uint8_t> buf, std::size_t& offset,
             std::int64_t& v) {
  return get_raw(buf, offset, v);
}
bool get_f64(std::span<const std::uint8_t> buf, std::size_t& offset,
             double& v) {
  return get_raw(buf, offset, v);
}

bool count_fits(std::span<const std::uint8_t> buf, std::size_t offset,
                std::uint32_t count, std::size_t min_elem_bytes) {
  return static_cast<std::size_t>(count) <=
         (buf.size() - offset) / min_elem_bytes;
}

void fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

std::size_t begin_crc_frame(std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  out.resize(frame_start + kCrcFrameHeaderBytes);  // [crc | seq] placeholder
  return frame_start;
}

std::size_t end_crc_frame(std::vector<std::uint8_t>& out,
                          std::size_t frame_start, std::uint32_t seq) {
  std::memcpy(out.data() + frame_start + 4, &seq, 4);
  // The checksum covers everything after itself: seq + payload.
  const std::uint32_t crc =
      crc32({out.data() + frame_start + 4, out.size() - frame_start - 4});
  std::memcpy(out.data() + frame_start, &crc, 4);
  return out.size() - frame_start;
}

bool verify_crc_frame(std::span<const std::uint8_t> buf, std::size_t offset,
                      std::size_t frame_len, std::uint32_t& seq,
                      std::string* error) {
  if (frame_len < kCrcFrameHeaderBytes || offset > buf.size() ||
      buf.size() - offset < frame_len) {
    fail(error, "frame header truncated (need 8 bytes)");
    return false;
  }
  const std::uint8_t* p = buf.data() + offset;
  std::uint32_t want;
  std::memcpy(&want, p, 4);
  const std::uint32_t got = crc32({p + 4, frame_len - 4});
  if (got != want) {
    fail(error, "frame checksum mismatch");
    return false;
  }
  std::memcpy(&seq, p + 4, 4);
  return true;
}

}  // namespace treesched
