// Shared binary framing for every durable or wire byte stream.
//
// PR 8's recovery sublayer framed each wire message as
//   [u32 crc32 | u32 seq | payload]
// with the checksum covering everything after itself, and PR 10's
// write-ahead journal and snapshot files use the identical discipline.
// This header is the single home of that machinery so the wire and the
// disk formats cannot silently diverge: the CRC-32 implementation, the
// host-order scalar put/get helpers the codecs are written in, the
// decoders' count bound and reject helper, and the frame
// begin/end/verify triple both dist/transport.cpp and online/journal.cpp
// build their frames with.
//
// Layout contract (pinned by tests/test_framing.cpp against reference
// vectors and against the wire frame codec byte for byte):
//   * crc32 is IEEE 802.3 (reflected 0xEDB88320); crc32("123456789")
//     == 0xCBF43926;
//   * a frame is [u32 crc | u32 seq | payload] where the checksum
//     covers the seq word and the payload;
//   * payloads are self-delimiting (internal counts, every count
//     bounds-checked against the remaining bytes before any
//     allocation), so a reader first parses the payload structurally to
//     learn the frame extent, then verifies the checksum over exactly
//     those bytes — a corrupted length lands either on a structural
//     reject or on a checksum mismatch, never on UB.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace treesched {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial).
std::uint32_t crc32(std::span<const std::uint8_t> data);

// --- host-order scalar helpers --------------------------------------------
//
// The appenders grow `out`; the readers are bounds-checked and advance
// `offset` only on success, so a truncated buffer is always detected at
// the exact field that overruns it.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_i64(std::vector<std::uint8_t>& out, std::int64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);

bool get_u8(std::span<const std::uint8_t> buf, std::size_t& offset,
            std::uint8_t& v);
bool get_u32(std::span<const std::uint8_t> buf, std::size_t& offset,
             std::uint32_t& v);
bool get_i32(std::span<const std::uint8_t> buf, std::size_t& offset,
             std::int32_t& v);
bool get_u64(std::span<const std::uint8_t> buf, std::size_t& offset,
             std::uint64_t& v);
bool get_i64(std::span<const std::uint8_t> buf, std::size_t& offset,
             std::int64_t& v);
bool get_f64(std::span<const std::uint8_t> buf, std::size_t& offset,
             double& v);

// Bounds a decoded element count: the elements' minimum footprint must
// fit in the bytes after `offset`, so a garbage count can never drive an
// allocation past the buffer size.
bool count_fits(std::span<const std::uint8_t> buf, std::size_t offset,
                std::uint32_t count, std::size_t min_elem_bytes);

// A decoder's reject: stores the diagnostic in *error when non-null.
void fail(std::string* error, const std::string& what);

// --- the CRC frame ---------------------------------------------------------

// Bytes of the [crc | seq] frame header.
inline constexpr std::size_t kCrcFrameHeaderBytes = 8;

// Starts a frame: appends the 8-byte [crc | seq] placeholder and returns
// the frame's start offset in `out`.  The caller appends the payload,
// then calls end_crc_frame.
std::size_t begin_crc_frame(std::vector<std::uint8_t>& out);

// Finishes the frame started at `frame_start`: writes `seq` and patches
// the checksum over everything after it (seq + payload).  Returns the
// total frame length.
std::size_t end_crc_frame(std::vector<std::uint8_t>& out,
                          std::size_t frame_start, std::uint32_t seq);

// Verifies the checksum of the `frame_len`-byte frame at buf[offset...]
// and extracts its sequence word.  Returns false — with a diagnostic in
// *error when non-null — on a frame that does not fit in the buffer, a
// frame shorter than its own header, or a checksum mismatch.
bool verify_crc_frame(std::span<const std::uint8_t> buf, std::size_t offset,
                      std::size_t frame_len, std::uint32_t& seq,
                      std::string* error = nullptr);

}  // namespace treesched
