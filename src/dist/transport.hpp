// The communication backend of the synchronous runtime (dist/runtime.hpp).
//
// The paper's protocols only ever touch three communication primitives:
// post a message during the open round, flush at the round boundary, and
// drain a node's inbox of everything delivered by past boundaries.  The
// Transport interface is exactly those three calls; Runtime stays the
// round-discipline shell (connect/step/round and the message/byte
// accounting the theorems bound) and delegates the message movement to a
// pluggable backend:
//
//   kInProc              the original single-process path: posted
//                        Messages move between std::vectors, nothing is
//                        serialized.  Bytes are *modeled* (counted, not
//                        produced).  Default.
//   kSerialized          every Message is encoded into its destination's
//                        byte buffer at post time and decoded at drain
//                        time — the byte counters become real serialized
//                        sizes (the encoding is exactly the modeled
//                        16-byte header + 8 bytes per double).  Buffers
//                        are reused across rounds; the per-message
//                        encode/decode hits are counted so tests can
//                        assert every message really crossed the codec.
//   kFaulty              an *unreliable* channel plus the recovery layer
//                        that masks it: wraps any inner backend, frames
//                        every message with a CRC32 and a per-(src,dst)
//                        sequence number, and applies a seeded
//                        deterministic FaultPlan (drop / duplicate /
//                        within-round reorder / payload bit-corruption /
//                        round delay).  Inside the round barrier the
//                        receiver dedups duplicates by sequence, rejects
//                        corrupt frames by checksum, and re-requests
//                        missing sequence numbers through a bounded
//                        ack/retransmit exchange.  While the recovery
//                        budget holds, delivery is bit-identical to the
//                        fault-free run; when it exhausts, the transport
//                        reports degraded() and counts the loss — never
//                        UB, never a hang.
//
// All backends are observationally identical: same delivery order (per
// destination, posting order), same round/message/byte counts — the
// parity suites hold them to exact (==) agreement.  Every backend is
// single-driver, and a flush() costs O(messages it moves + 1): it visits
// only the destinations posted to since the previous flush (kFaulty also
// the ones holding delayed frames), never every box, so the long idle
// stretches of the protocols' fixed schedules cost next to nothing.
//
// A future socket/MPI backend implements this same interface; the codec
// below is its wire format, and the kFaulty recovery sublayer (frame
// checksum + sequence numbers + in-barrier retransmit) is the
// reliability contract it must honor.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/prelude.hpp"
#include "io/framing.hpp"  // crc32 + the shared [crc | seq] frame helpers

namespace treesched {

// One protocol message.  `data` is the payload; the paper's messages
// carry O(1) demand records, so a handful of doubles suffices.
struct Message {
  int from = -1;
  int to = -1;
  int tag = 0;
  std::vector<double> data;
};

// The modeled message cost charged by the accounting (and produced,
// byte for byte, by the serialized codec): a 16-byte header
// (from, to, tag, length) plus 8 bytes per payload double.
inline std::int64_t message_wire_bytes(const Message& m) {
  return 16 + 8 * static_cast<std::int64_t>(m.data.size());
}

enum class TransportKind {
  kDefault,  // resolve via TREESCHED_TRANSPORT (unset -> kInProc)
  kInProc,
  kSerialized,
  kFaulty,
};

const char* to_string(TransportKind kind);
// "inproc" | "serialized" | "faulty"; throws std::invalid_argument,
// naming the valid set, on anything else (user-facing flags).
TransportKind parse_transport_kind(const std::string& name);
// Resolves kDefault through the TREESCHED_TRANSPORT environment variable
// (read once per process, same env-hook pattern as TREESCHED_TRACE in
// the parity suites); other kinds pass through unchanged.  Unset or
// empty means kInProc.
TransportKind resolve_transport_kind(TransportKind kind);

// --- Message codec ---------------------------------------------------------
//
// Wire format (host byte order; the format of the serialized backends
// and of any future out-of-process backend):
//   int32 from | int32 to | int32 tag | int32 count | count x double
// 16 + 8*count bytes per message — identical to the modeled charge, so
// the byte counters mean the same thing on every backend.

// Appends the encoding of `m` to `out`; returns the bytes appended
// (always message_wire_bytes(m)).
std::size_t encode_message(const Message& m, std::vector<std::uint8_t>& out);

// Decodes one message from buf[offset...], advancing `offset` past it
// and reusing `out`'s payload capacity.  On any malformed input —
// truncated header, negative or impossible payload length, negative
// endpoints — returns false with `offset` untouched and a diagnostic in
// *error (when non-null).  Never reads past buf and never UB's on
// garbage: the codec fuzz arm in tests/test_fuzz.cpp feeds it random
// and truncated buffers under the sanitizers.
bool decode_message(std::span<const std::uint8_t> buf, std::size_t& offset,
                    Message& out, std::string* error = nullptr);

// --- Fault injection -------------------------------------------------------
//
// The kFaulty backend draws every fault from a SplitMix64 hash of
// (plan seed, src, dst, sequence number, attempt) — deterministic,
// independent of call order, and replayable from the seed alone.  The
// per-frame outcomes are mutually exclusive (one uniform draw against
// the cumulative rates), which gives the counter accounting closed
// forms the tests pin down.

struct FaultPlan {
  double drop = 0.0;       // frame vanishes; recovered by retransmit
  double duplicate = 0.0;  // frame arrives twice; deduped by sequence
  double corrupt = 0.0;    // 1-3 payload bits flip; rejected by CRC32
  double reorder = 0.0;    // within-round arrival shuffle; masked by
                           // sequence-ordered reassembly
  double delay = 0.0;      // frame slips 1..max_delay_rounds rounds;
                           // recovered by retransmit, the late original
                           // arrives as a stale duplicate
  int max_delay_rounds = 2;
  // Retransmit attempts per missing frame before the transport declares
  // the frame lost and flags the run degraded.
  int retransmit_budget = 8;
  std::uint64_t seed = 1;
  // Backend the recovery layer wraps (a concrete kind; kDefault/kFaulty
  // fall back to kSerialized).
  TransportKind inner = TransportKind::kSerialized;

  bool any() const {
    return drop > 0.0 || duplicate > 0.0 || corrupt > 0.0 ||
           reorder > 0.0 || delay > 0.0;
  }
};

// Parses "drop=0.05,dup=0.02,corrupt=0.01,reorder=0.1,delay=0.05,
// maxdelay=2,budget=8,seed=1,inner=serialized" (any subset, any order;
// "duplicate" and "retransmit" accepted as aliases).  The empty string
// is the empty plan.  Throws std::invalid_argument on unknown keys or
// unparsable values — this is the TREESCHED_FAULTS / --faults= format.
FaultPlan parse_fault_plan(const std::string& spec);

// Every counter is a frame count.  Closed forms (asserted by
// tests/test_runtime.cpp): frames_delivered + frames_lost ==
// frames_posted always; corrupt_undetected == 0 always (CRC32 detects
// every <=3-bit flip at our frame sizes); with only duplication
// injected, dup_dropped == frames_duplicated and retransmits == 0.
struct FaultStats {
  std::int64_t frames_posted = 0;
  std::int64_t frames_delivered = 0;
  std::int64_t frames_dropped = 0;     // first-attempt drops
  std::int64_t frames_duplicated = 0;
  std::int64_t frames_corrupted = 0;   // first-attempt corruptions
  std::int64_t frames_delayed = 0;
  std::int64_t frames_reordered = 0;   // displaced within a round
  std::int64_t retransmits = 0;        // re-request attempts, all frames
  std::int64_t dup_dropped = 0;        // stale/duplicate arrivals deduped
  std::int64_t corrupt_dropped = 0;    // CRC-rejected arrivals (any attempt)
  std::int64_t corrupt_undetected = 0; // corrupt frame passed CRC (never)
  std::int64_t frames_lost = 0;        // retransmit budget exhausted
};

// --- Frame codec -----------------------------------------------------------
//
// The recovery layer's frame around the message codec:
//   uint32 crc32 | uint32 seq | encoded message
// where the checksum covers the sequence number and the message bytes.
// `seq` numbers the (src, dst) stream so the receiver can dedup
// duplicates and name missing frames in the ack/retransmit exchange.
// The layout, the CRC-32, and the begin/end/verify helpers live in
// io/framing.hpp (re-exported by the include above) and are shared with
// the online service's write-ahead journal and snapshot files — the
// wire and the durable formats cannot drift apart.

// Appends the frame for (m, seq) to `out`; returns the bytes appended
// (8 + message_wire_bytes(m)).
std::size_t encode_frame(const Message& m, std::uint32_t seq,
                         std::vector<std::uint8_t>& out);

// Decodes one frame from buf[offset...], advancing `offset` past it.
// Returns false — with `offset` untouched — on a truncated header, a
// checksum mismatch, or a malformed inner message; corruption anywhere
// in the frame is detected here, never silently mis-decoded.
bool decode_frame(std::span<const std::uint8_t> buf, std::size_t& offset,
                  std::uint32_t& seq, Message& out,
                  std::string* error = nullptr);

// --- The backend interface -------------------------------------------------

class Transport {
 public:
  virtual ~Transport() = default;

  // Queues `m` for delivery at the next flush().  Validation (channel
  // open, endpoints in range) and accounting happen in Runtime before
  // the call; the backend only moves the message.
  virtual void post(Message m) = 0;

  // Round boundary: everything posted since the previous flush() becomes
  // drainable at its destination.  Driver-side only, on every backend,
  // and O(messages moved + 1): an idle round touches no box.
  virtual void flush() = 0;

  // Fills `out` with node's delivered-but-undrained messages, in posting
  // order, and empties the inbox.  `out` arrives in an arbitrary
  // recycled state (it may still hold stale messages from a previous
  // drain — see Runtime::recycle); the backend must leave it holding
  // exactly the delivered messages, reusing its capacity where it can.
  virtual void drain(int node, std::vector<Message>& out) = 0;

  virtual TransportKind kind() const = 0;
  // Name of the per-round trace span ("round", "round.serialized", ...)
  // — a string literal, as the recorder requires.
  virtual const char* round_span_name() const = 0;

  // Codec hit counters: messages that crossed encode_message /
  // decode_message.  Zero on the in-proc path; equal to messages_sent on
  // the serialized paths once every inbox is drained (asserted by the
  // transport-axis tests).  The kFaulty backend counts at the frame
  // layer: encoded at post, decoded when a pristine frame is accepted —
  // so both still equal messages_sent whenever recovery masks the plan.
  virtual std::int64_t codec_encoded() const { return 0; }
  virtual std::int64_t codec_decoded() const { return 0; }

  // Fault-injection observability; non-null / meaningful only on the
  // kFaulty backend.  degraded() flips (monotonically) the first time a
  // frame exhausts its retransmit budget — from then on delivery is no
  // longer bit-identical to the fault-free run and results must be
  // treated as partial.
  virtual const FaultStats* fault_stats() const { return nullptr; }
  virtual bool degraded() const { return false; }
};

// Builds a backend (kDefault resolves through the environment first).
// `faults`, when non-null with a non-empty plan, wraps the resolved
// backend in the kFaulty recovery layer (the resolved concrete kind
// becomes the inner backend).  Otherwise, when the caller asked for
// kDefault or kFaulty, the TREESCHED_FAULTS environment variable (read
// once per process) supplies the plan — explicitly requested concrete
// kinds are never wrapped by the environment, so an env-driven fault
// run leaves explicit-kind tests untouched.
std::unique_ptr<Transport> make_transport(TransportKind kind, int num_nodes,
                                          const FaultPlan* faults = nullptr);

}  // namespace treesched
