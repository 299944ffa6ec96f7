#include "dist/transport.hpp"

#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"
#include "common/spec.hpp"
#include "obs/metrics.hpp"

namespace treesched {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDefault:
      return "default";
    case TransportKind::kInProc:
      return "inproc";
    case TransportKind::kSerialized:
      return "serialized";
    case TransportKind::kFaulty:
      return "faulty";
  }
  return "?";
}

TransportKind parse_transport_kind(const std::string& name) {
  if (name == "inproc") return TransportKind::kInProc;
  if (name == "serialized") return TransportKind::kSerialized;
  if (name == "faulty") return TransportKind::kFaulty;
  check_input(false, "unknown transport '" + name +
                         "' (expected inproc|serialized|faulty)");
  return TransportKind::kInProc;  // unreachable
}

TransportKind resolve_transport_kind(TransportKind kind) {
  if (kind != TransportKind::kDefault) return kind;
  // Read once: the env hook selects the process-wide default, which is
  // how CI runs the whole tier-1 suite over the serialized wire without
  // any test knowing (TREESCHED_TRANSPORT=serialized, see ci.yml).
  static const TransportKind from_env = [] {
    const char* env = std::getenv("TREESCHED_TRANSPORT");
    if (env == nullptr || *env == '\0') return TransportKind::kInProc;
    return parse_transport_kind(env);
  }();
  return from_env;
}

// --- codec -----------------------------------------------------------------

namespace {

std::int32_t get_i32(const std::uint8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

std::size_t encode_message(const Message& m, std::vector<std::uint8_t>& out) {
  const std::size_t before = out.size();
  put_i32(out, m.from);
  put_i32(out, m.to);
  put_i32(out, m.tag);
  put_i32(out, static_cast<std::int32_t>(m.data.size()));
  const std::size_t at = out.size();
  out.resize(at + 8 * m.data.size());
  if (!m.data.empty())
    std::memcpy(out.data() + at, m.data.data(), 8 * m.data.size());
  return out.size() - before;
}

bool decode_message(std::span<const std::uint8_t> buf, std::size_t& offset,
                    Message& out, std::string* error) {
  if (offset > buf.size() || buf.size() - offset < 16) {
    fail(error, "message header truncated (need 16 bytes)");
    return false;
  }
  const std::uint8_t* p = buf.data() + offset;
  const std::int32_t from = get_i32(p);
  const std::int32_t to = get_i32(p + 4);
  const std::int32_t tag = get_i32(p + 8);
  const std::int32_t count = get_i32(p + 12);
  if (from < 0 || to < 0) {
    fail(error, "corrupt message header (negative endpoint)");
    return false;
  }
  if (count < 0) {
    fail(error, "corrupt message header (negative payload length)");
    return false;
  }
  const std::size_t payload = 8 * static_cast<std::size_t>(count);
  if (buf.size() - offset - 16 < payload) {
    fail(error, "message payload truncated");
    return false;
  }
  out.from = from;
  out.to = to;
  out.tag = tag;
  out.data.resize(static_cast<std::size_t>(count));  // reuses capacity
  if (count > 0) std::memcpy(out.data.data(), p + 16, payload);
  offset += 16 + payload;
  return true;
}

// --- frame codec -----------------------------------------------------------
//
// Built on the shared io/framing.hpp helpers (also used by the online
// journal and snapshot files): begin/end for the zero-copy placeholder-
// then-patch encode, verify for the checksum check over exactly the
// bytes the self-delimiting inner message occupies.

std::size_t encode_frame(const Message& m, std::uint32_t seq,
                         std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = begin_crc_frame(out);
  encode_message(m, out);
  return end_crc_frame(out, frame_start, seq);
}

bool decode_frame(std::span<const std::uint8_t> buf, std::size_t& offset,
                  std::uint32_t& seq, Message& out, std::string* error) {
  if (offset > buf.size() || buf.size() - offset < kCrcFrameHeaderBytes) {
    fail(error, "frame header truncated (need 8 bytes)");
    return false;
  }
  // Decode the inner message first to learn the frame length, then
  // checksum exactly that many bytes.  A length corrupted into garbage
  // fails the decode; a length corrupted into a *valid* smaller/larger
  // frame still fails the CRC below, because the checksum covers the
  // length field itself.
  std::size_t inner = offset + kCrcFrameHeaderBytes;
  if (!decode_message(buf, inner, out, error)) return false;
  if (!verify_crc_frame(buf, offset, inner - offset, seq, error)) return false;
  offset = inner;
  return true;
}

// --- fault plan ------------------------------------------------------------

namespace {

double parse_rate(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double rate = 0.0;
  try {
    rate = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  check_input(used == value.size() && rate >= 0.0 && rate <= 1.0,
              "fault plan: bad value for '" + key + "': '" + value +
                  "' (expected a rate in [0,1])");
  return rate;
}

// A round or attempt count, capped at 64.
int parse_count(const std::string& key, const std::string& value) {
  return static_cast<int>(
      std::min<std::uint64_t>(parse_spec_u64("fault plan", key, value), 64));
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  for_each_spec_item(spec, "fault plan", [&](const std::string& key,
                                             const std::string& value) {
    if (key == "drop") {
      plan.drop = parse_rate(key, value);
    } else if (key == "dup" || key == "duplicate") {
      plan.duplicate = parse_rate(key, value);
    } else if (key == "corrupt") {
      plan.corrupt = parse_rate(key, value);
    } else if (key == "reorder") {
      plan.reorder = parse_rate(key, value);
    } else if (key == "delay") {
      plan.delay = parse_rate(key, value);
    } else if (key == "maxdelay") {
      plan.max_delay_rounds = parse_count(key, value);
      check_input(plan.max_delay_rounds >= 1,
                  "fault plan: maxdelay must be >= 1");
    } else if (key == "budget" || key == "retransmit") {
      plan.retransmit_budget = parse_count(key, value);
    } else if (key == "seed") {
      plan.seed = parse_spec_u64("fault plan", key, value);
    } else if (key == "inner") {
      plan.inner = parse_transport_kind(value);
    } else {
      check_input(false, "fault plan: unknown key '" + key +
                             "' (expected drop|dup|corrupt|reorder|delay|"
                             "maxdelay|budget|seed|inner)");
    }
  });
  check_input(plan.drop + plan.duplicate + plan.corrupt + plan.delay <= 1.0,
              "fault plan: drop+dup+corrupt+delay rates must sum to <= 1");
  return plan;
}

// --- backends --------------------------------------------------------------

namespace {

// The original single-process path: posted Messages are moved, never
// encoded.  One in-flight list, one delivered vector per node.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(int num_nodes)
      : inbox_(static_cast<std::size_t>(num_nodes)) {}

  void post(Message m) override { in_flight_.push_back(std::move(m)); }

  void flush() override {
    for (Message& m : in_flight_)
      inbox_[static_cast<std::size_t>(m.to)].push_back(std::move(m));
    in_flight_.clear();
  }

  void drain(int node, std::vector<Message>& out) override {
    // Swap, don't copy: the recycled `out` donates its capacity as the
    // node's next inbox storage.
    out.clear();
    out.swap(inbox_[static_cast<std::size_t>(node)]);
  }

  TransportKind kind() const override { return TransportKind::kInProc; }
  const char* round_span_name() const override { return "round"; }

 private:
  std::vector<Message> in_flight_;
  std::vector<std::vector<Message>> inbox_;
};

// Every message crosses the codec: encoded into its destination's byte
// buffer at post, decoded back out at drain.  Single-driver, like the
// in-proc path.
class SerializedTransport final : public Transport {
 public:
  explicit SerializedTransport(int num_nodes)
      : box_(static_cast<std::size_t>(num_nodes)) {}

  void post(Message m) override {
    ByteBox& box = box_[static_cast<std::size_t>(m.to)];
    // A box's first post of the round puts it on the flush list.
    if (box.staged_count == 0) posted_.push_back(m.to);
    const std::size_t bytes = encode_message(m, box.staging);
    TS_DCHECK(bytes ==
              static_cast<std::size_t>(message_wire_bytes(m)));
    (void)bytes;
    ++box.staged_count;
    ++encoded_;
  }

  void flush() override {
    // Only the boxes posted to this round: the staged bytes move behind
    // any undrained delivery, both buffers keeping their capacity.
    for (int to : posted_) {
      ByteBox& box = box_[static_cast<std::size_t>(to)];
      box.delivery.insert(box.delivery.end(), box.staging.begin(),
                          box.staging.end());
      box.staging.clear();
      box.count += box.staged_count;
      box.staged_count = 0;
    }
    posted_.clear();
  }

  // Decodes the node's delivered bytes into `out`, overwriting recycled
  // Message slots in place (payload capacity included) so a steady-state
  // round needs no allocation at all.
  void drain(int node, std::vector<Message>& out) override {
    ByteBox& box = box_[static_cast<std::size_t>(node)];
    const auto n = static_cast<std::size_t>(box.count);
    if (out.size() > n) out.resize(n);
    std::size_t offset = 0;
    std::size_t i = 0;
    while (offset < box.delivery.size()) {
      if (i == out.size()) out.emplace_back();
      const bool ok = decode_message(
          {box.delivery.data(), box.delivery.size()}, offset, out[i]);
      TS_REQUIRE(ok);  // internal buffers are always well-formed
      ++i;
      ++decoded_;
    }
    TS_REQUIRE(i == n);
    box.delivery.clear();
    box.count = 0;
  }

  TransportKind kind() const override { return TransportKind::kSerialized; }
  const char* round_span_name() const override { return "round.serialized"; }
  std::int64_t codec_encoded() const override { return encoded_; }
  std::int64_t codec_decoded() const override { return decoded_; }

 private:
  struct ByteBox {
    std::vector<std::uint8_t> staging;   // posted since the last flush
    std::int64_t staged_count = 0;
    std::vector<std::uint8_t> delivery;  // flushed, not yet drained
    std::int64_t count = 0;
  };

  std::vector<ByteBox> box_;
  std::vector<int> posted_;  // boxes with staged bytes, first-post order
  std::int64_t encoded_ = 0;
  std::int64_t decoded_ = 0;
};

std::unique_ptr<Transport> make_concrete(TransportKind kind, int num_nodes) {
  if (kind == TransportKind::kSerialized)
    return std::make_unique<SerializedTransport>(num_nodes);
  return std::make_unique<InProcTransport>(num_nodes);
}

// The unreliable channel plus the recovery layer that masks it.  Every
// post is framed (CRC32 + per-(src,dst) sequence number) into its
// destination's pristine byte store; at the round barrier each frame's
// channel outcome is drawn deterministically from the plan seed, the
// receiver dedups / CRC-rejects / re-requests until every sequence
// number is accounted for (delivered or, past the retransmit budget,
// declared lost), and the surviving frames are decoded in posting order
// into the inner backend — so whenever recovery wins, the inner backend
// observes a byte stream identical to a fault-free run.  Single-driver,
// like every backend.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(const FaultPlan& plan, int num_nodes)
      : plan_(plan), box_(static_cast<std::size_t>(num_nodes)) {
    TransportKind inner = plan_.inner;
    if (inner == TransportKind::kDefault || inner == TransportKind::kFaulty)
      inner = TransportKind::kSerialized;
    plan_.inner = inner;
    inner_ = make_concrete(inner, num_nodes);
    if (plan_.max_delay_rounds < 1) plan_.max_delay_rounds = 1;
    if (plan_.retransmit_budget < 0) plan_.retransmit_budget = 0;
    for (DstBox& box : box_)
      box.next_seq.assign(static_cast<std::size_t>(num_nodes), 0);
    // Cumulative thresholds for the single per-frame uniform draw: the
    // outcomes are mutually exclusive, which is what gives the counters
    // their closed forms.
    p_drop_ = plan_.drop;
    p_dup_ = p_drop_ + plan_.duplicate;
    p_corrupt_ = p_dup_ + plan_.corrupt;
    p_delay_ = p_corrupt_ + plan_.delay;
  }

  void post(Message m) override {
    DstBox& box = box_[static_cast<std::size_t>(m.to)];
    if (!box.listed) {
      box.listed = true;
      listed_.push_back(m.to);
    }
    FrameRef ref;
    ref.src = m.from;
    ref.seq = box.next_seq[static_cast<std::size_t>(m.from)]++;
    ref.offset = box.bytes.size();
    ref.len = encode_frame(m, ref.seq, box.bytes);
    box.manifest.push_back(ref);
    ++encoded_;
    ++stats_.frames_posted;
  }

  void flush() override {
    // Read only by the TRACE_COUNTERs below, which compile to nothing
    // when tracing is compiled out.
    [[maybe_unused]] const FaultStats before = stats_;
    // Visit only the listed boxes: those posted to this round and those
    // still holding delayed originals, whose countdowns must tick every
    // round.  A box leaves the list once it has neither.  Boxes are
    // independent (fault draws hash their own coordinates, the inner
    // backend keeps per-destination order), so list order is free.
    std::size_t keep = 0;
    for (const int dst : listed_) {
      deliver_box(dst);
      DstBox& box = box_[static_cast<std::size_t>(dst)];
      if (box.inflight.empty())
        box.listed = false;
      else
        listed_[keep++] = dst;
    }
    listed_.resize(keep);
    inner_->flush();
    TRACE_COUNTER("wire.fault.retransmits",
                  stats_.retransmits - before.retransmits);
    TRACE_COUNTER("wire.fault.dup_dropped",
                  stats_.dup_dropped - before.dup_dropped);
    TRACE_COUNTER("wire.fault.corrupt_dropped",
                  stats_.corrupt_dropped - before.corrupt_dropped);
    TRACE_COUNTER("wire.fault.frames_lost",
                  stats_.frames_lost - before.frames_lost);
  }

  void drain(int node, std::vector<Message>& out) override {
    inner_->drain(node, out);
  }

  TransportKind kind() const override { return TransportKind::kFaulty; }
  const char* round_span_name() const override { return "round.faulty"; }
  std::int64_t codec_encoded() const override { return encoded_; }
  std::int64_t codec_decoded() const override { return decoded_; }
  const FaultStats* fault_stats() const override { return &stats_; }
  bool degraded() const override { return degraded_; }

 private:
  struct FrameRef {
    int src = -1;
    std::uint32_t seq = 0;
    std::size_t offset = 0;
    std::size_t len = 0;
    bool received = false;
  };
  struct DstBox {
    std::vector<std::uint8_t> bytes;    // pristine frames, posting order
    std::vector<FrameRef> manifest;     // this round's frames
    std::vector<std::uint32_t> next_seq;  // per-source stream position
    std::vector<int> inflight;          // delayed originals: rounds left
    bool listed = false;                // on listed_
  };

  // Every fault draw hashes (seed, src, dst, seq, attempt) — replayable
  // from the seed alone and independent of call order.  Attempt 0 is
  // the original transmission, 1..budget the retransmissions, and a
  // disjoint constant the reorder draw.
  static constexpr int kReorderAttempt = 1 << 20;
  std::uint64_t fault_hash(int src, int dst, std::uint32_t seq,
                           int attempt) const {
    SplitMix64 a(plan_.seed ^
                 (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                  << 32) ^
                 static_cast<std::uint32_t>(dst));
    SplitMix64 b(a.next() ^
                 (static_cast<std::uint64_t>(seq) * 0x9e3779b97f4a7c15ULL) ^
                 (static_cast<std::uint64_t>(attempt) * 0xbf58476d1ce4e5b9ULL));
    return b.next();
  }
  static double u01(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  // Copies the frame, flips 1-3 distinct bits, and runs the real
  // decoder: the corrupted arrival must fail the checksum.  CRC-32 has
  // Hamming distance 4 out to ~91k bits, far beyond any frame here, so
  // corrupt_undetected stays 0 — asserted by the fuzz suite.  Either
  // way the frame is not delivered (on the never-taken undetected path
  // we still know the ground truth).
  void corrupt_and_check(const DstBox& box, const FrameRef& ref,
                         std::uint64_t h) {
    corrupt_scratch_.assign(box.bytes.begin() + ref.offset,
                            box.bytes.begin() + ref.offset + ref.len);
    const std::size_t nbits = 8 * ref.len;
    const int flips = 1 + static_cast<int>((h >> 5) % 3);
    const std::size_t first = (h >> 7) % nbits;
    for (int k = 0; k < flips; ++k) {
      const std::size_t bit = (first + static_cast<std::size_t>(k)) % nbits;
      corrupt_scratch_[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    std::size_t off = 0;
    std::uint32_t seq = 0;
    if (decode_frame({corrupt_scratch_.data(), corrupt_scratch_.size()}, off,
                     seq, corrupt_msg_) &&
        seq == ref.seq) {
      ++stats_.corrupt_undetected;
    } else {
      ++stats_.corrupt_dropped;
    }
  }

  void deliver_box(int dst) {
    DstBox& box = box_[static_cast<std::size_t>(dst)];
    // Delayed originals from earlier rounds arrive now; their sequence
    // numbers were already settled (retransmitted or declared lost) in
    // their own round, so they are stale and deduped on sight.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < box.inflight.size(); ++i) {
      if (--box.inflight[i] > 0)
        box.inflight[keep++] = box.inflight[i];
      else
        ++stats_.dup_dropped;
    }
    box.inflight.resize(keep);
    if (box.manifest.empty()) return;

    // Channel outcomes: one draw per frame against the cumulative rates.
    std::int64_t arrivals = 0;
    for (FrameRef& ref : box.manifest) {
      const std::uint64_t h = fault_hash(ref.src, dst, ref.seq, 0);
      const double u = u01(h);
      if (u < p_drop_) {
        ++stats_.frames_dropped;
      } else if (u < p_dup_) {
        // Both copies arrive; the second is deduped by sequence number.
        ref.received = true;
        ++arrivals;
        ++stats_.frames_duplicated;
        ++stats_.dup_dropped;
      } else if (u < p_corrupt_) {
        ++stats_.frames_corrupted;
        corrupt_and_check(box, ref, h);
      } else if (u < p_delay_) {
        ++stats_.frames_delayed;
        box.inflight.push_back(
            1 + static_cast<int>((h & 0xFFFF) %
                                 static_cast<std::uint64_t>(
                                     plan_.max_delay_rounds)));
      } else {
        ref.received = true;
        ++arrivals;
      }
    }

    // Within-round reorder shuffles arrival order on the channel, but
    // the receiver reassembles in sequence order (the manifest *is* the
    // per-source sequence order), so it is masked by construction —
    // only counted.
    if (plan_.reorder > 0.0 && arrivals > 1) {
      for (const FrameRef& ref : box.manifest) {
        if (!ref.received) continue;
        if (u01(fault_hash(ref.src, dst, ref.seq, kReorderAttempt)) <
            plan_.reorder)
          ++stats_.frames_reordered;
      }
    }

    // Ack/retransmit inside the barrier: the receiver knows each
    // source's expected next sequence number, so every missing frame is
    // identified by its gap and re-requested.  A retransmission can
    // itself be dropped or corrupted; past the budget the frame is lost
    // and the run is permanently degraded.
    for (FrameRef& ref : box.manifest) {
      if (ref.received) continue;
      for (int a = 1; a <= plan_.retransmit_budget && !ref.received; ++a) {
        ++stats_.retransmits;
        const std::uint64_t h = fault_hash(ref.src, dst, ref.seq, a);
        const double u = u01(h);
        if (u < plan_.drop) continue;
        if (u < plan_.drop + plan_.corrupt) {
          corrupt_and_check(box, ref, h);
          continue;
        }
        ref.received = true;
      }
      if (!ref.received) {
        ++stats_.frames_lost;
        degraded_ = true;
      }
    }

    // Deliver in posting order: decode each accepted pristine frame —
    // the real checksum check — and hand the message to the inner
    // backend, which then behaves exactly as in a fault-free run.
    for (const FrameRef& ref : box.manifest) {
      if (!ref.received) continue;
      std::size_t off = ref.offset;
      std::uint32_t seq = 0;
      const bool ok = decode_frame({box.bytes.data(), ref.offset + ref.len},
                                   off, seq, scratch_);
      TS_REQUIRE(ok && seq == ref.seq);  // pristine store, by construction
      ++decoded_;
      ++stats_.frames_delivered;
      inner_->post(std::move(scratch_));
    }
    box.bytes.clear();
    box.manifest.clear();
  }

  FaultPlan plan_;
  std::unique_ptr<Transport> inner_;
  std::vector<DstBox> box_;
  std::vector<int> listed_;  // boxes with frames posted or in flight
  FaultStats stats_;
  bool degraded_ = false;
  double p_drop_ = 0.0, p_dup_ = 0.0, p_corrupt_ = 0.0, p_delay_ = 0.0;
  std::int64_t encoded_ = 0;
  std::int64_t decoded_ = 0;
  Message scratch_;
  Message corrupt_msg_;
  std::vector<std::uint8_t> corrupt_scratch_;
};

// TREESCHED_FAULTS, read once per process (same hook pattern as
// TREESCHED_TRANSPORT).  Returns nullptr when unset/empty.
const FaultPlan* env_fault_plan() {
  static const FaultPlan* plan = []() -> const FaultPlan* {
    const char* env = std::getenv("TREESCHED_FAULTS");
    if (env == nullptr || *env == '\0') return nullptr;
    static const FaultPlan parsed = parse_fault_plan(env);
    return &parsed;
  }();
  return plan;
}

}  // namespace

std::unique_ptr<Transport> make_transport(TransportKind kind, int num_nodes,
                                          const FaultPlan* faults) {
  TS_REQUIRE(num_nodes > 0);
  // Only a default-kind request (or an explicit kFaulty) may be wrapped
  // by the environment: explicitly requested concrete backends keep
  // their exact semantics even under TREESCHED_FAULTS, so the env-driven
  // fault CI job doesn't disturb explicit-kind tests.
  const bool env_eligible =
      kind == TransportKind::kDefault || kind == TransportKind::kFaulty;
  const TransportKind resolved = resolve_transport_kind(kind);
  FaultPlan plan;
  bool faulty = resolved == TransportKind::kFaulty;
  if (faults != nullptr && faults->any()) {
    plan = *faults;
    if (resolved != TransportKind::kFaulty) plan.inner = resolved;
    faulty = true;
  } else if (env_eligible) {
    if (const FaultPlan* env = env_fault_plan()) {
      plan = *env;
      if (resolved != TransportKind::kFaulty) plan.inner = resolved;
      faulty = true;
    }
  }
  if (faulty) return std::make_unique<FaultyTransport>(plan, num_nodes);
  return make_concrete(resolved, num_nodes);
}

}  // namespace treesched
