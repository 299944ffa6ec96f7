// Deterministic synchronous message-passing runtime (paper, Section 1:
// the standard synchronous model — computation proceeds in rounds, and a
// message sent in round t is readable at round t+1, never earlier).
//
// The runtime hosts n nodes connected by symmetric, idempotent channels
// (connect(a,b) == connect(b,a); reconnecting is a no-op).  Protocols
// post() messages during a round; step() advances the round boundary and
// delivers everything posted since the previous boundary into the
// receivers' inboxes, which drain() empties.  Nothing is ever delivered
// mid-round, so a protocol on this runtime cannot accidentally exploit
// information it would not have in the real synchronous model.
//
// The runtime is also the accounting surface for the paper's complexity
// claims: round(), messages_sent() and bytes_sent() are the quantities
// Theorems 5.3/6.3/7.1/7.2 bound.  A message is charged a 16-byte header
// (from, to, tag, length) plus 8 bytes per double of payload — the O(M)
// bits per message the paper assumes.
//
// How messages actually move is the pluggable part: the Runtime is a
// thin round-discipline shell (channels, round barrier, accounting,
// trace hooks) over a Transport backend (dist/transport.hpp).  The
// default in-proc backend shuffles vectors; the serialized backends
// put real bytes through the message codec, making the byte counters
// serialization facts instead of a model.  Every backend is held to
// bit-for-bit identical counters and results by the transport-axis
// parity tests.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/prelude.hpp"
#include "dist/transport.hpp"

namespace treesched {

class Runtime {
 public:
  // `transport` picks the backend; kDefault resolves through the
  // TREESCHED_TRANSPORT environment hook (unset -> in-proc).  A
  // non-null `faults` with a non-empty plan wraps the backend in the
  // kFaulty recovery layer (see make_transport for the env interplay).
  explicit Runtime(int num_nodes,
                   TransportKind transport = TransportKind::kDefault,
                   const FaultPlan* faults = nullptr);
  // Closes a trailing idle stretch in the trace (see note_round).
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Opens the symmetric channel {a, b}.  Idempotent; a != b.
  void connect(int a, int b);
  bool connected(int a, int b) const;

  // Sorted neighbor list of `node` (one entry per channel).
  const std::vector<int>& channels(int node) const;

  // Queues `m` for delivery at the next round boundary.  Requires an open
  // channel between m.from and m.to.  Single-threaded, like step().
  void post(Message m);

  // Advances the round boundary: every message posted since the previous
  // step() becomes visible in its receiver's inbox.  Driver-side only.
  // Costs O(messages posted since the previous step + 1), so a round
  // with nothing posted costs O(1) — but one call per round.
  void step();

  // Advances `rounds` silent round boundaries at once: exactly the round
  // count, inboxes, transport state and counters (FaultStats included:
  // kFaulty's delayed originals tick and settle), and the same wire/idle
  // trace accounting, as `rounds` step() calls with nothing posted.
  // Costs O(frames in flight + 1) whatever `rounds` is.  Requires
  // nothing posted since the last step(); rounds >= 0.  The protocol
  // scheduler charges its silent tuples through it.
  void advance_idle(std::int64_t rounds);

  // Removes and returns the inbox of `node` (messages delivered by past
  // step() calls, in posting order).  The returned vector comes from the
  // free list fed by recycle(), so a drain/recycle loop is steady-state
  // allocation-free on the serialized backends.
  std::vector<Message> drain(int node);

  // Returns a drained inbox to the free list for reuse by a later
  // drain().  Optional — dropping the vector is always correct — but the
  // hot loops (Luby rounds, raise propagation) recycle so their per-round
  // allocation churn is zero once buffers have grown to size.
  void recycle(std::vector<Message> inbox);

  // Drains every node holding undrained mail, and only those: calls
  // visit(node, inbox) with each such node's inbox (posting order), then
  // recycles it.  Nodes come in the order they were first sent mail
  // since the previous sweep.  Costs O(nodes with mail + 1), so a
  // driver's per-tuple "drain everyone" sweep stays proportional to the
  // traffic instead of to num_nodes().  A node whose mail was posted but
  // lost in transit (kFaulty, retransmit budget exhausted) is visited
  // with an empty inbox.  `visit` may post and drain, but must not
  // step() or start another sweep.
  template <typename Visit>
  void drain_mail(Visit&& visit) {
    for (const int v : mail_) {
      std::uint8_t& flags = node_flags_[static_cast<std::size_t>(v)];
      flags &= static_cast<std::uint8_t>(~kListed);
      if (!(flags & kHasMail)) continue;  // drained directly meanwhile
      std::vector<Message> inbox = drain(v);
      visit(v, std::as_const(inbox));
      recycle(std::move(inbox));
    }
    mail_.clear();
  }

  int num_nodes() const { return num_nodes_; }
  std::int64_t round() const { return round_; }
  std::int64_t messages_sent() const { return messages_sent_; }
  std::int64_t bytes_sent() const { return bytes_sent_; }

  // The resolved backend, and its codec-hit counters (zero on the
  // in-proc path; == messages_sent on the serialized paths once every
  // inbox is drained).
  TransportKind transport_kind() const { return transport_->kind(); }
  std::int64_t codec_encoded() const { return transport_->codec_encoded(); }
  std::int64_t codec_decoded() const { return transport_->codec_decoded(); }

  // Fault-injection observability (kFaulty backend only; nullptr /
  // false elsewhere).  Note the logical counters above are charged at
  // post(), *before* the transport touches the message — so
  // messages_sent/bytes_sent are fault-independent by construction,
  // which is half of the bit-identical-under-masking invariant.
  const FaultStats* fault_stats() const { return transport_->fault_stats(); }
  bool degraded() const { return transport_->degraded(); }

 private:
  // Per-node bookkeeping of the mail sets, one byte per node.
  static constexpr std::uint8_t kStaged = 1;   // posted to this round
  static constexpr std::uint8_t kHasMail = 2;  // delivered, not drained
  static constexpr std::uint8_t kListed = 4;   // on mail_

  bool valid(int node) const { return node >= 0 && node < num_nodes(); }
  // Flight-recorder hooks (obs): per-tag message/byte counters, a span
  // per round that carried traffic, and one span per idle stretch.
  // note_boundary accounts one round boundary; an idle one only
  // lengthens the current stretch.
  // Called only while tracing is enabled; pure observation — no field of
  // the complexity accounting depends on them.
  void note_post(int tag, std::int64_t bytes);
  void note_boundary();
  void note_round();
  void close_idle_stretch(std::int64_t end_ns);

  int num_nodes_ = 0;
  std::vector<std::vector<int>> adjacency_;   // sorted neighbor lists
  std::unique_ptr<Transport> transport_;      // the message movement
  std::vector<std::vector<Message>> free_list_;  // recycled inboxes
  std::vector<std::uint8_t> node_flags_;      // kStaged | kHasMail | kListed
  std::vector<int> staged_;  // nodes posted to since the last step()
  std::vector<int> mail_;    // nodes listed for the next drain_mail()
  std::int64_t round_ = 0;
  std::int64_t messages_sent_ = 0;
  std::int64_t bytes_sent_ = 0;
  // Trace marks: where the current round (or idle stretch) began (-1 =
  // tracing was off at the last boundary, so the next boundary only
  // re-arms), the counter values at the last traffic round's close, and
  // the idle rounds since.
  std::int64_t round_mark_ns_ = -1;
  std::int64_t mark_messages_ = 0;
  std::int64_t mark_bytes_ = 0;
  std::int64_t idle_rounds_ = 0;
};

}  // namespace treesched
