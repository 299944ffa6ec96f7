#include "dist/runtime.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

Runtime::Runtime(int num_nodes, TransportKind transport,
                 const FaultPlan* faults)
    : num_nodes_(num_nodes),
      adjacency_(static_cast<std::size_t>(num_nodes)),
      transport_(make_transport(transport, num_nodes, faults)),
      node_flags_(static_cast<std::size_t>(num_nodes), 0) {
  TS_REQUIRE(num_nodes > 0);
  if (obs::tracing_enabled()) round_mark_ns_ = obs::trace_now_ns();
}

Runtime::~Runtime() {
  if (idle_rounds_ > 0 && obs::tracing_enabled())
    close_idle_stretch(obs::trace_now_ns());
}

void Runtime::connect(int a, int b) {
  TS_REQUIRE(valid(a) && valid(b) && a != b);
  auto& na = adjacency_[static_cast<std::size_t>(a)];
  const auto it = std::lower_bound(na.begin(), na.end(), b);
  if (it != na.end() && *it == b) return;  // idempotent
  na.insert(it, b);
  auto& nb = adjacency_[static_cast<std::size_t>(b)];
  nb.insert(std::lower_bound(nb.begin(), nb.end(), a), a);
}

bool Runtime::connected(int a, int b) const {
  if (!valid(a) || !valid(b)) return false;
  const auto& na = adjacency_[static_cast<std::size_t>(a)];
  return std::binary_search(na.begin(), na.end(), b);
}

const std::vector<int>& Runtime::channels(int node) const {
  TS_REQUIRE(valid(node));
  return adjacency_[static_cast<std::size_t>(node)];
}

void Runtime::post(Message m) {
  TS_REQUIRE(valid(m.from) && valid(m.to));
  TS_REQUIRE(connected(m.from, m.to));
  ++messages_sent_;
  // 16-byte header (from, to, tag, length) + 8 bytes per payload double —
  // the exact size the serialized codec produces.
  const std::int64_t bytes = message_wire_bytes(m);
  bytes_sent_ += bytes;
  if (obs::tracing_enabled()) note_post(m.tag, bytes);
  std::uint8_t& flags = node_flags_[static_cast<std::size_t>(m.to)];
  if (!(flags & kStaged)) {
    flags |= kStaged;
    staged_.push_back(m.to);
  }
  transport_->post(std::move(m));
}

void Runtime::step() {
  if (obs::tracing_enabled()) {
    // An idle round reads no clock and records nothing: it only
    // lengthens the current idle stretch (see note_round).
    if (messages_sent_ == mark_messages_ && round_mark_ns_ >= 0)
      ++idle_rounds_;
    else
      note_round();
  }
  ++round_;
  transport_->flush();
  // This round's receivers now hold mail (kFaulty may still have lost
  // it; they then drain empty).
  for (const int v : staged_) {
    std::uint8_t& flags = node_flags_[static_cast<std::size_t>(v)];
    flags = static_cast<std::uint8_t>((flags & ~kStaged) | kHasMail);
    if (!(flags & kListed)) {
      flags |= kListed;
      mail_.push_back(v);
    }
  }
  staged_.clear();
}

void Runtime::note_post(int tag, [[maybe_unused]] std::int64_t bytes) {
  // The first message after an idle stretch ends the stretch: its
  // round's span starts here.
  if (idle_rounds_ > 0) close_idle_stretch(obs::trace_now_ns());
  TRACE_HIST("wire.bytes_per_message", bytes);
  // Per-tag counters via the macros' cached handles: the registry map
  // is consulted once per (site, tag), not once per message.  Tag
  // values: see protocol_scheduler.cpp / luby_mis.cpp / discovery.cpp.
  switch (tag) {
    case 0:
      TRACE_COUNTER("wire.messages.luby_draw", 1);
      TRACE_COUNTER("wire.bytes.luby_draw", bytes);
      break;
    case 1:
      TRACE_COUNTER("wire.messages.luby_winner", 1);
      TRACE_COUNTER("wire.bytes.luby_winner", bytes);
      break;
    case 2:
      TRACE_COUNTER("wire.messages.raise", 1);
      TRACE_COUNTER("wire.bytes.raise", bytes);
      break;
    case 3:
      TRACE_COUNTER("wire.messages.keep", 1);
      TRACE_COUNTER("wire.bytes.keep", bytes);
      break;
    case 10:
      TRACE_COUNTER("wire.messages.register", 1);
      TRACE_COUNTER("wire.bytes.register", bytes);
      break;
    case 11:
      TRACE_COUNTER("wire.messages.bucket", 1);
      TRACE_COUNTER("wire.bytes.bucket", bytes);
      break;
    default:
      TRACE_COUNTER("wire.messages.other", 1);
      TRACE_COUNTER("wire.bytes.other", bytes);
      break;
  }
}

void Runtime::note_round() {
  // Close the span of the round with traffic that just elapsed (mark ->
  // now) with the message/byte deltas it produced, then re-arm for the
  // next one.  With the idle stretches (step() counts them, note_post
  // closes them), every stepped round is accounted for: round spans +
  // the idle spans' "rounds" == rounds stepped.  A mark of -1 means
  // tracing was enabled mid-run: just arm.  The span name carries the
  // backend ("round", "round.serialized", ...), so a trace shows which
  // wire the rounds ran on.
  const std::int64_t now = obs::trace_now_ns();
  if (round_mark_ns_ >= 0) {
    obs::record_complete_span("wire", transport_->round_span_name(),
                              round_mark_ns_, now - round_mark_ns_,
                              "messages", messages_sent() - mark_messages_,
                              "bytes", bytes_sent() - mark_bytes_);
  }
  round_mark_ns_ = now;
  mark_messages_ = messages_sent();
  mark_bytes_ = bytes_sent();
}

void Runtime::close_idle_stretch(std::int64_t end_ns) {
  obs::record_complete_span("wire", "idle", round_mark_ns_,
                            end_ns - round_mark_ns_, "rounds", idle_rounds_);
  idle_rounds_ = 0;
  round_mark_ns_ = end_ns;
}

std::vector<Message> Runtime::drain(int node) {
  TS_REQUIRE(valid(node));
  node_flags_[static_cast<std::size_t>(node)] &=
      static_cast<std::uint8_t>(~kHasMail);
  std::vector<Message> out;
  if (!free_list_.empty()) {
    out = std::move(free_list_.back());
    free_list_.pop_back();
  }
  transport_->drain(node, out);
  return out;
}

void Runtime::recycle(std::vector<Message> inbox) {
  // Keep the vector as-is (stale messages included): the backends
  // overwrite recycled slots in place, so clearing here would throw the
  // payload capacity away.
  free_list_.push_back(std::move(inbox));
}

}  // namespace treesched
