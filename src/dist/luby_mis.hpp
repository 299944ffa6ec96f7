// Luby's randomized maximal-independent-set algorithm (paper, Section 5:
// the T_MIS = O(log n) factor of Theorem 5.3), in two forms.
//
// run_luby_protocol() is the *message-level* implementation: one Runtime
// node per member instance.  It first learns the conflict neighborhoods
// through the 2-round edge-owner rendezvous of dist/discovery.hpp — no
// global conflict graph is ever built — then runs the Luby loop on the
// discovered adjacency.  Each iteration costs exactly 2 synchronous
// rounds — round 1 exchanges the random draws, round 2 notifies
// neighbors of the winners — and a node joins the MIS when its
// (draw, id) key beats every live neighbor's.  Losers adjacent to a
// winner retire; the loop ends when every node has decided.  Isolated
// nodes win in the first iteration without sending anything, so a
// conflict-free member set finishes in 2 discovery rounds + 2 Luby
// rounds with only the registration messages on the wire.
//
// LubyMis is the production oracle the two-phase engine consumes
// (framework/two_phase.hpp).  It runs the same iteration structure but on
// the *implicit* conflict cliques (per-edge and per-demand minima) instead
// of an explicit graph — O(sum path length) per iteration, no graph
// construction — and reports the same round accounting: MisResult.rounds
// = 2 rounds per iteration.  Both forms are deterministic by seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "common/rng.hpp"
#include "dist/runtime.hpp"
#include "framework/two_phase.hpp"
#include "model/problem.hpp"

namespace treesched {

// Message tags of the Luby protocol rounds.
inline constexpr int kLubyTagDraw = 0;    // payload: {draw value}
inline constexpr int kLubyTagWinner = 1;  // payload: {}

// Per-processor private random streams: SplitMix64 expands one seed into
// `count` independent Rng streams, one per node, so a node's draws do not
// depend on the order anyone iterates the nodes in.  The message-level
// protocol and its modeled twin (ProtocolLubyMis below) both build their
// streams through this one helper, which is what makes their Luby
// decisions — and hence the protocol-vs-engine parity suite's exact
// comparisons — reproducible from the seed alone.
std::vector<Rng> make_node_streams(std::uint64_t seed, int count);

// The protocol scheduler's default Luby iteration budget: 2*ceil(log2 n)
// + 2 iterations decide every node w.h.p. (Luby's analysis).  Exposed so
// the modeled mirror oracle and the tests derive the same number.
int default_luby_budget(int n);

// Adaptive budget retry: when a fixed-budget MIS stage ends with
// undecided nodes, the stage re-runs with the budget doubled (2x, then
// 4x, ...) up to this many attempts before accepting the leftover as
// undecided — the starved stage recovers instead of silently degrading
// into mis_ok=false.  Shared default of the modeled oracle
// (ProtocolLubyMis) and the wire protocol (ProtocolOptions) so their
// lockstep parity is preserved.
inline constexpr int kDefaultMisMaxRetries = 2;

// Outcome of a message-level Luby run: selected member indexes plus the
// Runtime's accounting, with the discovery share broken out (totals
// include it) and the transport backend's codec hits (zero in-proc; ==
// messages on the serialized wires, every message really encoded and
// decoded).
struct ProtocolResult {
  std::vector<int> selected;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t discovery_rounds = 0;
  std::int64_t discovery_messages = 0;
  std::int64_t discovery_bytes = 0;
  TransportKind transport = TransportKind::kInProc;
  std::int64_t codec_encoded = 0;
  std::int64_t codec_decoded = 0;
  // Recovery-layer observability (kFaulty backend only; zero/false
  // elsewhere).  degraded means at least one frame exhausted its
  // retransmit budget — the selection is then a partial result.
  FaultStats fault;
  bool degraded = false;
};

// One message-level Luby iteration (exactly 2 synchronous rounds) over
// the live subset of `nodes`: every live node draws via its private rng,
// exchanges the draw with its live neighbors, the strict minima of
// (draw, id) over their live neighborhoods win and notify, and every
// decided node — winner or notified loser — leaves `live`.  Returns the
// iteration's winners.  `neighbors`, `live`, `draw` and `node_rng` are
// indexed by member index; `neighbors` is typically
// DiscoveredNeighborhoods::neighbors.  Shared by run_luby_protocol
// (adaptive loop) and the fixed-budget protocol scheduler so the two
// message-level paths cannot drift apart.
std::vector<int> luby_iteration(std::span<const std::vector<int>> neighbors,
                                Runtime& rt, std::span<const int> nodes,
                                std::vector<char>& live,
                                std::vector<double>& draw,
                                std::vector<Rng>& node_rng);

// Luby's MIS as a real protocol on the synchronous runtime: rendezvous
// discovery first, then 2 rounds per iteration on the discovered
// neighborhoods.  `members` are distinct instances of `problem`;
// selected entries are member indexes.  Deterministic by seed, and
// bit-identical (selection and counters) on every transport backend.
ProtocolResult run_luby_protocol(
    const Problem& problem, std::span<const InstanceId> members,
    std::uint64_t seed, TransportKind transport = TransportKind::kDefault,
    const FaultPlan* faults = nullptr);

// One Luby iteration over the implicit conflict cliques: the body both
// modeled oracles below run, which differ only in where the draws come
// from.  An instance wins iff its (draw, id) key is the strict minimum of
// every clique it belongs to (its demand and each edge of its path) —
// exactly "my key beats every live conflicting neighbor's", since the
// neighborhood is the union of the instance's cliques.  O(sum path
// length) per iteration; the scratch is stamped per iteration, so it is
// never cleared.
class CliqueLuby {
 public:
  explicit CliqueLuby(const Problem& problem);

  // `draw[k]` is live[k]'s draw.  Appends the winners to `selected` in
  // live order, then shrinks `live` to the candidates that conflict with
  // no winner.
  void iterate(std::vector<InstanceId>& live, std::span<const double> draw,
               std::vector<InstanceId>& selected);

 private:
  struct Key {
    double value = 0.0;
    InstanceId id = kNoInstance;
    bool operator<(const Key& o) const {
      return value < o.value || (value == o.value && id < o.id);
    }
    bool operator==(const Key& o) const {
      return value == o.value && id == o.id;
    }
  };

  const Problem* problem_;
  // Per-edge / per-demand minimum key over the live candidates, and the
  // cliques a winner kills, each valid only where stamped this iteration.
  std::vector<Key> edge_min_, demand_min_;
  std::vector<int> edge_stamp_, demand_stamp_;
  std::vector<int> edge_kill_, demand_kill_;
  std::vector<InstanceId> next_;
  int stamp_ = 0;
};

// Round-counting Luby oracle over the implicit conflict cliques.  One
// instance is stateful: successive run() calls consume the same random
// stream, so a whole engine run is reproducible from the seed.
class LubyMis : public MisOracle {
 public:
  LubyMis(const Problem& problem, std::uint64_t seed);

  MisResult run(std::span<const InstanceId> candidates) override;

 private:
  Rng rng_;
  CliqueLuby cliques_;
};

// The modeled twin of the protocol scheduler's budgeted Luby loop: a
// MisOracle whose decisions are bit-identical to what the message-level
// protocol computes on the wire.  Three properties make that exact:
//
//  * draws come from *per-instance* streams (make_node_streams), exactly
//    the streams the protocol's runtime nodes hold — so a draw depends
//    only on (seed, instance, how often that instance has drawn), never
//    on iteration order;
//  * each run() spends exactly `luby_budget` iterations (stopping early
//    only once every candidate has decided, which consumes no further
//    draws — undecided leftovers are simply not selected, mirroring the
//    protocol's fixed schedule);
//  * the winner rule is the per-clique strict minimum of (draw, id),
//    which equals "my key beats every live conflicting neighbor's" on
//    the discovered neighborhoods.
//
// Feeding this oracle to the two-phase engine in lockstep mode replays
// the protocol's entire raise sequence, which is what the protocol
// parity suite (tests/test_protocol_parity.cpp) compares with ==.
class ProtocolLubyMis : public MisOracle {
 public:
  // `luby_budget` <= 0 derives default_luby_budget(num_instances).
  // `max_retries` bounds the adaptive budget retry: a run() whose fixed
  // budget ends with undecided candidates re-runs with the budget
  // doubled per attempt (2x, 4x, ...), up to max_retries attempts,
  // reporting the attempts in MisResult::retries and the extra
  // iterations in MisResult::rounds.  0 restores the old silent-degrade
  // behavior.
  ProtocolLubyMis(const Problem& problem, std::uint64_t seed,
                  int luby_budget = 0, int max_retries = kDefaultMisMaxRetries);

  MisResult run(std::span<const InstanceId> candidates) override;

  int luby_budget() const { return budget_; }
  int max_retries() const { return max_retries_; }

 private:
  int budget_ = 1;
  int max_retries_ = kDefaultMisMaxRetries;
  std::vector<Rng> streams_;  // one per instance
  CliqueLuby cliques_;
};

}  // namespace treesched
