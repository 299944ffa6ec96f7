// The four distributed schedulers of the paper, as modeled runs of the
// two-phase engine with the round-counting Luby oracle:
//
//   solve_tree_unit_distributed       Theorem 5.3  trees, unit heights,
//                                     bound (Delta+1)/lambda  <= 7+eps
//   solve_tree_arbitrary_distributed  Theorem 6.3  trees, arbitrary
//                                     heights, wide/narrow split, bound
//                                     ((Delta+1) + (1+2 Delta^2))/lambda
//                                     <= 80+eps
//   solve_line_unit_distributed       Theorem 7.1  lines, unit, <= 4+eps
//   solve_line_arbitrary_distributed  Theorem 7.2  lines, arbitrary,
//                                     <= 23+eps
//
// "Modeled" means the dual state is kept centrally while every
// communication-relevant event is accounted exactly as the protocol would
// spend it: each MIS costs the Luby oracle's 2 rounds per iteration and
// each step one extra dual-propagation round.  Messages and bytes are
// counted only by the message-level counterpart, which actually puts
// these bits on the wire (dist/protocol_scheduler.hpp); the modeled form
// is what benchmarks and large-scale runs use.
//
// Every wrapper reports proven_ratio_bound (framework/certify.hpp) at
// the *observed* Delta of the run, which can be smaller than the
// theorem's worst case (ideal decomposition: Delta <= 6; lines: Delta <=
// 3) — the bound is then better, never worse.  It is scaled by the path
// capacity spread rho: the bounds above are its rho = 1 values, and on
// unit heights the wrappers report what solve_nonuniform_unit does.  The
// arbitrary-height wrappers on capacities other than 1 lie outside the
// documented non-uniform regimes (unit heights, all-narrow): they report
// the same rho-scaled formula, whose proof there is open.
// The *message-level* counterparts (run_*_protocol below) execute the
// same theorems as real messages on the synchronous runtime via
// dist/protocol_scheduler.hpp — rendezvous discovery, sharded duals,
// fixed schedules — and report the same bound.  The
// protocol parity suite holds each wrapper to exact (==) agreement with
// its modeled twin driven by the ProtocolLubyMis mirror oracle.
#pragma once

#include <cstdint>

#include "decomp/layered.hpp"
#include "decomp/tree_decomposition.hpp"
#include "dist/protocol_scheduler.hpp"
#include "framework/two_phase.hpp"
#include "model/problem.hpp"
#include "model/solution.hpp"

namespace treesched {

struct DistOptions {
  double epsilon = 0.1;  // target slackness 1-eps (multi-stage mode)
  std::uint64_t seed = 1;
  // Tree decomposition backing the layered plan (tree solvers only).
  DecompKind decomp = DecompKind::kIdeal;
  // kMultiStage = this paper; kSingleStagePS = Panconesi-Sozio baseline
  // with lambda = 1/(5+eps).
  StageMode stage_mode = StageMode::kMultiStage;
};

struct DistResult {
  Solution solution;
  SolveStats stats;
  double profit = 0.0;
  double ratio_bound = 0.0;  // proven approximation factor of this run
};

// Theorem 5.3 (requires unit heights).
DistResult solve_tree_unit_distributed(const Problem& problem,
                                       const DistOptions& options = {});

// Theorem 6.3 (any heights; wide/narrow split internally).
DistResult solve_tree_arbitrary_distributed(const Problem& problem,
                                            const DistOptions& options = {});

// Theorem 7.1 (requires unit heights; line layered plan, Delta <= 3).
DistResult solve_line_unit_distributed(const Problem& problem,
                                       const DistOptions& options = {});

// Theorem 7.2 (any heights; line layered plan).
DistResult solve_line_arbitrary_distributed(const Problem& problem,
                                            const DistOptions& options = {});

// Message-level theorem wrappers ---------------------------------------------
//
// Each runs the corresponding theorem as a real protocol (bits on the
// wire) and reports the ratio bound the run certifies.  The bound uses
// lambda = min(1 - eps, observed lambda): when the fixed budgets achieve
// the target slackness (schedule_ok, the w.h.p. case) this is exactly
// the modeled wrappers' bound; when they fall short, the observed
// slackness still certifies a (weaker, but sound) bound — and an
// observed lambda of 0 yields +infinity, never a false certificate.

struct ProtocolDistResult {
  ProtocolRunResult run;
  double profit = 0.0;
  double ratio_bound = 0.0;  // proven approximation factor of this run
};

// Theorem 5.3, message-level (requires unit heights).
ProtocolDistResult run_tree_unit_protocol(const Problem& problem,
                                          const ProtocolOptions& options = {},
                                          DecompKind decomp = DecompKind::kIdeal);

// Theorem 6.3, message-level (any heights; two-pass wide/narrow split).
ProtocolDistResult run_tree_arbitrary_protocol(
    const Problem& problem, const ProtocolOptions& options = {},
    DecompKind decomp = DecompKind::kIdeal);

// Theorem 7.1, message-level (requires unit heights; line plan).
ProtocolDistResult run_line_unit_protocol(const Problem& problem,
                                          const ProtocolOptions& options = {});

// Theorem 7.2, message-level (any heights; line plan, two-pass split).
ProtocolDistResult run_line_arbitrary_protocol(
    const Problem& problem, const ProtocolOptions& options = {});

// Non-uniform bandwidths, message-level (DESIGN.md Sec. 6 / the IPDPS
// 2013 extension): kUnit for unit-height problems, kNarrow otherwise,
// each in its regime (check_nonuniform_regime, capacity/nonuniform.hpp,
// throws a diagnostic outside it); the same bound as
// solve_nonuniform_{unit,narrow} and, on unit heights, as
// run_{tree,line}_unit_protocol.
ProtocolDistResult run_nonuniform_protocol(
    const Problem& problem, const ProtocolOptions& options = {},
    bool line = false, DecompKind decomp = DecompKind::kIdeal);

}  // namespace treesched
