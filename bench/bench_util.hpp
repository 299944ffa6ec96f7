// Shared helpers for the experiment binaries.  Every bench prints the
// paper claim it regenerates, one or more ASCII tables, and (for the
// figures) a series suitable for plotting; EXPERIMENTS.md records the
// output.  All workloads are seeded, so reruns reproduce the tables.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "dist/protocol_scheduler.hpp"
#include "exact/branch_and_bound.hpp"
#include "model/problem.hpp"
#include "model/solution.hpp"

namespace treesched::benchutil {

// One measurement record of a bench run: metric name -> value (e.g.
// {"seed", 3}, {"rounds", 120}, {"ratio", 1.4}, {"profit", 659.0}).
using JsonRecord = std::vector<std::pair<std::string, double>>;

// Writes `runs` to BENCH_<bench_id>.json as a JSON array of flat objects
// — the machine-readable twin of the ASCII tables, consumed by the perf
// trajectory tooling.  Values are emitted with enough precision to
// round-trip doubles.
inline void emit_json(const std::string& bench_id,
                      const std::vector<JsonRecord>& runs) {
  const std::string path = "BENCH_" + bench_id + ".json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "emit_json: cannot write %s\n", path.c_str());
    return;
  }
  os << "[\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    os << "  {";
    for (std::size_t f = 0; f < runs[r].size(); ++f) {
      char value[64];
      // inf/nan are not valid JSON; emit null so one degenerate metric
      // cannot invalidate the whole file.
      if (std::isfinite(runs[r][f].second))
        std::snprintf(value, sizeof(value), "%.17g", runs[r][f].second);
      else
        std::snprintf(value, sizeof(value), "null");
      os << (f ? ", " : "") << '"' << runs[r][f].first << "\": " << value;
    }
    os << (r + 1 < runs.size() ? "},\n" : "}\n");
  }
  os << "]\n";
  std::printf("wrote %s (%zu runs)\n", path.c_str(), runs.size());
}

inline void print_claim(const std::string& id, const std::string& claim) {
  std::printf("%s\n%s\n", std::string(72, '=').c_str(), id.c_str());
  std::printf("claim: %s\n%s\n", claim.c_str(), std::string(72, '=').c_str());
}

// Measured approximation ratio against a reference optimum (or certified
// upper bound): >= 1, lower is better.
inline double ratio(Profit reference, Profit achieved) {
  if (achieved <= 0.0) return reference > 0.0 ? 1e9 : 1.0;
  return reference / achieved;
}

// Asserts feasibility; aborts the bench loudly otherwise (a bench that
// silently reports an infeasible schedule would be worse than useless).
inline Profit checked_profit(const Problem& problem,
                             const Solution& solution) {
  const auto report = check_feasibility(problem, solution);
  if (!report.feasible) {
    std::fprintf(stderr, "BENCH ERROR: infeasible solution: %s\n",
                 report.violation.c_str());
    std::abort();
  }
  return solution.profit(problem);
}

// Vendored kernel timer: runs `fn` until at least `min_iters`
// iterations and `min_seconds` of wall clock have elapsed, and returns
// the mean nanoseconds per iteration.  Deliberately simple — no
// statistical outlier handling — and built everywhere.
template <typename Fn>
inline double time_kernel_ns(Fn&& fn, int min_iters = 3,
                             double min_seconds = 0.2) {
  using clock = std::chrono::steady_clock;
  // The clock is read once per batch of min_iters calls, not once per
  // call — a per-iteration now() would inflate ns/op for fast kernels.
  const int batch = min_iters > 0 ? min_iters : 1;
  const auto start = clock::now();
  long long iters = 0;
  double seconds = 0.0;
  do {
    for (int b = 0; b < batch; ++b) fn();
    iters += batch;
    seconds = std::chrono::duration<double>(clock::now() - start).count();
  } while (seconds < min_seconds);
  return seconds * 1e9 / static_cast<double>(iters);
}

// Appends the standard message-level protocol fields to a JSON record:
// the wire counters with the discovery byte breakdown, plus the budget
// sufficiency flags.  mis_ok/schedule_ok are emitted as 0/1 and join the
// row *key* in tools/perf_trajectory.py, so a run whose fixed budgets
// silently stopped sufficing re-keys its rows and fails the perf gate.
inline void append_protocol_fields(JsonRecord& row,
                                   const ProtocolRunResult& run) {
  if (!run.mis_ok)
    std::fprintf(stderr,
                 "WARNING: Luby budget exhausted with undecided nodes "
                 "(mis_ok=0) — the protocol run degraded; the re-keyed "
                 "row will fail the perf-trajectory gate\n");
  row.emplace_back("protocol_rounds", static_cast<double>(run.rounds));
  row.emplace_back("protocol_messages", static_cast<double>(run.messages));
  row.emplace_back("protocol_bytes", static_cast<double>(run.bytes));
  row.emplace_back("discovery_bytes",
                   static_cast<double>(run.discovery_bytes));
  row.emplace_back("discovery_reply_bytes",
                   static_cast<double>(run.discovery_reply_bytes));
  row.emplace_back("mis_ok", run.mis_ok ? 1.0 : 0.0);
  row.emplace_back("schedule_ok", run.schedule_ok ? 1.0 : 0.0);
}

// Aggregates per-seed ratio/round measurements into one table row.
struct Aggregate {
  RunningStats ratio_vs_opt;   // only when exact opt available
  RunningStats ratio_vs_cert;  // profit vs certified dual bound
  RunningStats rounds;
  RunningStats steps;
  RunningStats profit;

  void row(Table& table, const std::string& name, double bound) const {
    table.add_row({name,
                   ratio_vs_opt.count() ? fmt(ratio_vs_opt.mean(), 3) : "-",
                   ratio_vs_opt.count() ? fmt(ratio_vs_opt.max(), 3) : "-",
                   fmt(ratio_vs_cert.mean(), 3), fmt(bound, 2),
                   fmt(rounds.mean(), 0)});
  }

  static std::vector<std::string> header() {
    return {"algorithm", "ratio(mean)", "ratio(worst)", "cert-gap(mean)",
            "proven-bound", "rounds(mean)"};
  }
};

}  // namespace treesched::benchutil
