// Shared plumbing of perfbench_measure, the end-to-end benchmark's
// measuring program: the command-line options, the report one run prints
// as JSON, and timing helpers.
//
// A run replays one seed-fixed sequence of operations in laps until
// --seconds have passed.  Every lap is the same work, so run.py can take
// each operation's fastest lap: a shared host slows whole stretches of a
// run by up to 2x, and a lap that missed them measures the program.  This
// program measures; run.py turns the raw samples into the metrics.  Every
// operation is timed with steady_clock around one public call of the
// library, and every output is checked outside the timed region
// (Report::attempt counts the checks into attempted/failed).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/problem.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double ms_of_ns(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}

double median(std::vector<double> values);

// Calls lap(k) for k = 0, 1, ... until `seconds` have passed and at least
// `min_laps` laps ran.
template <typename Lap>
void run_laps(double seconds, int min_laps, Lap&& lap) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int k = 0; k < min_laps || Clock::now() < deadline; ++k) lap(k);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the run keeps its journals, snapshots and trace file.
  std::string workdir;
};

struct Report {
  // Wall time of each of the run's set-ups.
  std::vector<double> setup_s;
  // Wall time of every operation (ms), one row per lap of the untraced
  // pass; every end-to-end timing comes from these.
  std::vector<std::vector<double>> laps;
  // The same for the traced pass (--trace 1 only).
  std::vector<std::vector<double>> traced_laps;
  // Per operation of a lap: the batch's arrivals + departures on the
  // online workloads (the unit of their capacity), 1 elsewhere.
  std::vector<double> events;
  // Mean share of the offered profit the schedules admit, over the first
  // lap: it repeats exactly for one seed.
  double profit_share = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  // Per-layer metrics (--trace 1 only), in the order they were set.
  std::vector<std::pair<std::string, double>> layers;

  // Counts one checked operation; a failed check is logged to stderr.
  void attempt(bool ok, const std::string& what);
  void layer(const std::string& name, double value);
};

// Sums the durations of the spans the recorder holds by "category/name",
// so a traced pass can attribute span time per operation.
class SpanTotals {
 public:
  void harvest();
  double ms(const std::string& key) const;

 private:
  std::map<std::string, double> ms_;
};

// Registry-derived engine shares of a traced pass: the worker pool's busy
// share and the largest conflict component's size.  Zero when the pool
// never ran (threads 1).
double worker_busy_share();
double largest_component_size();

// Peak resident set of this process, in MB.
double peak_rss_mb();

// Total profit of the problem's demands; with `live` (per instance), of
// the demands with a live instance.
double offered_profit(const treesched::Problem& problem,
                      const std::vector<char>* live = nullptr);

Report run_batch_line(const Options& options);
Report run_online(const Options& options, bool dense);
Report run_protocol_wire(const Options& options);

}  // namespace perfbench
