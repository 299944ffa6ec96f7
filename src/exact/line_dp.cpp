#include "exact/line_dp.hpp"

#include <algorithm>
#include <vector>

namespace treesched {

bool line_dp_applicable(const Problem& problem) {
  if (!problem.finalized()) return false;
  if (problem.num_networks() != 1) return false;
  if (!problem.unit_height()) return false;
  if (problem.min_capacity() < 1.0 - kEps ||
      problem.max_capacity() > 1.0 + kEps)
    return false;
  for (DemandId d = 0; d < problem.num_demands(); ++d)
    if (problem.instances_of_demand(d).size() != 1) return false;
  // All instances must be contiguous slot ranges of a path network.
  for (InstanceId i = 0; i < problem.num_instances(); ++i) {
    if (!problem.path(i).single_run()) return false;
  }
  return true;
}

ExactResult solve_line_dp(const Problem& problem) {
  TS_REQUIRE(line_dp_applicable(problem));
  // Intervals [start, end] in slot coordinates.
  struct Interval {
    EdgeId start;
    EdgeId end;
    Profit profit;
    InstanceId id;
  };
  std::vector<Interval> intervals;
  intervals.reserve(static_cast<std::size_t>(problem.num_instances()));
  for (const DemandInstance& inst : problem.instances()) {
    const IdRuns path = problem.path(inst.id);
    intervals.push_back({path.front(), path.back(), inst.profit, inst.id});
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.end < b.end;
            });

  const auto m = intervals.size();
  // pred[i]: last interval (by sorted index) ending strictly before
  // intervals[i] starts; -1 when none.
  std::vector<int> pred(m, -1);
  for (std::size_t i = 0; i < m; ++i) {
    // Binary search over ends < start_i.
    int lo = 0, hi = static_cast<int>(i) - 1, best = -1;
    while (lo <= hi) {
      const int mid = (lo + hi) / 2;
      if (intervals[static_cast<std::size_t>(mid)].end <
          intervals[i].start) {
        best = mid;
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    pred[i] = best;
  }

  std::vector<Profit> dp(m + 1, 0.0);
  std::vector<char> take(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const Profit with = intervals[i].profit +
                        dp[static_cast<std::size_t>(pred[i] + 1)];
    if (with > dp[i]) {
      dp[i + 1] = with;
      take[i] = 1;
    } else {
      dp[i + 1] = dp[i];
    }
  }

  ExactResult result;
  result.profit = dp[m];
  // Reconstruct.
  for (int i = static_cast<int>(m) - 1; i >= 0;) {
    if (take[static_cast<std::size_t>(i)]) {
      result.solution.selected.push_back(
          intervals[static_cast<std::size_t>(i)].id);
      i = pred[static_cast<std::size_t>(i)];
    } else {
      --i;
    }
  }
  result.nodes = static_cast<std::int64_t>(m);
  result.completed = true;
  return result;
}

}  // namespace treesched
