// F7 — distributed MIS: Luby's iteration count grows with log N
// (Section 5's T_MIS factor), plus microbenchmarks of the
// performance-critical kernels (Luby MIS, greedy MIS, ideal
// decomposition construction, path extraction, end-to-end solve), timed
// by the vendored benchutil::time_kernel_ns loop (mean ns/op).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "decomp/tree_decomposition.hpp"
#include "dist/luby_mis.hpp"
#include "dist/scheduler.hpp"
#include "framework/two_phase.hpp"
#include "workload/scenario.hpp"

using namespace treesched;

namespace {

Problem scaled_problem(int m, std::uint64_t seed) {
  TreeScenarioSpec spec;
  spec.num_vertices = std::max(32, m / 2);
  spec.num_networks = 2;
  spec.demands.num_demands = m;
  spec.demands.profit_max = 16.0;
  spec.seed = seed;
  return make_tree_problem(spec);
}

std::vector<InstanceId> all_instances(const Problem& p) {
  std::vector<InstanceId> all(static_cast<std::size_t>(p.num_instances()));
  for (InstanceId i = 0; i < p.num_instances(); ++i)
    all[static_cast<std::size_t>(i)] = i;
  return all;
}

// The log N series printed before the timing benchmarks.
void print_luby_series() {
  std::printf("========================================================\n");
  std::printf("F7  Luby MIS iterations vs candidate count (expected: "
              "~log N growth)\n");
  std::printf("========================================================\n");
  Table table("F7a  Luby iterations (5 seeds per N)");
  table.set_header({"N(candidates)", "iterations(mean)", "iterations(max)",
                    "iters/log2(N)"});
  std::vector<double> xs, ys;
  for (int m : {50, 100, 200, 400, 800, 1600}) {
    RunningStats iters;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Problem p = scaled_problem(m, seed * 19 + 1);
      LubyMis mis(p, seed);
      const auto candidates = all_instances(p);
      const MisResult r = mis.run(candidates);
      iters.add(static_cast<double>(r.rounds) / 2.0);
    }
    const double n_candidates = 2.0 * m;  // two networks
    xs.push_back(std::log2(n_candidates));
    ys.push_back(iters.mean());
    table.add_row({fmt(n_candidates, 0), fmt(iters.mean(), 1),
                   fmt(iters.max(), 0),
                   fmt(iters.mean() / std::log2(n_candidates), 2)});
  }
  table.print(std::cout);
  std::printf("linear fit of iterations vs log2(N): slope %.2f, "
              "correlation %.3f\n\n", regression_slope(xs, ys),
              correlation(xs, ys));
}

// Kernel timings with the vendored benchutil::time_kernel_ns loop.
void run_kernels() {
  Table table("F7b  kernel timings (vendored timer, mean ns/op)");
  table.set_header({"kernel", "arg", "ns/op"});
  const auto add = [&table](const char* kernel, int arg, double ns) {
    table.add_row({kernel, std::to_string(arg), fmt(ns, 0)});
  };

  for (int m : {100, 400, 1600}) {
    const Problem p = scaled_problem(m, 3);
    const auto candidates = all_instances(p);
    LubyMis luby(p, 7);
    add("LubyMis", m, benchutil::time_kernel_ns([&] {
          const MisResult r = luby.run(candidates);
          if (r.selected.empty()) std::abort();
        }));
    GreedyMis greedy(p);
    add("GreedyMis", m, benchutil::time_kernel_ns([&] {
          const MisResult r = greedy.run(candidates);
          if (r.selected.empty()) std::abort();
        }));
  }

  for (int n : {256, 1024, 4096}) {
    Rng rng(5);
    const TreeNetwork t = make_tree(TreeShape::kRandomAttachment,
                                    static_cast<VertexId>(n), rng);
    add("IdealDecomposition", n, benchutil::time_kernel_ns([&] {
          const TreeDecomposition h = build_ideal(t);
          if (h.max_depth() < 0) std::abort();
        }));
  }

  {
    Rng rng(9);
    const TreeNetwork t = make_tree(TreeShape::kRandomAttachment, 4096, rng);
    std::uint64_t x = 1;
    std::size_t sink = 0;
    add("PathExtraction", 4096, benchutil::time_kernel_ns([&] {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          const auto u = static_cast<VertexId>((x >> 20) % 4096);
          const auto v = static_cast<VertexId>((x >> 40) % 4096);
          sink += t.path_edges(u, v).size();
        }, /*min_iters=*/1000));
    if (sink == static_cast<std::size_t>(-1)) std::abort();
  }

  for (int m : {100, 400}) {
    const Problem p = scaled_problem(m, 11);
    add("EndToEndSolve", m, benchutil::time_kernel_ns([&] {
          DistOptions options;
          options.epsilon = 0.2;
          const DistResult r = solve_tree_unit_distributed(p, options);
          if (r.profit < 0.0) std::abort();
        }));
  }

  table.print(std::cout);
  std::printf("(mean of a plain timing loop — indicative, not "
              "statistically hardened.)\n");
}

}  // namespace

int main() {
  print_luby_series();
  run_kernels();
  return 0;
}
