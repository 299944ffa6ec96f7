#include "io/text_io.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace treesched {

namespace {

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  is >> token;
  check_input(token == expected,
              "expected '" + expected + "', got '" + token + "'");
}

// Every read is checked before its value is used: a truncated or
// malformed file stops at the first bad field, before any count it
// carries can drive an allocation or a loop.
void check_read(const std::istream& is, const char* what) {
  check_input(static_cast<bool>(is), std::string("truncated or malformed ") +
                                         what);
}

// An access-set size: at least one entry, at most one per network
// (resource) — the writers emit deduplicated sets.
std::size_t read_access_count(std::istream& is, int limit) {
  long long count = 0;
  is >> count;
  check_read(is, "access count");
  check_input(count >= 1 && count <= limit,
              "access count " + std::to_string(count) + " out of range [1, " +
                  std::to_string(limit) + "]");
  return static_cast<std::size_t>(count);
}

std::vector<NetworkId> read_access(std::istream& is, int limit) {
  std::vector<NetworkId> acc(read_access_count(is, limit));
  for (auto& q : acc) is >> q;
  check_read(is, "access set");
  return acc;
}

}  // namespace

void write_problem(std::ostream& os, const Problem& problem) {
  // Full round-trip precision for profits, heights and capacities.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "treesched-problem 1\n";
  os << "vertices " << problem.num_vertices() << "\n";
  os << "networks " << problem.num_networks() << "\n";
  for (NetworkId q = 0; q < problem.num_networks(); ++q) {
    const TreeNetwork& network = problem.network(q);
    os << "network " << q << "\n";
    for (EdgeId e = 0; e < network.num_edges(); ++e) {
      os << network.edge_u(e) << " " << network.edge_v(e) << " "
         << problem.capacity(problem.global_edge(q, e)) << "\n";
    }
  }
  os << "demands " << problem.num_demands() << "\n";
  for (DemandId d = 0; d < problem.num_demands(); ++d) {
    const Demand& dem = problem.demand(d);
    const auto& acc = problem.access(d);
    os << dem.u << " " << dem.v << " " << dem.profit << " " << dem.height
       << " " << acc.size();
    for (NetworkId q : acc) os << " " << q;
    os << "\n";
  }
  os << "end\n";
}

Problem read_problem(std::istream& is) {
  expect_token(is, "treesched-problem");
  int version = 0;
  is >> version;
  check_input(version == 1, "unsupported problem version");

  expect_token(is, "vertices");
  VertexId n = 0;
  is >> n;
  check_read(is, "vertex count");
  expect_token(is, "networks");
  int r = 0;
  is >> r;
  check_read(is, "network count");
  check_input(n >= 1 && r >= 1, "bad problem header");

  // No reserve from the header's counts: the vectors grow only as the
  // file actually supplies networks and edges.
  std::vector<TreeNetwork> networks;
  std::vector<std::vector<Capacity>> capacities;
  for (int q = 0; q < r; ++q) {
    expect_token(is, "network");
    int qq = 0;
    is >> qq;
    check_input(qq == q, "networks out of order");
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::vector<Capacity> caps;
    for (VertexId e = 0; e + 1 < n; ++e) {
      VertexId u = 0, v = 0;
      Capacity c = 1.0;
      is >> u >> v >> c;
      check_read(is, "network edge");
      edges.emplace_back(u, v);
      caps.push_back(c);
    }
    networks.emplace_back(n, std::move(edges));
    capacities.push_back(std::move(caps));
  }

  Problem problem(n, std::move(networks));
  for (int q = 0; q < r; ++q)
    for (EdgeId e = 0; e < static_cast<EdgeId>(
                               capacities[static_cast<std::size_t>(q)].size());
         ++e)
      problem.set_capacity(
          q, e, capacities[static_cast<std::size_t>(q)]
                          [static_cast<std::size_t>(e)]);

  expect_token(is, "demands");
  int m = 0;
  is >> m;
  check_read(is, "demand count");
  check_input(m >= 1, "problem needs demands");
  for (int k = 0; k < m; ++k) {
    VertexId u = 0, v = 0;
    Profit profit = 0.0;
    Height height = 1.0;
    is >> u >> v >> profit >> height;
    check_read(is, "demand");
    std::vector<NetworkId> acc = read_access(is, r);
    const DemandId d = problem.add_demand(u, v, profit, height);
    problem.set_access(d, std::move(acc));
  }
  expect_token(is, "end");
  problem.finalize();
  return problem;
}

void write_line_problem(std::ostream& os, const LineProblem& line) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "treesched-line 1\n";
  os << "slots " << line.num_slots() << " resources " << line.num_resources()
     << "\n";
  os << "demands " << line.num_demands() << "\n";
  for (DemandId d = 0; d < line.num_demands(); ++d) {
    const LineDemand& ld = line.demand(d);
    const auto& acc = line.access(d);
    os << ld.release << " " << ld.deadline << " " << ld.proc_time << " "
       << ld.profit << " " << ld.height << " " << acc.size();
    for (NetworkId q : acc) os << " " << q;
    os << "\n";
  }
  os << "end\n";
}

LineProblem read_line_problem(std::istream& is) {
  expect_token(is, "treesched-line");
  int version = 0;
  is >> version;
  check_input(version == 1, "unsupported line-problem version");
  expect_token(is, "slots");
  int slots = 0;
  is >> slots;
  check_read(is, "slot count");
  expect_token(is, "resources");
  int resources = 0;
  is >> resources;
  check_read(is, "resource count");
  LineProblem line(slots, resources);

  expect_token(is, "demands");
  int m = 0;
  is >> m;
  check_read(is, "demand count");
  check_input(m >= 0, "negative demand count");
  for (int k = 0; k < m; ++k) {
    int release = 0, deadline = 0, proc = 0;
    Profit profit = 0.0;
    Height height = 1.0;
    is >> release >> deadline >> proc >> profit >> height;
    check_read(is, "line demand");
    std::vector<NetworkId> acc = read_access(is, resources);
    const DemandId d = line.add_demand(release, deadline, proc, profit,
                                       height);
    line.set_access(d, std::move(acc));
  }
  expect_token(is, "end");
  return line;
}

void write_solution(std::ostream& os, const Solution& solution) {
  os << "treesched-solution 1\n" << solution.selected.size() << "\n";
  for (InstanceId i : solution.selected) os << i << "\n";
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("treesched: cannot write " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("treesched: cannot read " + path);
  return is;
}

}  // namespace

void save_problem(const std::string& path, const Problem& problem) {
  auto os = open_out(path);
  write_problem(os, problem);
}

Problem load_problem(const std::string& path) {
  auto is = open_in(path);
  return read_problem(is);
}

void save_solution(const std::string& path, const Solution& solution) {
  auto os = open_out(path);
  write_solution(os, solution);
}

}  // namespace treesched
