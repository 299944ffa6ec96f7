// Distributed execution trace: runs the message-level Luby MIS protocol
// on the real synchronous runtime and prints a round-by-round trace,
// demonstrating the model of computation the paper assumes (Section 1:
// synchronous message passing; communication only between processors
// sharing a resource).
//
//   $ ./distributed_trace
#include <cstdio>

#include "dist/conflict_graph.hpp"
#include "dist/luby_mis.hpp"
#include "dist/protocol_scheduler.hpp"
#include "model/solution.hpp"
#include "workload/scenario.hpp"

using namespace treesched;

int main() {
  TreeScenarioSpec spec;
  spec.num_vertices = 48;
  spec.num_networks = 2;
  spec.demands.num_demands = 40;
  spec.seed = 5;
  const Problem problem = make_tree_problem(spec);

  std::vector<InstanceId> all(
      static_cast<std::size_t>(problem.num_instances()));
  for (InstanceId i = 0; i < problem.num_instances(); ++i)
    all[static_cast<std::size_t>(i)] = i;
  // Message-level protocol on the synchronous runtime: neighborhoods are
  // *discovered* by the 2-round edge-owner rendezvous; no processor ever
  // holds the global conflict graph.
  const ProtocolResult protocol =
      run_luby_protocol(problem, {all.data(), all.size()}, /*seed=*/42);
  std::printf("conflict discovery: 2 rendezvous rounds, %lld messages "
              "(%lld bytes)\n",
              static_cast<long long>(protocol.discovery_messages),
              static_cast<long long>(protocol.discovery_bytes));
  std::printf("message-level Luby: MIS size %zu, %lld rounds, %lld messages"
              " (%lld bytes, discovery included)\n",
              protocol.selected.size(),
              static_cast<long long>(protocol.rounds),
              static_cast<long long>(protocol.messages),
              static_cast<long long>(protocol.bytes));
  // The explicit graph appears only here, as the validity oracle.
  const ConflictGraph graph(problem, {all.data(), all.size()});
  std::printf("valid maximal independent set: %s\n",
              graph.is_maximal_independent_set(protocol.selected) ? "yes"
                                                                  : "no");

  // The production oracle (implicit cliques) on the same candidates.
  LubyMis oracle(problem, 42);
  const MisResult fast = oracle.run(all);
  std::printf("implicit-clique Luby: MIS size %zu, %d rounds\n",
              fast.selected.size(), fast.rounds);

  // The paper's accounting: each Luby iteration costs 2 rounds — value
  // exchange and winner notification; both implementations agree on that
  // model even though their random draws differ.
  std::printf("both count 2 communication rounds per Luby iteration.\n");

  // Finally, the *entire* two-phase algorithm as a message-level protocol
  // with every schedule length fixed up front (Section 5, "Distributed
  // Implementation") — no processor ever tests a global condition.
  const LayeredPlan plan = build_tree_layered_plan(problem,
                                                   DecompKind::kIdeal);
  ProtocolOptions poptions;
  poptions.epsilon = 0.2;
  poptions.keep_stack = true;  // the raise log: one row per raising tuple
  const ProtocolRunResult run =
      run_distributed_protocol(problem, plan, poptions);
  const auto report = check_feasibility(problem, run.solution);
  std::printf("\nfull protocol run: %d epochs, %d steps per stage, "
              "Luby budget %d\n", run.epochs, run.steps_per_stage,
              run.luby_budget);
  for (const ProtocolPass& pass : run.passes)
    std::printf("  %s pass: %d stages per epoch, %lld tuples, %zu raising\n",
                to_string(pass.rule), pass.stages_per_epoch,
                static_cast<long long>(pass.tuples),
                pass.raise_stack.size());
  std::printf("  rounds %lld (%lld discovery), messages %lld (%lld bytes); "
              "duals sharded per processor\n",
              static_cast<long long>(run.rounds),
              static_cast<long long>(run.discovery_rounds),
              static_cast<long long>(run.messages),
              static_cast<long long>(run.bytes));
  std::printf("  profit %.1f, feasible %s, lambda %.3f, budgets %s\n",
              run.solution.profit(problem),
              report.feasible ? "yes" : "no", run.lambda_observed,
              (run.mis_ok && run.schedule_ok) ? "sufficed" : "EXCEEDED");
  return report.feasible ? 0 : 1;
}
