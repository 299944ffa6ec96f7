// treesched command-line tool: generate, inspect and solve scheduling
// problems from the shell.
//
//   treesched_cli gen-tree  <out.prob> [--n=64] [--r=2] [--m=50]
//                 [--shape=random|binary|path|star|caterpillar|broom]
//                 [--heights=unit|uniform|bimodal|narrow] [--seed=1]
//                 [--cap-spread=1] [--pmax=100]
//   treesched_cli gen-line  <out.line> [--slots=64] [--r=2] [--m=40]
//                 [--slack=2.0] [--heights=...] [--seed=1]
//   treesched_cli info      <file>
//   treesched_cli solve     <file> [--algo=auto|tree|line|seq|exact|
//                 nonuniform|protocol|online] [--eps=0.1] [--ps] [--seed=1]
//                 [--decomp=ideal|balancing|rootfix] [--out=sol.txt]
//                 [--trace=trace.json]
//                 [--transport=inproc|serialized|faulty]
//                 [--faults=drop=0.05,dup=0.02,corrupt=0.01,seed=1]
//                 [--arrivals=poisson|bursty|diurnal] [--rate=8]
//                 [--batches=16] [--interval=1.0] [--lifetime=8.0]
//                 [--init-pop=0]
//                 [--journal=run.wal] [--snapshot-every=4] [--recover]
//                 [--crash=point=mid-append,batch=3,seed=7]
//
// --journal puts the online arm behind the durable service
// (online/durable_service.hpp): every batch is appended to the
// write-ahead journal before it is applied, and --snapshot-every=N adds
// a versioned snapshot of the full scheduler state every N batches.
// --recover restarts a crashed run from those files (newest valid
// snapshot + journal suffix; torn tails truncated) and resumes the same
// seeded trace where it left off.  --crash arms the deterministic
// crash-injection harness — the process exits 3 at the named point with
// whatever partial write a kill -9 would have left; unset, the
// TREESCHED_CRASH environment hook supplies the plan.
//
// --algo=online runs the incremental warm-start service (online/): the
// tree problem's demands become the resident population, a churn trace
// (--arrivals/--rate/--batches/--interval/--lifetime/--init-pop, sampled
// by --seed) is replayed batch by batch through the OnlineScheduler, and
// only the conflict components each batch touches are re-solved.  The
// run reports steady-state throughput (events and demands/sec sustained)
// plus the touched-component ratio, then the final assembled solution.
//
// Argument parsing (tools/cli_args.hpp, shared with tests/
// test_cli_args.cpp) is strict: malformed or non-finite numbers
// (--eps=abc, --eps=0.5x, --rate=inf), integer flags that are fractional
// or out of range (--n=1e12, --seed=-1), value flags given
// space-separated (--batches 4), unknown flags or enum names
// (--shape=binray) and stray positionals all exit 2 with a diagnostic
// naming the offending flag.
//
// --algo=protocol runs the matching theorem as the *message-level*
// protocol (dist/protocol_scheduler) instead of the modeled engine, and
// --transport picks its communication backend (dist/transport.hpp);
// unset, the TREESCHED_TRANSPORT environment hook decides.  On the
// serialized and faulty backends the reported bytes are real serialized
// sizes and the codec counters show every message crossing the wire
// format.
// --faults wraps the backend in the kFaulty recovery layer (see
// parse_fault_plan in dist/transport.hpp for the full key set) and
// prints the fault/retransmit/dedup/corruption counters plus the
// degraded flag after the run; unset, the TREESCHED_FAULTS environment
// hook decides.
//
// Files produced by gen-* are the versioned text formats of io/text_io;
// `solve` auto-detects tree vs line files by their header.  --trace
// enables the obs/ flight recorder for the solve and writes a Chrome
// trace (chrome://tracing / ui.perfetto.dev; summarize with
// tools/trace_report.py) — unavailable in TREESCHED_ENABLE_TRACING=OFF
// builds.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "capacity/nonuniform.hpp"
#include "cli_args.hpp"
#include "dist/scheduler.hpp"
#include "exact/branch_and_bound.hpp"
#include "io/text_io.hpp"
#include "obs/trace.hpp"
#include "online/durable_service.hpp"
#include "online/online_scheduler.hpp"
#include "seq/sequential.hpp"
#include "workload/scenario.hpp"

using namespace treesched;

namespace {

using cli::Args;
using cli::parse_arrivals;
using cli::parse_decomp;
using cli::parse_heights;
using cli::parse_shape;
using cli::UsageError;

bool is_line_file(const std::string& path) {
  std::ifstream is(path);
  std::string token;
  is >> token;
  return token == "treesched-line";
}

int cmd_gen_tree(const Args& args) {
  TreeScenarioSpec spec;
  spec.shape = parse_shape(args.get("shape", "random"));
  spec.num_vertices = args.integer<VertexId>("n", 64, 2);
  spec.num_networks = args.integer("r", 2, 1);
  spec.demands.num_demands = args.integer("m", 50, 1);
  spec.demands.heights = parse_heights(args.get("heights", "unit"));
  spec.demands.profit_max = args.num("pmax", 100.0);
  spec.capacity_spread = args.num("cap-spread", 1.0);
  if (spec.capacity_spread > 1.0)
    spec.capacities = CapacityLaw::kPowerClasses;
  spec.seed = args.integer<std::uint64_t>("seed", 1);
  const Problem problem = make_tree_problem(spec);
  save_problem(args.file, problem);
  std::printf("wrote %s: %s (%d instances)\n", args.file.c_str(),
              describe(spec).c_str(), problem.num_instances());
  return 0;
}

int cmd_gen_line(const Args& args) {
  LineGenConfig cfg;
  cfg.num_slots = args.integer("slots", 64, 2);
  cfg.num_resources = args.integer("r", 2, 1);
  cfg.num_demands = args.integer("m", 40, 0);
  cfg.window_slack = args.num("slack", 2.0);
  cfg.max_proc_time =
      args.integer("max-proc", 12, cfg.min_proc_time, cfg.num_slots);
  cfg.heights = parse_heights(args.get("heights", "unit"));
  Rng rng(args.integer<std::uint64_t>("seed", 1));
  const LineProblem line = make_random_line_problem(cfg, rng);
  std::ofstream os(args.file);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", args.file.c_str());
    return 1;
  }
  write_line_problem(os, line);
  std::printf("wrote %s: %d jobs over %d slots x %d resources\n",
              args.file.c_str(), line.num_demands(), line.num_slots(),
              line.num_resources());
  return 0;
}

int cmd_info(const Args& args) {
  if (is_line_file(args.file)) {
    std::ifstream is(args.file);
    const LineProblem line = read_line_problem(is);
    const Problem problem = line.lower();
    std::printf("line problem: %d slots, %d resources, %d jobs, "
                "%d placements\n", line.num_slots(), line.num_resources(),
                line.num_demands(), problem.num_instances());
    return 0;
  }
  const Problem problem = load_problem(args.file);
  std::printf("tree problem: n=%d, r=%d, m=%d, instances=%d\n",
              problem.num_vertices(), problem.num_networks(),
              problem.num_demands(), problem.num_instances());
  std::printf("profits [%g, %g], heights [%g, %g], capacities [%g, %g]\n",
              problem.min_profit(), problem.max_profit(),
              problem.min_height(), problem.max_height(),
              problem.min_capacity(), problem.max_capacity());
  std::printf("path lengths [%d, %d]; unit-height: %s; NBA: %s\n",
              problem.min_path_length(), problem.max_path_length(),
              problem.unit_height() ? "yes" : "no",
              satisfies_nba(problem) ? "yes" : "no");
  return 0;
}

void report(const Problem& problem, const Solution& solution, double bound,
            const SolveStats& stats, const Args& args) {
  const auto feas = check_feasibility(problem, solution);
  std::printf("feasible: %s\n", feas.feasible ? "yes" : "no");
  if (!feas.feasible)
    std::printf("violation: %s\n", feas.violation.c_str());
  std::printf("profit: %.3f  (selected %zu of %d demands)\n",
              solution.profit(problem), solution.size(),
              problem.num_demands());
  if (bound > 0.0)
    std::printf("proven approximation bound: %.2f\n", bound);
  if (stats.dual_upper_bound > 0.0)
    std::printf("certified OPT upper bound: %.3f (gap %.3f)\n",
                stats.dual_upper_bound,
                stats.dual_upper_bound /
                    std::max(solution.profit(problem), 1e-9));
  if (stats.comm_rounds > 0)
    std::printf("rounds: %lld (epochs %d, stages %d, steps %d)\n",
                static_cast<long long>(stats.comm_rounds), stats.epochs,
                stats.stages, stats.steps);
  if (!stats.mis_ok)
    std::printf("warning: MIS budget exhausted in %lld step(s) — the run "
                "degraded (mis_ok=false); quality certificates still hold "
                "but fewer instances were decided than the schedule "
                "planned for\n",
                static_cast<long long>(stats.mis_failed_steps));
  if (args.has("out")) {
    save_solution(args.get("out", ""), solution);
    std::printf("solution written to %s\n", args.get("out", "").c_str());
  }
  if (args.has("trace")) {
    const std::string path = args.get("trace", "trace.json");
    if (obs::write_chrome_trace(path))
      std::printf("trace written to %s (open in chrome://tracing or "
                  "ui.perfetto.dev; summarize with tools/trace_report.py)\n",
                  path.c_str());
    else
      std::fprintf(stderr, "warning: could not write trace to %s (tracing "
                           "compiled out, or path not writable)\n",
                   path.c_str());
  }
}

// The online service arm: replay a churn trace through the incremental
// scheduler and report sustained throughput, then the final solution.
// With --journal the replay runs behind the durable service (write-ahead
// journal + snapshots every --snapshot-every batches); --recover resumes
// a crashed run from those files and replays only the remaining suffix
// of the same seeded trace.  --crash arms the deterministic crash
// harness (exit 3, restartable with --recover) — unset, the
// TREESCHED_CRASH environment hook decides.
int cmd_solve_online(const Args& args, const Problem& problem) {
  OnlineTrafficSpec traffic;
  traffic.arrivals = parse_arrivals(args.get("arrivals", "poisson"));
  traffic.rate = args.num("rate", 8.0);
  traffic.num_batches = args.integer("batches", 16, 0);
  traffic.batch_interval = args.num("interval", 1.0);
  traffic.initial_population = args.integer("init-pop", 0, 0);
  traffic.seed = args.integer<std::uint64_t>("seed", 1);
  TenantClass tenant;
  tenant.mean_lifetime = args.num("lifetime", 8.0);
  traffic.tenants.push_back(tenant);

  DemandGenConfig demand_cfg;
  demand_cfg.heights = parse_heights(args.get("heights", "unit"));
  demand_cfg.profit_max = args.num("pmax", 100.0);

  OnlineConfig cfg;
  cfg.solver.epsilon = args.num("eps", 0.1);
  cfg.decomp = parse_decomp(args.get("decomp", "ideal"));

  for (const char* needs_journal : {"snapshot-every", "crash"}) {
    if (args.has(needs_journal) && !args.has("journal"))
      throw UsageError(std::string("flag --") + needs_journal +
                       " requires --journal=PATH");
  }
  if (args.has("recover") && !args.has("journal"))
    throw UsageError("flag --recover requires --journal=PATH");

  const std::vector<EventBatch> trace =
      make_event_trace(problem, demand_cfg, traffic);

  // The durable arm: same trace, same scheduler, behind the journal.
  if (args.has("journal")) {
    DurabilityConfig dur;
    dur.journal_path = args.get("journal", "");
    dur.snapshot_every = args.integer("snapshot-every", 0, 0);
    if (args.has("crash")) dur.crash = parse_crash_plan(args.get("crash", ""));
    std::int64_t events = 0, solve_ns = 0;
    try {
      std::unique_ptr<DurableOnlineService> service;
      std::size_t resume_at = 0;
      if (args.has("recover")) {
        RecoveryReport rec;
        service = std::make_unique<DurableOnlineService>(
            DurableOnlineService::recover(problem, cfg, dur, &rec));
        resume_at = service->batches_applied();
        std::printf("recovered: %s%s\n", rec.note.c_str(),
                    rec.journal_torn ? " (torn journal tail truncated)"
                                     : "");
        std::printf("recovery: %u batches from snapshot + %u replayed from "
                    "journal; resuming at batch %zu of %zu\n",
                    rec.snapshot_batches, rec.replayed, resume_at,
                    trace.size());
        check_input(resume_at <= trace.size(),
                    "recover: journal is ahead of the configured trace "
                    "(different --batches/--seed than the crashed run?)");
      } else {
        service = std::make_unique<DurableOnlineService>(problem, cfg, dur);
      }
      for (std::size_t b = resume_at; b < trace.size(); ++b) {
        const OnlineBatchReport rep = service->step(trace[b]);
        events += rep.arrivals + rep.departures;
        solve_ns += rep.solve_ns;
      }
      const double seconds = static_cast<double>(solve_ns) / 1e9;
      std::printf("online (durable): %u batches applied, %lld events; "
                  "journal %lld bytes at %s\n",
                  service->batches_applied(),
                  static_cast<long long>(events),
                  static_cast<long long>(service->journal_bytes_written()),
                  dur.journal_path.c_str());
      if (seconds > 0.0)
        std::printf("throughput: %.0f events/sec sustained\n",
                    static_cast<double>(events) / seconds);
      const OnlineSolveArtifacts art = service->scheduler().assemble();
      std::printf("final population: %d live demands, lambda %.4f\n",
                  service->scheduler().live_demands(), art.lambda);
      report(service->scheduler().problem(), art.solution, 0.0, SolveStats{},
             args);
      return 0;
    } catch (const CrashInjected& crash) {
      std::fprintf(stderr,
                   "%s\nrestart with --recover to resume from the journal "
                   "and newest snapshot\n",
                   crash.what());
      return 3;
    }
  }

  OnlineScheduler scheduler(problem, cfg);
  std::int64_t events = 0, solve_ns = 0, touched = 0, total = 0;
  for (const EventBatch& batch : trace) {
    const OnlineBatchReport rep = scheduler.step(batch);
    events += rep.arrivals + rep.departures;
    solve_ns += rep.solve_ns;
    touched += rep.touched_components;
    total += rep.total_components;
  }
  const double seconds = static_cast<double>(solve_ns) / 1e9;
  std::printf("online: %d batches, %lld events over %d resident demands\n",
              scheduler.batches_applied(), static_cast<long long>(events),
              problem.num_demands());
  std::printf("throughput: %.0f events/sec sustained (%.3f ms/batch); "
              "touched %lld of %lld components (%.1f%%)\n",
              seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0,
              trace.empty() ? 0.0
                            : seconds * 1e3 /
                                  static_cast<double>(trace.size()),
              static_cast<long long>(touched),
              static_cast<long long>(total),
              total > 0 ? 100.0 * static_cast<double>(touched) /
                              static_cast<double>(total)
                        : 0.0);
  const OnlineSolveArtifacts art = scheduler.assemble();
  std::printf("final population: %d live demands, lambda %.4f\n",
              scheduler.live_demands(), art.lambda);
  report(scheduler.problem(), art.solution, 0.0, SolveStats{}, args);
  return 0;
}

int cmd_solve(const Args& args) {
  if (args.has("trace")) obs::enable_tracing();
  const bool line = is_line_file(args.file);
  Problem problem = [&] {
    if (line) {
      std::ifstream is(args.file);
      return read_line_problem(is).lower();
    }
    return load_problem(args.file);
  }();

  const std::string algo = args.get("algo", "auto");
  bool known_algo = false;
  for (const char* known : {"auto", "tree", "line", "seq", "exact",
                            "nonuniform", "protocol", "online"})
    known_algo = known_algo || algo == known;
  if (!known_algo)
    throw cli::bad_name("algo", algo,
                        "auto|tree|line|seq|exact|nonuniform|protocol|online");
  if (algo == "online") {
    if (line)
      throw UsageError("--algo=online requires a tree problem file");
    return cmd_solve_online(args, problem);
  }
  DistOptions options;
  options.epsilon = args.num("eps", 0.1);
  options.seed = args.integer<std::uint64_t>("seed", 1);
  options.decomp = parse_decomp(args.get("decomp", "ideal"));
  options.stage_mode = args.has("ps") ? StageMode::kSingleStagePS
                                      : StageMode::kMultiStage;

  if (algo == "exact") {
    const ExactResult exact = solve_exact(
        problem, args.integer<std::int64_t>("nodes", 20'000'000, 0));
    if (!exact.completed)
      std::printf("warning: node limit hit; result may be suboptimal\n");
    report(problem, exact.solution, 1.0, SolveStats{}, args);
    return 0;
  }
  if (algo == "seq") {
    const SeqResult r =
        line ? (problem.unit_height() ? solve_line_unit_sequential(problem)
                                      : solve_line_arbitrary_sequential(
                                            problem))
             : (problem.unit_height()
                    ? solve_tree_unit_sequential(problem)
                    : solve_tree_arbitrary_sequential(problem));
    report(problem, r.solution, r.ratio_bound, r.stats, args);
    return 0;
  }
  if (algo == "nonuniform") {
    NonuniformOptions nopts;
    nopts.dist = options;
    nopts.line = line;
    nopts.by_class = args.has("by-class");
    const NonuniformResult r =
        problem.unit_height() ? solve_nonuniform_unit(problem, nopts)
                              : solve_nonuniform_narrow(problem, nopts);
    report(problem, r.solution, r.ratio_bound, r.stats, args);
    return 0;
  }
  if (algo == "protocol") {
    ProtocolOptions popts;
    popts.epsilon = options.epsilon;
    popts.seed = options.seed;
    popts.transport = args.has("transport")
                          ? parse_transport_kind(args.get("transport", ""))
                          : TransportKind::kDefault;
    if (args.has("faults"))
      popts.faults = parse_fault_plan(args.get("faults", ""));
    const ProtocolDistResult r =
        line ? (problem.unit_height()
                    ? run_line_unit_protocol(problem, popts)
                    : run_line_arbitrary_protocol(problem, popts))
             : (problem.unit_height()
                    ? run_tree_unit_protocol(problem, popts, options.decomp)
                    : run_tree_arbitrary_protocol(problem, popts,
                                                  options.decomp));
    std::printf("transport: %s\n", to_string(r.run.transport));
    std::printf("rounds: %lld  messages: %lld  bytes: %lld "
                "(discovery: %lld/%lld/%lld)\n",
                static_cast<long long>(r.run.rounds),
                static_cast<long long>(r.run.messages),
                static_cast<long long>(r.run.bytes),
                static_cast<long long>(r.run.discovery_rounds),
                static_cast<long long>(r.run.discovery_messages),
                static_cast<long long>(r.run.discovery_bytes));
    if (r.run.codec_encoded > 0)
      std::printf("codec: %lld encoded, %lld decoded (serialized wire)\n",
                  static_cast<long long>(r.run.codec_encoded),
                  static_cast<long long>(r.run.codec_decoded));
    if (r.run.transport == TransportKind::kFaulty) {
      const FaultStats& f = r.run.fault;
      std::printf("faults: %lld posted, %lld delivered, %lld lost "
                  "(drop %lld, dup %lld, corrupt %lld, delay %lld, "
                  "reorder %lld)\n",
                  static_cast<long long>(f.frames_posted),
                  static_cast<long long>(f.frames_delivered),
                  static_cast<long long>(f.frames_lost),
                  static_cast<long long>(f.frames_dropped),
                  static_cast<long long>(f.frames_duplicated),
                  static_cast<long long>(f.frames_corrupted),
                  static_cast<long long>(f.frames_delayed),
                  static_cast<long long>(f.frames_reordered));
      std::printf("recovery: %lld retransmits, %lld deduped, %lld "
                  "crc-rejected, %lld undetected; mis retries %lld\n",
                  static_cast<long long>(f.retransmits),
                  static_cast<long long>(f.dup_dropped),
                  static_cast<long long>(f.corrupt_dropped),
                  static_cast<long long>(f.corrupt_undetected),
                  static_cast<long long>(r.run.mis_retries));
      std::printf("degraded: %s  certificate_ok: %s\n",
                  r.run.degraded ? "yes" : "no",
                  r.run.certificate_ok ? "yes" : "no");
    }
    report(problem, r.run.solution, r.ratio_bound, SolveStats{}, args);
    return 0;
  }
  // auto / tree / line: the matching distributed theorem.
  const DistResult r =
      line ? (problem.unit_height()
                  ? solve_line_unit_distributed(problem, options)
                  : solve_line_arbitrary_distributed(problem, options))
           : (problem.unit_height()
                  ? solve_tree_unit_distributed(problem, options)
                  : solve_tree_arbitrary_distributed(problem, options));
  report(problem, r.solution, r.ratio_bound, r.stats, args);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: treesched_cli <gen-tree|gen-line|info|solve> <file> "
               "[--flags]\n  see the header of tools/treesched_cli.cpp\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = cli::parse(argc, argv);
    if (args.command.empty() || args.file.empty()) return usage();
    if (args.command == "gen-tree") return cmd_gen_tree(args);
    if (args.command == "gen-line") return cmd_gen_line(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "solve") return cmd_solve(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
