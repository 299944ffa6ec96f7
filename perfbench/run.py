#!/usr/bin/env python3
"""End-to-end benchmark of the treesched library.

From the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, default seed

Builds perfbench_measure from the checkout's sources (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, runs one workload,
checks every output, and prints the metrics as one JSON object on the last
line of stdout: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import openloop  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Later claims must also hold on the held-out seed 9001 (README.md).
DEFAULT_SEED = 1
MEASURE_TIMEOUT_S = 170

# Online workloads are open loop: a batch is offered every interval_ms, and
# capacity is the highest rate whose p95 latency stays within limit_ms.
WORKLOADS = {
    "batch-line": {},
    "online-dense": {"interval_ms": 80.0, "limit_ms": 160.0},
    "online-sparse": {"interval_ms": 25.0, "limit_ms": 50.0},
    "protocol-wire": {},
}

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "profit_share": "share",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "model.lower_ms": "ms",
    "decomp.plan_ms": "ms",
    "framework.forest_build_ms": "ms",
    "framework.epoch_setup_ms": "ms",
    "framework.merge_ms": "ms",
    "framework.phase2_ms": "ms",
    "framework.serial_solve_ms": "ms",
    "framework.worker_busy_share": "share",
    "framework.largest_component_share": "share",
    "framework.steps": "count",
    "framework.raises": "count",
    "online.batch_p95_ms": "ms",
    "online.max_events_per_s": "1/s",
    "online.rebuild_ms": "ms",
    "online.refresh_ms": "ms",
    "online.assemble_ms": "ms",
    "online.touched_ratio": "share",
    "online.touched_instances": "count",
    "online.cold_resolves": "count",
    "online.compactions": "count",
    "durability.append_ms": "ms",
    "durability.snapshot_ms": "ms",
    "durability.journal_bytes": "bytes",
    "durability.snapshot_bytes": "bytes",
    "durability.recover_p50_ms": "ms",
    "durability.snapshot_load_ms": "ms",
    "durability.restore_ms": "ms",
    "durability.replay_ms": "ms",
    "dist.discovery_ms": "ms",
    "dist.inproc_solve_ms": "ms",
    "dist.ns_per_round": "ns",
    "dist.wire_rounds": "rounds",
    "dist.wire_bytes": "bytes",
    "dist.tuples": "count",
    "dist.wide_rounds": "rounds",
    "dist.narrow_rounds": "rounds",
    "dist.mis_retries": "count",
    "dist.messages": "count",
    "dist.discovery_bytes": "bytes",
    "obs.trace_overhead": "share",
    "obs.unattributed_share": "share",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def output_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build():
    """Configures and builds perfbench_measure; returns its path.  The
    configure step runs every time (it is cached and cheap), so a build
    directory left by other sources never lacks the target."""
    build_dir = output_dir() / "build"
    # The compiler's temporary files stay inside the checkout too.
    tmp = output_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench_measure",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return build_dir / "perfbench_measure"


def measure(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its raw samples."""
    workdir = output_dir() / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=MEASURE_TIMEOUT_S)
        if proc.returncode:
            raise RuntimeError(f"{workload} exited with {proc.returncode}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace:
            kept = output_dir() / f"trace_{workload}.json"
            shutil.move(str(workdir / "trace.json"), kept)
            log(f"chrome trace of the last traced operation: {kept}")
        return raw
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def service_ms(laps):
    """Each operation's fastest lap.  Every lap repeats the same seeded
    operations, so the fastest one is the run least disturbed by other
    work on the host; a stall the program itself causes recurs in every
    lap and survives."""
    return [min(times) for times in zip(*laps)]


def latency_ms(laps, spec):
    """Per-operation latency: open loop for the online workloads, the
    operation's own service time for the closed-loop ones."""
    service = service_ms(laps)
    if "interval_ms" in spec:
        return openloop.latencies(service, spec["interval_ms"])
    return service


def end_to_end(raw, spec):
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_p50_ms": statistics.median(latency_ms(raw["laps"], spec)),
        "profit_share": raw["profit_share"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, spec):
    """The measured per-layer values, plus the ones derived here; a layer
    the workload does not run reads 0."""
    unknown = set(raw["layers"]) - set(LAYER_UNITS)
    if unknown:
        raise ValueError(f"unknown layers reported: {sorted(unknown)}")
    values = {name: 0.0 for name in LAYER_UNITS}
    values.update(raw["layers"])
    if "interval_ms" in spec:
        values["online.batch_p95_ms"] = openloop.percentile(
            latency_ms(raw["laps"], spec), 95)
        values["online.max_events_per_s"] = openloop.max_events_per_s(
            service_ms(raw["laps"]), raw["events"], spec["limit_ms"])
    values["obs.trace_overhead"] = (
        statistics.median(latency_ms(raw["traced_laps"], spec))
        / statistics.median(latency_ms(raw["laps"], spec)) - 1.0)
    return values


def describe(workload, raw, spec, metrics, units):
    """Human-readable summary, printed before the JSON line."""
    ops = len(raw["events"])
    kind = (f"open loop, one batch per {spec['interval_ms']:g} ms"
            if "interval_ms" in spec else "closed loop")
    print(f"== {workload}: {ops} operations per lap, best of "
          f"{len(raw['laps'])} laps ({kind}), "
          f"{len(raw['setup_s'])} set-ups, "
          f"error_rate {raw['failed'] / raw['attempted']:.4g} "
          f"({raw['failed']} of {raw['attempted']} checks failed)")
    for name, value in metrics.items():
        print(f"   {name:36s} {value:16.6g} {units[name]}")


def run_workload(binary, workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    raw = measure(binary, workload, seed, seconds, trace)
    metrics = per_layer(raw, spec) if trace else end_to_end(raw, spec)
    units = LAYER_UNITS if trace else E2E_UNITS
    describe(workload, raw, spec, metrics, units)
    for failure in raw["failures"]:
        log("check failed:", failure)
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        binary = build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        ok = all([run_workload(binary, name, args.seed, args.seconds,
                               args.trace) for name in names])
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        log("perfbench:", error)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
