"""Benchmark for godeaux3: time to a verdict, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cold_cli, layer_kernels (see workloads.py).
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes over one seeded
round and reports the per-layer metrics.  The last line of stdout is the
result object; the line before it records the environment.  The benchmark
drives the program only from outside: the ``verify`` CLI as a subprocess,
``godeaux3.run`` in-process, and each layer's public functions.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # nothing may land in the checkout's src/

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

from tracer import LAYERS, Tracer, merge  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5       # fresh interpreters per setup_s / cli.* measurement
REPEAT_WINDOW = 2000    # ops over which the share of repeated argument sets is taken
NODES = ("tables.printed", "lattice.props", "coverage", "p.comp", "p.1", "t.iii", "t.iii2")
BATCH_LAYERS = ("lattice", "cover", "pencil", "adjoint", "plane", "delpezzo", "fibration")
WORK_COUNTS = {  # metric -> tracer counter key
    "lattice.dot_calls": "lattice.dot_calls",
    "plane.curve_dot_calls": "plane.curve_dot_calls",
    "plane.verify_config_table.calls": "plane.verify_config_table",
    "plane.solve_multiplicity_system.calls": "plane.solve_multiplicity_system",
    "adjoint.verify_ladder_identity.calls": "adjoint.verify_ladder_identity",
    "delpezzo.perturbation_sweep.calls": "delpezzo.perturbation_sweep",
    "pencil.enumerate_pencil_cases.calls": "pencil.enumerate_pencil_cases",
    "prooftree.build_nodes.calls": "prooftree.build_nodes",
}


class Tally:
    """Ops attempted and failed; a failure is a raise or a wrong result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.oracle_ns = 0
        self.problems: Counter = Counter()

    def record(self, workload, op, result, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problems[f"raised {type(error).__name__}: {error}"[:160]] += 1
            return
        start = perf_counter_ns()
        problem = workload.check(op, result)
        self.oracle_ns += perf_counter_ns() - start
        if problem is not None:
            self.failed += 1
            self.wrong += 1
            self.problems[f"wrong: {problem}"[:160]] += 1


def run_ops(workload, ops, tally, after_op=None) -> list[int]:
    """Time each op on its own; checks run outside the timed span."""
    times = []
    for op in ops:
        result = error = None
        start = perf_counter_ns()
        try:
            result = workload.run(op)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            error = exc
        times.append(perf_counter_ns() - start)
        if after_op is not None:
            after_op()
        tally.record(workload, op, result, error)
    return times


def spawn_s(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``code``; it must exit 0."""
    start = perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    took = (perf_counter_ns() - start) / 1e9
    if proc.returncode != 0:
        raise RuntimeError(f"setup program failed ({proc.returncode}): "
                           f"{proc.stderr.decode(errors='replace')[-400:]}")
    return took


def spawn_median_s(code: str, env: dict) -> float:
    return statistics.median(spawn_s(code, env) for _ in range(SETUP_REPEATS))


def sequence_sha1(workload, ops) -> str:
    return hashlib.sha1(repr([workload.key(op) for op in ops]).encode()).hexdigest()


def repeated_share(workload, seed: int) -> float:
    """Share of the first REPEAT_WINDOW drawn ops whose argument set came earlier."""
    rng = random.Random(seed)
    seen, repeated, count = set(), 0, 0
    while count < REPEAT_WINDOW:
        for op in workload.round(rng):
            key = workload.key(op)
            repeated += key in seen
            seen.add(key)
            count += 1
    return repeated / count


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# -- untraced run: end-to-end metrics -------------------------------------------


def timed_run(workload, rng, seconds: int, env: dict):
    # set-up samples are spread over the run, so that a slow spell of the
    # machine weighs on setup_s no more than on the op times
    setups = [spawn_s(workload.setup_code, env)]
    workload.prepare()
    tally = Tally()
    times: list[int] = []
    first_round = None
    aside_ns = 0  # generation and set-up samples inside the loop
    start = perf_counter_ns()
    deadline = start + seconds * 10**9
    while True:
        aside_start = perf_counter_ns()
        if aside_start - start >= len(setups) * seconds * 10**9 / SETUP_REPEATS:
            setups.append(spawn_s(workload.setup_code, env))
        ops = workload.round(rng)
        if first_round is None:
            first_round = sequence_sha1(workload, ops)
        aside_ns += perf_counter_ns() - aside_start
        times += run_ops(workload, ops, tally)
        if perf_counter_ns() >= deadline:
            break
    loop_ns = perf_counter_ns() - start - aside_ns - tally.oracle_ns
    while len(setups) < SETUP_REPEATS:
        setups.append(spawn_s(workload.setup_code, env))
    setup_s = statistics.median(setups)
    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10)[-1]
    metrics = {
        "latency_ms.p50": (p50 / 1e6, "ms"),
        "latency_ms.p90": (p90 / 1e6, "ms"),
        "ops_per_s": (len(times) / (loop_ns / 1e9), "1/s"),
        "ok_frac": (1 - tally.failed / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    extra = {"ops": len(times), "ops_beyond_p90": sum(t > p90 for t in times),
             "setup_runs": SETUP_REPEATS, "first_round_sha1": first_round,
             "loop_s": loop_ns / 1e9}
    return tally, metrics, extra


# -- traced run: per-layer metrics ----------------------------------------------


def traced_run(workload, rng, seconds: int, env: dict, seed: int):
    interp_s = spawn_median_s("pass", env)
    import_s = spawn_median_s("import godeaux3.cli", env) - interp_s
    workload.prepare()
    repeated = repeated_share(workload, seed)
    ops = workload.round(rng)
    tally = Tally()
    tracer = Tracer()
    batches = defaultdict(list)
    untraced_ns = traced_ns = passes = 0
    deadline = perf_counter_ns() + seconds * 10**9
    while True:
        times = run_ops(workload, ops, tally)
        untraced_ns += sum(times)
        per_layer = defaultdict(int)
        for op, took in zip(ops, times):
            if workload.layer(op):
                per_layer[workload.layer(op)] += took
        for layer, total in per_layer.items():
            batches[layer].append(total)
        if workload.in_process:
            tracer.install()
            try:
                times = run_ops(workload, ops, tally, after_op=tracer.end_op)
            finally:
                tracer.uninstall()
        else:
            workload.traced = True
            times = run_ops(workload, ops, tally)
            workload.traced = False
        traced_ns += sum(times)
        passes += 1
        if perf_counter_ns() >= deadline:
            break

    snap = tracer.snapshot() if workload.in_process else merge(workload.snapshots)
    hooks = set(snap.get("hooks", ()))
    n = passes * len(ops)

    def get(field, key):
        return snap.get(field, {}).get(key, 0)

    def per_op(value, present):
        return value / n if present else None

    metrics = {}
    for layer in LAYERS:
        present = layer in hooks
        self_ns = get("self_ns", layer)
        if layer == "cli" and not workload.in_process:
            # the child's wall time outside every other layer: interpreter
            # start, import, argument parsing and exit
            self_ns = traced_ns - sum(v for k, v in snap.get("self_ns", {}).items()
                                      if k != "cli")
        metrics[f"{layer}.self_ms"] = (per_op(self_ns / 1e6, present), "ms")
        metrics[f"{layer}.calls"] = (per_op(get("calls", layer), present), "count")
        metrics[f"{layer}.failed"] = (per_op(get("failed", layer), present), "count")
    for metric, key in WORK_COUNTS.items():
        metrics[metric] = (per_op(get("fn_calls", key), key in hooks), "count")
    key = "pencil.enumerate_pencil_cases"
    calls = get("fn_calls", key)
    metrics[key + ".distinct_ratio"] = (
        (get("distinct", key) / calls if calls else 0.0) if key in hooks else None, "ratio")
    metrics["prooftree.build_nodes_ms"] = (
        per_op(get("fn_incl_ns", "prooftree.build_nodes") / 1e6,
               "prooftree.build_nodes" in hooks), "ms")
    metrics["report.schedule_ms"] = (
        per_op(get("fn_self_ns", "report.run") / 1e6, "report.run" in hooks), "ms")
    metrics["report.render_ms"] = (
        per_op(get("fn_incl_ns", "report.Report.to_text") / 1e6,
               "report.Report.to_text" in hooks), "ms")
    metrics["cli.interp_ms"] = (interp_s * 1e3, "ms")
    metrics["cli.import_ms"] = (import_s * 1e3, "ms")
    for layer in BATCH_LAYERS:
        values = batches.get(layer)
        metrics[f"{layer}.batch_ms"] = (statistics.median(values) / 1e6 if values else 0.0, "ms")
    node_hook = "prooftree.ProofNode.run" in hooks
    for node in NODES:
        metrics[f"node.{node}.ms"] = (per_op(get("node_ns", node) / 1e6, node_hook), "ms")
    metrics["tracing.overhead_frac"] = (traced_ns / untraced_ns - 1, "ratio")
    metrics["failed_frac"] = (tally.failed / tally.attempted, "ratio")
    metrics["input.repeated_frac"] = (repeated, "ratio")
    extra = {"ops_per_pass": len(ops), "passes": passes, "traced_ops": n,
             "round_sha1": sequence_sha1(workload, ops),
             "missing_metrics": sorted(k for k, (v, _) in metrics.items() if v is None),
             "setup_runs": SETUP_REPEATS}
    return tally, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "godeaux3" / "__init__.py").is_file():
        print(f"no godeaux3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    import godeaux3
    if not Path(godeaux3.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"would measure {godeaux3.__file__}, not the checkout's sources",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT)
    env = child_env(ROOT)
    rng = random.Random(args.seed)
    started = perf_counter_ns()
    if args.trace:
        tally, metrics, extra = traced_run(workload, rng, args.seconds, env, args.seed)
    else:
        tally, metrics, extra = timed_run(workload, rng, args.seconds, env)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "child_PYTHONDONTWRITEBYTECODE": env["PYTHONDONTWRITEBYTECODE"],
        "git_commit": git_commit(), "attempted": tally.attempted, "failed": tally.failed,
        "wrong": tally.wrong, "problems": dict(tally.problems.most_common(8)),
        "wall_s": (perf_counter_ns() - started) / 1e9, **extra,
    }
    print(json.dumps({"env": record}, sort_keys=True))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
