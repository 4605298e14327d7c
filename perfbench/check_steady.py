"""Steadiness check for the benchmark: spreads, repeatable counts, seeded inputs.

Usage, from the root of a checkout (about 50 minutes for both workloads):

    python3 perfbench/check_steady.py [--workloads a,b] [--seeds 10] [--out FILE]

For every workload it makes two sets of ``--seeds`` untraced runs, one seed
each: seeds 1..N, then N+1..2N.  For each end-to-end metric it reports the
median of a set and the distance between the first and third quartiles as a
share of the median (``spread``), next to the metric's bound from
BENCHMARK.json.  A spread must stay below a third of its bound (``setup_s`` is
exempt, as it is set up only a few times per run), and the second set's median
may not be worse than the first's by more than the bound.  It then makes two
traced runs with seed 1 and requires every count metric to repeat exactly and
both runs to draw the same op sequence.  The exit code is 0 only when every
check holds.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics that are exact functions of the seeded op sequence
EXACT_UNITS = ("count",)
EXACT_RATIOS = ("pencil.enumerate_pencil_cases.distinct_ratio", "failed_frac",
                "input.repeated_frac")


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    per_layer = {m["name"] for m in bench["per_layer"]}
    report: dict = {"run_seconds": seconds, "workloads": {}}
    ok = True

    for workload in args.workloads.split(","):
        entry: dict = {"runs": [], "end_to_end": []}
        first_medians = {}
        for set_no in range(2):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            first = 1 + set_no * args.seeds
            for seed in range(first, first + args.seeds):
                env, result = bench_run(workload, seed, seconds, 0)
                ok &= set(result["metrics"]) == set(bounds) and result["correct"]
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                entry["runs"].append({
                    "set": set_no, "seed": seed, "ops": env["ops"],
                    "ops_beyond_p90": env["ops_beyond_p90"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            summary = {}
            for name, vals in values.items():
                med, spr = spread(vals)
                steady = name == "setup_s" or spr < bounds[name] / 3
                line = f"{workload:14s} set {set_no} {name:16s} median {med:12.5g}  spread {spr:7.4f}"
                if set_no:
                    base = first_medians[name]
                    worse = (base - med) / base if name in higher else (med - base) / base
                    steady &= worse <= bounds[name]
                    line += f"  worse than set 0 by {worse:+.4f}"
                first_medians.setdefault(name, med)
                ok &= steady
                summary[name] = {"median": med, "spread": spr, "bound": bounds[name],
                                 "steady": steady}
                print(f"{line}  bound {bounds[name]:.2f}  {'ok' if steady else 'WIDE'}",
                      flush=True)
            entry["end_to_end"].append(summary)

        (env_a, res_a), (env_b, res_b) = (bench_run(workload, 1, seconds, 1) for _ in range(2))
        exact = sorted(name for name, m in res_a["metrics"].items()
                       if m["unit"] in EXACT_UNITS or name in EXACT_RATIOS)
        differing = [name for name in exact
                     if res_a["metrics"][name]["value"] != res_b["metrics"][name]["value"]]
        same_ops = env_a["round_sha1"] == env_b["round_sha1"]
        names_ok = set(res_a["metrics"]) == per_layer
        ok &= not differing and same_ops and names_ok
        entry["traced"] = {"exact_metrics": len(exact), "differing": differing,
                           "same_op_sequence": same_ops, "per_layer_names_match": names_ok,
                           "metrics": {k: v["value"] for k, v in res_a["metrics"].items()}}
        print(f"{workload:14s} traced: {len(exact)} exact metrics, differing {differing}, "
              f"same op sequence {same_ops}, names match {names_ok}", flush=True)
        report["workloads"][workload] = entry

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
