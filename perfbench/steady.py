"""Steadiness tooling for the benchmark.

Repeat one workload with successive seeds and summarise each metric::

    python3 perfbench/steady.py --workload cubic-nested --runs 10 \\
        --out .perfbench/cubic-a.jsonl

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the interquartile
spread and (max - min) as shares of the median, next to the metric's
bound from ``BENCHMARK.json``.  Compare two saved sets of runs::

    python3 perfbench/steady.py --compare A.jsonl B.jsonl

which reports, per metric, how much worse B's median is than A's, as a
share of A's, against the bound.  Each saved line holds the run's
record (commit, Python and scipy versions, nproc, LP solver revision,
seed, reference-loop time) and its result object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _declared() -> dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    process = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"seed {seed}: exit {process.returncode}\n"
                         f"{process.stderr[-2000:]}")
    record = json.loads(lines[-2])
    return {"run": record["perfbench_run"], "notes": record["notes"],
            "extra": record["extra"], "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> None:
    declared = _declared()
    names = list(runs[0]["result"]["metrics"])
    print(f"{len(runs)} runs of {runs[0]['run']['workload']}; reference "
          f"loop {min(r['run']['reference_loop_s'] for r in runs):.4f}-"
          f"{max(r['run']['reference_loop_s'] for r in runs):.4f} s")
    print(f"{'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / mid if mid else 0.0
        spread = (max(values) - min(values)) / mid if mid else 0.0
        bound = declared.get(name, {}).get("bound")
        flag = "" if bound is None else (
            "  ok" if iqr < bound / 3 else "  over bound/3")
        print(f"{name:26s} {mid:12.5f} {q1:12.5f} {q3:12.5f} {iqr:8.4f} "
              f"{spread:9.4f} {bound if bound is not None else '':>6}{flag}")


def compare(first: list[dict], second: list[dict]) -> int:
    declared = _declared()
    worse_than_bound = 0
    print(f"{'metric':26s} {'median A':>12s} {'median B':>12s} "
          f"{'B worse by':>10s} {'bound':>6s}")
    for name in first[0]["result"]["metrics"]:
        a = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in first)
        b = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in second)
        spec = declared.get(name, {})
        sign = -1.0 if spec.get("better") == "higher" else 1.0
        worse = sign * (b - a) / a if a else 0.0
        bound = spec.get("bound")
        over = bound is not None and worse > bound
        worse_than_bound += over
        print(f"{name:26s} {a:12.5f} {b:12.5f} {worse:10.4f} "
              f"{bound if bound is not None else '':>6}"
              f"{'  WORSE' if over else ''}")
    return 1 if worse_than_bound else 0


def _load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run as a JSON line")
    parser.add_argument("--compare", nargs=2, metavar="RUNS.jsonl")
    args = parser.parse_args()
    if args.compare:
        return compare(_load(args.compare[0]), _load(args.compare[1]))
    if not args.workload:
        parser.error("--workload or --compare is required")
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(runs[-1]) + "\n")
        metrics = runs[-1]["result"]["metrics"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in metrics.items()),
            file=sys.stderr, flush=True)
    summarise(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
