"""Steadiness check: run one workload with several seeds and report the
spread of every end-to-end metric against its bound.

Usage, from the root of the repository::

    python3 perfbench/steady.py --workload explore-plain --runs 10 \
        [--first-seed 1] [--save set1.json] [--against set0.json]

Each run is ``perfbench/run.py --trace 0`` with ``run_seconds`` from
``BENCHMARK.json`` and seeds ``first-seed, first-seed + 1, ...``.  For
each metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) /
median`` and the metric's bound.  A spread above a third of the bound
is flagged; ``setup_s`` is judged on its median only.  ``--against``
compares the medians with an earlier ``--save`` file: a median that is
worse by more than the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2]).get("env", {})
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the raw values here")
    parser.add_argument("--against", help="earlier --save file to compare")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]

    values = {m["name"]: [] for m in metrics}
    shares = set()
    for index in range(args.runs):
        seed = args.first_seed + index
        result = run_once(args.workload, seed, bench["run_seconds"])
        shares.add((result["failed"], result["attempted"],
                    result["failed"] / result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} " + " ".join(
                  f"{name}={values[name][-1]:.4g}" for name in values)
              + f" steal_s={result['env'].get('host_steal_s', 0):.2f}",
              flush=True)

    earlier = json.loads(Path(args.against).read_text()) if args.against \
        else None
    print(f"\n{args.workload}: {args.runs} runs, failed shares "
          f"{sorted({share for _, _, share in shares})}")
    print(f"{'metric':14} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        if name == "setup_s":
            verdict = "median only"
        elif spread > bound:
            verdict = "TOO WIDE"
        elif spread > bound / 3:
            verdict = "wider than bound/3"
        else:
            verdict = "steady"
        if earlier is not None:
            before = statistics.median(earlier["values"][name])
            change = (median - before) / before
            worse = -change if metric["better"] == "higher" else change
            verdict += f"; median {change:+.1%} vs earlier" + (
                " WORSE THAN BOUND" if worse > bound else "")
        print(f"{name:14} {median:10.4g} {q1:10.4g} {q3:10.4g} "
              f"{spread:7.1%} {bound:6.0%}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps({
            "workload": args.workload, "values": values,
            "shares": sorted(shares),
        }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
