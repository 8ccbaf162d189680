"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload explore-plain --seed 1 \
        --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout.  The script
re-executes itself once in a fresh interpreter with ``PYTHONHASHSEED``
fixed and the numpy/BLAS thread counts set to 1, sets the workload up,
runs one untimed warm-up operation of each kind, collects garbage, and
then runs the workload's round of operations serially (one client,
closed loop) as many times as fill ``--seconds`` on the reference
machine, at least three times.  All outputs are checked after the timed phase.

``--trace 0`` reports the end-to-end metrics.  The set-up is repeated in
two more fresh interpreters after the timed phase and ``setup_s`` is
the median of the three.  ``--trace 1`` runs the rounds once without and
once with every layer's entry points wrapped in spans (:mod:`spans`),
and reports the per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The script exits
with 2, printing no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Set-ups repeated in fresh interpreters after the timed phase.
EXTRA_SETUPS = 2


def host_steal_s() -> float:
    """Machine-wide steal time so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_s() -> float:
    times = os.times()
    return times.user + times.system


class GcClock:
    """``gc.callbacks`` entry summing collection time and count."""

    def __init__(self) -> None:
        self.ns = 0
        self.collections = 0
        self._start = 0

    def __call__(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._start
            self.collections += 1


class OpError:
    """An operation that raised instead of returning."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


class Phase:
    """Latencies and results of one timed phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.results: List[Tuple[int, Any]] = []
        self.wall = 0.0
        self.rounds = 0
        self.cpu = 0.0
        self.steal = 0.0
        self.gc_ms = 0.0
        self.gc_collections = 0

    def op_latencies_ms(self, round_size: int) -> List[float]:
        """Each operation's median wall latency over the phase's rounds.

        With three or more rounds a burst of host noise that slows one
        round of an operation does not move its median; with a single
        round this is the latency.
        """
        return [
            1000.0 * statistics.median(self.latencies[pos::round_size])
            for pos in range(round_size)
        ]


def timed_phase(calls, rounds: int, tracer=None,
                gc_clock: Optional[GcClock] = None) -> Phase:
    """Run ``rounds`` whole rounds of ``calls``."""
    phase = Phase()
    gc_ns0 = gc_clock.ns if gc_clock else 0
    gc_count0 = gc_clock.collections if gc_clock else 0
    latencies, results = phase.latencies, phase.results
    clock = time.perf_counter
    steal0, cpu0 = host_steal_s(), cpu_s()
    start = clock()
    for _ in range(rounds):
        for pos, call in enumerate(calls):
            if tracer is not None:
                tracer.op_id = len(latencies)
            began = clock()
            try:
                out = call()
            except Exception as exc:  # an operation failed; keep going
                out = OpError(exc)
            latencies.append(clock() - began)
            results.append((pos, out))
    elapsed = clock() - start
    phase.rounds = rounds
    phase.wall = elapsed
    phase.cpu = cpu_s() - cpu0
    phase.steal = host_steal_s() - steal0
    if gc_clock is not None:
        phase.gc_ms = (gc_clock.ns - gc_ns0) / 1e6
        phase.gc_collections = gc_clock.collections - gc_count0
    return phase


def check_phases(workload, phases: List[Phase]) -> Tuple[int, List[str]]:
    """Check every result; returns ``(failed operations, problems)``.

    An operation fails when it raised or when its output is wrong; only
    wrong outputs are problems, which make the run incorrect.  The
    sampled re-computations run on the first round of the first phase;
    a failing one fails every run of that operation.
    """
    failed = set()  # (phase number, index in the phase)
    problems: List[str] = []
    first_round: List[Tuple[int, Any]] = []
    for number, phase in enumerate(phases):
        for index, (pos, out) in enumerate(phase.results):
            op = workload.ops[pos]
            if isinstance(out, OpError):
                failed.add((number, index))
                print(f"  failed: {op.label}: {out.text}", file=sys.stderr)
                continue
            reason = workload.check(op, out)
            if reason is not None:
                failed.add((number, index))
                problems.append(f"{op.label}: {reason}")
            elif number == 0 and index < len(workload.ops):
                first_round.append((pos, out))
    for pos, reason in workload.sample_checks(first_round).items():
        problems.append(f"{workload.ops[pos].label}: {reason}")
        failed.update(
            (number, index)
            for number, phase in enumerate(phases)
            for index, (p, _) in enumerate(phase.results) if p == pos
        )
    return len(failed), problems


def latency_metrics(phase: Phase, round_size: int
                    ) -> Dict[str, Tuple[float, str]]:
    """Throughput and latency percentiles over the round's operations,
    each operation taken at its median latency (round sizes are >= 8)."""
    millis = phase.op_latencies_ms(round_size)
    return {
        "ops_per_s": (1000.0 * round_size / sum(millis), "1/s"),
        "op_p50_ms": (statistics.median(millis), "ms"),
        "op_p90_ms": (
            statistics.quantiles(millis, n=10, method="inclusive")[8], "ms"),
    }


def extra_setups(args) -> List[float]:
    """``setup_s`` of :data:`EXTRA_SETUPS` fresh interpreters."""
    samples = []
    for _ in range(EXTRA_SETUPS):
        env = dict(os.environ, PERFBENCH_T0=repr(time.time()))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--setup-only"],
            env=env, capture_output=True, text=True, timeout=150,
            check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def layer_metrics(workload, tracer, traced: Phase, plain: Phase,
                  explored, swept, batches) -> Dict[str, float]:
    """Per-layer metrics of the traced phase, keyed like the
    ``per_layer`` list of BENCHMARK.json (see README.md)."""
    ops = len(traced.latencies)
    n = len(workload.ops)

    def calls(name):
        return tracer.stat(name)[0] / ops

    def total_ms(name):
        return tracer.stat(name)[1] / 1e6 / ops

    def self_ms(name):
        return tracer.stat(name)[2] / 1e6 / ops

    def rate(count, name):
        busy = tracer.stat(name)[1] / 1e9
        return count / busy if busy else 0.0

    counts: Dict[str, float] = {}

    def count(name, value):
        counts[name] = counts.get(name, 0) + value

    for pos, out in traced.results:
        if not isinstance(out, OpError):
            workload.result_counts(workload.ops[pos], out, count)
    states = sum(r.states for r in explored)
    hits = sum(r.cache_hits for r in explored)
    probes = hits + sum(r.cache_misses for r in explored)
    batch_runs = sum(b.batch_size for b in batches)
    values = {
        "certify.points": counts.get("certify.points", 0) / traced.rounds,
        "certify.explorations": counts.get("certify.explorations", 0) / ops,
        "certify.escalations": counts.get("certify.escalations", 0) / ops,
        "certify.confirm_ms": total_ms("certify.confirm"),
        "certify.self_ms": self_ms("certify.point"),
        "exhaustive.states": states / ops,
        "exhaustive.runs": sum(r.runs for r in explored) / ops,
        "exhaustive.states_per_s": rate(states, "exhaustive.explore"),
        "exhaustive.self_ms": self_ms("exhaustive.explore"),
        "exhaustive.sleep_pruned": sum(r.sleep_pruned for r in explored) / ops,
        "exhaustive.reexpansions": sum(r.reexpansions for r in explored) / ops,
        "symmetry.canonical_calls": calls("symmetry.canonical"),
        "symmetry.canonical_ms": total_ms("symmetry.canonical"),
        "symmetry.orbit_hits": sum(
            r.stats.orbit_hits for r in explored) / ops,
        "symmetry.group_size_max": float(max(
            (r.stats.group_size for r in explored), default=0)),
        "visited.probes": calls("visited.probe"),
        "visited.probe_ms": total_ms("visited.probe"),
        "visited.hit_ratio": hits / probes if probes else 0.0,
        "kernel.step_calls": calls("kernel.step"),
        "kernel.step_ms": total_ms("kernel.step"),
        "kernel.snapshot_ms": total_ms("kernel.snapshot"),
        "kernel.restore_ms": total_ms("kernel.restore"),
        "kernel.run_calls": calls("kernel.run"),
        "kernel.run_ms": total_ms("kernel.run"),
        "shm.step_ms": total_ms("shm.step"),
        "shm.restore_calls": calls("shm.restore"),
        "shm.restore_ms": total_ms("shm.restore"),
        "shm.replayed_steps": sum(r.replayed_steps for r in explored) / ops,
        "shm.run_ms": total_ms("shm.run"),
        "judge.calls": calls("judge"),
        "judge.ms": total_ms("judge"),
        "oracles.calls": calls("oracles"),
        "oracles.ms": total_ms("oracles"),
        "sweep.runs": sum(s.runs for s in swept) / ops,
        "sweep.self_ms": self_ms("sweep"),
        "batch.runs": batch_runs / ops,
        "batch.runs_per_s": rate(batch_runs, "batch.run"),
        "batch.plan_ms": total_ms("batch.plan"),
        "batch.solve_ms": self_ms("batch.run"),
        "batch.stats_ms": total_ms("batch.stats"),
        "jobs.store_calls": calls("jobs.store"),
        "jobs.store_ms": total_ms("jobs.store"),
        "jobs.supervisor_self_ms": self_ms("jobs.supervisor"),
        "jobs.shards_completed": counts.get("jobs.shards_completed", 0) / ops,
        "jobs.retries": counts.get("jobs.retries", 0) / ops,
        "campaign.worker_ms": total_ms("campaign.worker"),
        "campaign.self_ms": self_ms("campaign.durable"),
        "process.cpu_s": plain.cpu,
        "process.gc_ms": plain.gc_ms,
        "process.gc_collections": float(plain.gc_collections),
        "host.steal_s": plain.steal,
        "trace.overhead_pct": 100.0 * (
            latency_metrics(plain, n)["ops_per_s"][0]
            / latency_metrics(traced, n)["ops_per_s"][0] - 1),
    }
    return values


def environment(phase: Phase) -> Dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "host_steal_s": phase.steal,
        "cpu_s": phase.cpu,
        "wall_s": phase.wall,
        "wall_ops_per_s": len(phase.latencies) / phase.wall,
        "rounds": phase.rounds,
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="certify-sym, explore-plain, campaign-batch "
                             "or sweep-scalar")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        env = dict(os.environ, PERFBENCH_T0=repr(time.time()), **PINNED_ENV)
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv], env)
    started = float(os.environ.pop("PERFBENCH_T0", repr(time.time())))

    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    for op in workload.warmup_ops():
        op.call()
    gc.collect()
    setup_s = time.time() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The traced run counts garbage collections in both of its phases,
    # so that the tracing overhead compares like with like.
    gc_clock = GcClock() if args.trace else None
    if gc_clock is not None:
        gc.callbacks.append(gc_clock)
    rounds = max(3, round(args.seconds / workload.ROUND_SECONDS))
    plain = timed_phase([op.call for op in workload.ops], rounds,
                        gc_clock=gc_clock)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = [plain]
    print(f"{args.workload} seed {args.seed}: {plain.rounds} rounds x "
          f"{len(workload.ops)} ops in {plain.wall:.2f} s")

    if gc_clock is not None:
        traced, metrics = traced_run(args, workload, plain, rounds,
                                     gc_clock)
        gc.callbacks.remove(gc_clock)
        phases.append(traced)
    failed, problems = check_phases(workload, phases)
    for problem in problems[:20]:
        print(f"  wrong output: {problem}", file=sys.stderr)

    if not args.trace:
        setups = [setup_s] + extra_setups(args)
        metrics = latency_metrics(plain, len(workload.ops))
        metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
        metrics["setup_s"] = (statistics.median(setups), "s")
        print(json.dumps({"env": environment(plain), "setup_samples": setups}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(phase.latencies) for phase in phases),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def traced_run(args, workload, plain: Phase, rounds: int,
               gc_clock: GcClock
               ) -> Tuple[Phase, Dict[str, Tuple[float, str]]]:
    """The spans phase: every layer wrapped, the same rounds re-run."""
    from spans import Tracer

    explored: List[Any] = []
    swept: List[Any] = []
    batches: List[Any] = []
    tracer = Tracer()
    tracer.install({
        "exhaustive.explore": explored.append,
        "sweep": swept.append,
        "batch.run": batches.append,
    })
    calls = [tracer.span(workload.op_span, op.call) for op in workload.ops]
    gc.collect()
    try:
        traced = timed_phase(calls, rounds, tracer, gc_clock)
    finally:
        tracer.uninstall()
    values = layer_metrics(workload, tracer, traced, plain,
                           explored, swept, batches)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps({"env": environment(plain),
                      "traced_rounds": traced.rounds,
                      "spans": len(tracer.spans) // 6}))
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return traced, {
        metric["name"]: (values[metric["name"]], metric["unit"])
        for metric in per_layer
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
