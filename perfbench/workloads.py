"""The benchmark's four workloads.

Each workload draws one *round* of operations from its seed.  A run
repeats that round a fixed number of times, so every run attempts whole
rounds of the same operations.  An operation is one serial call into a
public entry point of the program; its result is kept and checked after
the timed phase.

Checks compare the program's outputs with properties that do not depend
on today's output: the paper's claimed regions, k-agreement recomputed
from the decision sets, symmetry on against symmetry off, POR against
full DFS, the batch engine against scalar replays of its plan, and a
same-seed re-run.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.protocols  # noqa: F401 -- populate the spec registry
import repro.verify.certify as certify_mod
import repro.harness.exhaustive as exhaustive_mod
import repro.harness.sweep as sweep_mod
from repro.core.solvability import Solvability, classify
from repro.core.validity import by_code
from repro.failures.crash import CrashPlan, CrashPoint
from repro.paper import CLAIMED_REGIONS
from repro.protocols.base import get_spec

__all__ = ["Op", "WORKLOADS"]


class Op:
    """One operation of a round: a label, a kind and a zero-arg call."""

    __slots__ = ("kind", "label", "call", "meta")

    def __init__(self, kind: str, label: str, call: Callable[[], Any],
                 meta: Any = None) -> None:
        self.kind = kind
        self.label = label
        self.call = call
        self.meta = meta


class Workload:
    """Base class: a round of operations drawn from ``seed``."""

    name = ""
    #: Span name of one operation in the traced run.
    op_span = "op"
    #: Wall time of one round on the reference 2-CPU machine; a run of
    #: ``--seconds`` does ``round(seconds / ROUND_SECONDS)`` rounds, at
    #: least three, so that each operation's median latency ignores one
    #: slowed round, and the number of operations timed does not depend
    #: on the speed of the host or of the program.
    ROUND_SECONDS = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: List[Op] = []

    def setup(self) -> None:
        """Create what the operations need (inputs, stores)."""

    def warmup_ops(self) -> List[Op]:
        """One untimed operation of each kind, run before timing."""
        seen: Dict[str, Op] = {}
        for op in self.ops:
            seen.setdefault(op.kind, op)
        return list(seen.values())

    def check(self, op: Op, result: Any) -> Optional[str]:
        """What is wrong with one result, or ``None``."""
        raise NotImplementedError

    def sample_checks(
        self, results: Sequence[Tuple[int, Any]]
    ) -> Dict[int, str]:
        """Independent re-computations over a seed-drawn sample.

        ``results`` holds ``(round position, result)`` of one round;
        returns the failing positions with their reasons.
        """
        return {}

    def result_counts(self, op: Op, result: Any, count) -> None:
        """Per-layer counts the program returns with its result."""


# ---------------------------------------------------------------------------
# certify-sym


class CertifySym(Workload):
    """``certify_claims`` grid points with the ``repro certify`` defaults.

    Symmetry canonicalisation does about a third of the work here.  The
    points run in grid order, and the seed only draws the points re-run
    with symmetry off: with a seed-drawn order the median latency varied
    more between runs (237-347 ms against 227-291 ms over nine runs).
    """

    name = "certify-sym"
    op_span = "certify.point"
    ROUND_SECONDS = 15.0
    N = 3
    #: ``(spec, k values)`` certified at t in :attr:`TS`: the grid points
    #: with a failure, 9 points and about 15 s a round.  protocol-e's
    #: k=1 points (SM counterexamples of about 0.4 s) are left out: they
    #: sat at the median, and their latency moved twice as much with the
    #: host's speed as the whole round's did.  Sorted by cost, the median
    #: now falls on the protocol-b counterexamples (about 0.28 s), with
    #: no point within a factor of five above them.
    GRID = (
        ("protocol-a@mp-cr", (1, 2)),
        ("protocol-b@mp-cr", (1, 2)),
        ("protocol-e@sm-cr", (2,)),
    )
    TS = (1, 2)
    #: Sample re-run with symmetry off: points up to this many states.
    SYM_OFF_STATES = 3000

    def setup(self) -> None:
        claims = {claim.spec_name: claim for claim in CLAIMED_REGIONS}
        points = []
        for spec_name, ks in self.GRID:
            claim = claims[spec_name]
            spec = get_spec(spec_name)
            for k in ks:
                for t in self.TS:
                    inside = bool(spec.solvable(self.N, k, t))
                    status = classify(
                        claim.model, by_code(claim.validity), self.N, k, t
                    ).status
                    if not inside and status is not Solvability.IMPOSSIBLE:
                        continue  # certify skips it: the claim is silent
                    expected = (
                        "CONFIRMED_SOLVABLE" if inside
                        else "COUNTEREXAMPLE_CONFIRMED"
                    )
                    points.append((spec_name, k, t, expected))
        self.ops = [
            Op("sm" if get_spec(s).is_shared_memory else "mp",
               f"{s} k={k} t={t}", self._call(s, k, t), (s, k, t, expected))
            for s, k, t, expected in points
        ]

    def _call(self, spec_name: str, k: int, t: int,
              symmetry: bool = True) -> Callable[[], Any]:
        def run():
            report = certify_mod.certify_claims(
                n=self.N, specs=[spec_name], ks=[k], ts=[t],
                symmetry=symmetry,
            )
            return report.claims[0].points[0]
        return run

    def warmup_ops(self) -> List[Op]:
        # The cheapest outside-region point of each kind.
        return [
            Op("mp", "warm-up mp", self._call("protocol-b@mp-cr", 1, 1)),
            Op("sm", "warm-up sm", self._call("protocol-e@sm-cr", 1, 1)),
        ]

    def check(self, op: Op, point) -> Optional[str]:
        expected = op.meta[3]
        if point.verdict != expected:
            return f"verdict {point.verdict}, paper region says {expected}"
        if point.states <= 0 or point.explorations <= 0:
            return "no exploration recorded"
        return None

    def sample_checks(self, results) -> Dict[int, str]:
        cheap = [
            (pos, point) for pos, point in results
            if point.states <= self.SYM_OFF_STATES
        ]
        failures = {}
        for pos, point in self.rng.sample(cheap, min(2, len(cheap))):
            spec_name, k, t, _ = self.ops[pos].meta
            plain = self._call(spec_name, k, t, symmetry=False)()
            if plain.verdict != point.verdict:
                failures[pos] = (
                    f"symmetry off gives {plain.verdict}, "
                    f"on gives {point.verdict}"
                )
        return failures

    def result_counts(self, op, point, count) -> None:
        count("certify.points", 1)
        count("certify.explorations", point.explorations)
        count("certify.escalations", int(point.escalated))


# ---------------------------------------------------------------------------
# explore-plain


def _draw_inputs(rng: random.Random, n: int) -> List[str]:
    """A distinct or a two-valued input vector, in a random order."""
    if rng.random() < 0.5:
        values = [f"v{i}" for i in range(n)]
    else:
        values = ["v" if i < (n + 1) // 2 else "w" for i in range(n)]
    rng.shuffle(values)
    return values


class ExplorePlain(Workload):
    """Single ``explore_mp``/``explore_sm`` instances, ``repro exhaustive
    --verify`` settings: symmetry off, POR on, exact store, oracle judge.

    Every instance slot fixes a spec, a point and a crash-point kind; the
    seed draws the inputs and the crashing process.  Instances that only
    differ by such a renaming explore (nearly) the same number of states,
    so runs with different seeds do the same amount of work.
    """

    name = "explore-plain"
    op_span = "exhaustive.instance"
    ROUND_SECONDS = 4.0
    N = 3
    #: ``(spec, k, t, crash points)`` of the uncapped instance slots; a
    #: ``None`` crash point is the failure-free run.  Sorted by cost the
    #: round of 22 is: 4 crash-before-start, 1 SM crash and 4
    #: crash-before-send instances (35-65 ms), 4 failure-free MP
    #: instances (1088 states, about 165 ms), 4 crash-before-second-step
    #: instances (about 260 ms), then the five slowest below.  The median
    #: thus falls in the middle of the failure-free MP group, whose cost
    #: no seed changes.
    SLOTS = tuple(
        (spec, k, t, (None, CrashPoint(after_sends=0),
                      CrashPoint(after_steps=0), CrashPoint(after_steps=1)))
        for spec, k, t in (
            ("protocol-a@mp-cr", 2, 1),
            ("chaudhuri@mp-cr", 2, 1),
            ("protocol-a-wv2@mp-cr", 2, 1),
            ("protocol-a@mp-byz", 3, 1),
        )
    ) + (
        ("protocol-e@sm-cr", 2, 1, (None, CrashPoint(after_steps=1))),
    )
    #: The SM DFS copies its whole choice prefix per child, so
    #: protocol-f@sm-cr at n=3, k=3, t=1 never reaches a leaf and its
    #: time and memory grow with the square of the depth.  Four
    #: budget-capped instances and the failure-free protocol-e@sm-cr
    #: instance are the five slowest operations of a round (about 400
    #: ms each), so the 90th percentile falls in their middle; the
    #: capped instances also set the peak memory.  Their inputs and
    #: crash plans are fixed: crashing process 2 lets runs reach leaves
    #: and makes an instance four times cheaper.
    CAPPED = ("protocol-f@sm-cr", 3, 1, ("v0", "v1", "v2"), (
        None, CrashPlan({0: CrashPoint(after_steps=1)}),
        CrashPlan({0: CrashPoint(after_steps=2)}),
        CrashPlan({1: CrashPoint(after_steps=2)})))
    CAP = 800
    #: The ``repro exhaustive`` default budget, for the uncapped ones.
    MAX_STATES = 200_000
    #: Sample re-explored with full DFS: instances up to this many states.
    FULL_DFS_STATES = 500

    def setup(self) -> None:
        ops = []
        for spec_name, k, t, points in self.SLOTS:
            for point in points:
                ops.append(self._drawn_op(spec_name, k, t, point))
        spec_name, k, t, inputs, plans = self.CAPPED
        for plan in plans:
            ops.append(self._op(spec_name, k, t, list(inputs), plan, self.CAP))
        self.ops = ops

    def _drawn_op(self, spec_name, k, t, point) -> Op:
        inputs = _draw_inputs(self.rng, self.N)
        plan = None
        if point is not None:
            plan = CrashPlan({self.rng.randrange(self.N): point})
        return self._op(spec_name, k, t, inputs, plan, None)

    def _op(self, spec_name, k, t, inputs, plan, cap) -> Op:
        spec = get_spec(spec_name)
        kind = "sm" if spec.is_shared_memory else "mp"
        meta = {"spec": spec_name, "k": k, "t": t, "inputs": inputs,
                "plan": plan, "cap": cap, "kind": kind}
        label = f"{spec_name} k={k} t={t} {inputs} {plan!r}"
        return Op(kind, label, self._call(meta), meta)

    def _call(self, meta, por: bool = True) -> Callable[[], Any]:
        spec = get_spec(meta["spec"])
        factory = exhaustive_mod.SpecFactory(
            meta["spec"], self.N, meta["k"], meta["t"]
        )
        validity = by_code(spec.validity)
        budget = meta["cap"] or self.MAX_STATES

        def run():
            if meta["kind"] == "sm":
                return exhaustive_mod.explore_sm(
                    factory, meta["inputs"], meta["k"], meta["t"], validity,
                    crash_adversary=meta["plan"], verify=True,
                    max_states=budget,
                )
            return exhaustive_mod.explore_mp(
                factory, meta["inputs"], meta["k"], meta["t"], validity,
                crash_adversary=meta["plan"], verify=True, por=por,
                max_states=budget,
            )
        return run

    def check(self, op: Op, result) -> Optional[str]:
        meta = op.meta
        if result.violations:
            return f"violations {sorted(map(sorted, result.violation_kinds()))}"
        if meta["cap"] is not None:
            if result.exhausted or result.states != meta["cap"]:
                return (
                    f"capped instance: exhausted={result.exhausted} "
                    f"states={result.states}, cap {meta['cap']}"
                )
            return None
        if not result.exhausted:
            return f"not exhausted after {result.states} states"
        if not result.decision_sets or result.runs <= 0:
            return "no complete run recorded"
        widest = max(len(decided) for decided in result.decision_sets)
        if widest > meta["k"] or result.max_distinct_decisions != widest:
            return (
                f"k-agreement: {widest} distinct decisions, k={meta['k']}, "
                f"reported {result.max_distinct_decisions}"
            )
        return None

    def sample_checks(self, results) -> Dict[int, str]:
        cheap = [
            (pos, result) for pos, result in results
            if self.ops[pos].kind == "mp"
            and self.ops[pos].meta["cap"] is None
            and result.states <= self.FULL_DFS_STATES
        ]
        failures = {}
        for pos, result in self.rng.sample(cheap, min(2, len(cheap))):
            full = self._call(self.ops[pos].meta, por=False)()
            if (full.decision_sets != result.decision_sets
                    or full.violation_kinds() != result.violation_kinds()
                    or full.exhausted != result.exhausted):
                failures[pos] = "POR and full DFS disagree"
        return failures


# ---------------------------------------------------------------------------
# campaign-batch


class CampaignBatch(Workload):
    """Serial durable campaigns over the batch-modelled MP crash specs.

    Each operation is one ``run_campaign_durable`` (jobs=1, engine auto,
    fresh run id) on an in-memory sqlite job store made during set-up, so
    no disk flush is timed and the supervisor neither sleeps nor forks.
    """

    name = "campaign-batch"
    op_span = "campaign.durable"
    ROUND_SECONDS = 0.8
    N = 16
    POINTS = 2
    #: Runs per point of the round's campaigns: sizes a user would pick,
    #: two of each, so that the median and the 90th percentile of the
    #: round each fall between two campaigns of the same size.
    RUNS = (200, 200, 250, 250, 300, 300, 350, 350, 400, 400)

    def setup(self) -> None:
        import repro.harness.campaign as campaign_mod
        from repro.batch.engine import BATCH_FAMILIES
        from repro.jobs import JobStore

        self.campaign_mod = campaign_mod
        self.specs = tuple(sorted(
            name for name in BATCH_FAMILIES
            if get_spec(name).model.is_crash
            and not get_spec(name).is_shared_memory
        ))
        self.store = JobStore(":memory:")
        self._fresh = 0
        self.ops = []
        for runs in self.RUNS:
            campaign = self._campaign(self.rng.randrange(1 << 30), runs)
            self.ops.append(Op(
                "campaign", f"campaign seed={campaign.seed} runs={runs}",
                self._call(campaign),
                {"campaign": campaign,
                 "shards": len(campaign_mod.campaign_shards(campaign))},
            ))

    def _campaign(self, seed: int, runs: int):
        return self.campaign_mod.Campaign(
            name=f"bench-{seed}", n_values=(self.N,),
            points_per_spec=self.POINTS, runs_per_point=runs,
            seed=seed, spec_names=self.specs, engine="auto",
        )

    def _call(self, campaign) -> Callable[[], Any]:
        def run():
            self._fresh += 1
            return self.campaign_mod.run_campaign_durable(
                self.store, campaign=campaign,
                run_id=f"{campaign.name}-{self._fresh}", jobs=1,
            )
        return run

    def check(self, op: Op, outcome) -> Optional[str]:
        result, report = outcome
        expected = op.meta["shards"]
        if (report.completed != expected or report.failed
                or report.retries or not report.drained):
            return (
                f"shards: {report.completed}/{expected} completed, "
                f"{report.failed} failed, {report.retries} retries"
            )
        if len(result.records) != expected or not result.clean:
            return f"{len(result.records)} records, clean={result.clean}"
        for record in result.records:
            if (record.engine != "batch"
                    or record.runs != op.meta["campaign"].runs_per_point):
                return f"{record.key}: {record.engine}, {record.runs} runs"
            if record.max_distinct > record.k:
                return f"{record.key}: {record.max_distinct} decisions > k"
        return None

    def sample_checks(self, results) -> Dict[int, str]:
        from repro.batch import batch_vs_replay
        from repro.harness.sweep import SweepConfig

        failures = {}
        for pos, _ in self.rng.sample(list(results), 2):
            shards = self.campaign_mod.campaign_shards(
                self.ops[pos].meta["campaign"]
            )
            _, payload = self.rng.choice(shards)
            _, _, mismatched, details = batch_vs_replay(
                get_spec(payload["spec"]), payload["n"], payload["k"],
                payload["t"],
                SweepConfig(runs=payload["runs"], seed=payload["seed"]),
            )
            if mismatched:
                failures[pos] = (
                    f"batch vs replay: {mismatched} runs differ, "
                    f"first {details[0]}"
                )
        return failures

    def result_counts(self, op, outcome, count) -> None:
        _, report = outcome
        count("jobs.shards_completed", report.completed)
        count("jobs.retries", report.retries)


# ---------------------------------------------------------------------------
# sweep-scalar


class SweepScalar(Workload):
    """``sweep_spec`` with the ``repro sweep`` defaults (50 runs, scalar
    engine) at the campaign-sampled solvable points of every registered
    spec at n=6 and n=8.  The seed is the campaign seed."""

    name = "sweep-scalar"
    op_span = "sweep.point"
    ROUND_SECONDS = 5.0
    N_VALUES = (6, 8)
    RUNS = 50

    def setup(self) -> None:
        from repro.harness.campaign import Campaign, campaign_shards

        campaign = Campaign(
            name="sweep-scalar", n_values=self.N_VALUES,
            seed=self.rng.randrange(1 << 30),
        )
        self.ops = []
        for _, payload in campaign_shards(campaign):
            spec = get_spec(payload["spec"])
            self.ops.append(Op(
                spec.model.shorthand, f"{payload['spec']} n={payload['n']} "
                f"k={payload['k']} t={payload['t']}",
                self._call(payload), payload,
            ))

    def _call(self, payload) -> Callable[[], Any]:
        spec = get_spec(payload["spec"])
        config = sweep_mod.SweepConfig(runs=self.RUNS, seed=payload["seed"])

        def run():
            return sweep_mod.sweep_spec(
                spec, payload["n"], payload["k"], payload["t"], config,
            )
        return run

    def check(self, op: Op, stats) -> Optional[str]:
        if stats.runs != self.RUNS or stats.engine != "scalar":
            return f"{stats.runs} runs on the {stats.engine} engine"
        if not stats.clean:
            return f"{len(stats.violations)} violations"
        if stats.max_distinct_decisions > op.meta["k"]:
            return f"{stats.max_distinct_decisions} decisions > k"
        return None

    def sample_checks(self, results) -> Dict[int, str]:
        failures = {}
        for pos, stats in self.rng.sample(list(results), 2):
            again = self.ops[pos].call()
            if (again.decisions_histogram != stats.decisions_histogram
                    or again.violations != stats.violations
                    or again.runs != stats.runs):
                failures[pos] = "same-seed re-run differs"
        return failures


WORKLOADS = {
    cls.name: cls
    for cls in (CertifySym, ExplorePlain, CampaignBatch, SweepScalar)
}
