"""Workloads, passes and correctness checks of the repository benchmark.

A workload is a list of :class:`~repro.sweep.spec.ScenarioSpec` points
generated from a seed; the program under test only ever receives those
specs. One *round* runs the points the four ways a ``repro sweep`` user
can run them, each from a cold memo:

- ``serial``: ``SweepRunner(executor="serial")`` in this process, the
  path without ``--jobs``; gives ``requests_per_s``;
- ``pool``: ``SweepRunner(executor="process", jobs=2)`` writing a fresh
  :class:`~repro.store.ResultStore`, the ``--jobs 2`` path; gives
  ``points_per_s``;
- ``distributed``: a ``DistributedExecutor(jobs=2)`` on a fresh queue and
  store, the ``--distributed`` path; gives ``distributed_points_per_s``;
- ``replay``: a fresh memo against the store the pool pass filled;
  gives ``replay_points_per_s``.

Every result of every pass is digested (``float.hex`` rendering, as in
``tests/golden_specs.digest_result``). A point fails when it has no
result or when its digest differs from the reference: the digests pinned
in ``digests.json`` at :data:`DEFAULT_SEED`, else the first serial pass.
All times are host time; simulated observables are checked, not timed.

On the shared 2-CPU VM the benchmark was sized on, host speed drifts by
25-35% in regimes that last minutes, and moves every timing of a run
together. Each run therefore also times a fixed pure-Python reference
loop that does not touch the program, between its passes, and reports
every timing at :data:`REFERENCE_RATE`: a rate is multiplied, and a time
divided, by ``REFERENCE_RATE`` over the run's median loop rate. A change
to the program moves the timed passes and not the loop, so it still shows
in full.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, ContextManager, Dict, List, Optional, Sequence, TypeVar,
)

from repro.distrib import DistributedExecutor, JobQueue
from repro.server.metrics import RunResult
from repro.store import ResultStore
from repro.sweep.runner import FailurePolicy, SweepRunner
from repro.sweep.spec import ScenarioSpec

T = TypeVar("T")

#: Seed whose digests are pinned in ``digests.json``.
DEFAULT_SEED = 42

#: Seed never used while the workloads were sized; a claim measured on the
#: sizing seeds must also hold here.
HELD_OUT_SEED = 271828

#: Worker processes of the pool and distributed passes (the host has 2 CPUs).
JOBS = 2

#: Replays per round: one replay takes a few milliseconds, mostly sqlite
#: round-trips, so the round repeats it and the metric is the median over
#: all replays of the run.
REPLAYS = 30

#: Fresh interpreters timed for ``setup_s``, spread evenly over the run;
#: the metric is their median.
SETUP_PROBES = 8

#: Loops per host second of :func:`reference_loop`, about its median on
#: the 2-CPU x86_64 Linux VM (CPython 3.11.7) the benchmark was sized on;
#: timings are reported at this loop rate.
REFERENCE_RATE = 25.0

#: Failures are recorded, not raised: a failed point counts in ``failed``.
POLICY = FailurePolicy(mode="record")

PERFBENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = PERFBENCH_DIR / "digests.json"


# -- workloads -----------------------------------------------------------------

def _seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def node_lowload(seed: int) -> List[ScenarioSpec]:
    """Single 10-core Memcached nodes at 15 KQPS over 1 s, snoops on.

    At about 4% core utilisation nearly every request wakes a sleeping
    core, so the wake path (core, turbo, governor, node) does the work and
    no cluster code runs.
    """
    baseline_seed, aw_seed = _seeds(seed, 2)
    return [
        ScenarioSpec("memcached", "baseline", qps=15_000, horizon=1.0,
                     seed=baseline_seed, snoops=True),
        ScenarioSpec("memcached", "AW", qps=15_000, horizon=1.0,
                     seed=aw_seed, snoops=True),
    ]


def fleet_busy(seed: int) -> List[ScenarioSpec]:
    """Two 4-node cluster points at 750 KQPS over 0.01 s.

    A shared-simulator fan-out-4 ``jsq`` point at about 2/3 core
    utilisation (balancer picks on every leaf, few wakes per leaf) and a
    partitioned ``round_robin`` point whose per-node latency sketches are
    merged.
    """
    jsq_seed, rr_seed = _seeds(seed, 2)
    return [
        ScenarioSpec("memcached", "baseline", qps=750_000, horizon=0.01,
                     seed=jsq_seed, nodes=4, fanout=4, balancer="jsq"),
        ScenarioSpec("memcached", "AW", qps=750_000, horizon=0.01,
                     seed=rr_seed, nodes=4, balancer="round_robin",
                     sketch_error=0.01),
    ]


def sweep_store(seed: int) -> List[ScenarioSpec]:
    """A 40-point grid of short single-node points (~40 ms host each).

    Points are small enough that orchestration, pickling, store writes and
    reads and queue/lease round-trips weigh against simulation.
    """
    seeds = iter(_seeds(seed, 40))
    return [
        ScenarioSpec("memcached", config, qps=qps, horizon=0.02,
                     seed=next(seeds))
        for config in ("baseline", "AW")
        for qps in (60_000, 80_000, 100_000, 120_000)
        for _ in range(5)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], List[ScenarioSpec]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "node-lowload",
            "2 nodes x 15 KQPS x 1 s (30k requests): nearly every request "
            "wakes an idle core, so the wake path dominates and no cluster "
            "code runs",
            node_lowload,
        ),
        Workload(
            "fleet-busy",
            "2 busy 4-node clusters x 750 KQPS x 0.01 s (37.5k served "
            "requests): balancer picks, fan-out joins and sketch merges "
            "weigh more, and few requests wake a core",
            fleet_busy,
        ),
        Workload(
            "sweep-store",
            "40 single-node points x 60-120 KQPS x 0.02 s (72k requests, "
            "~40 ms host each): orchestration, pickling, the store codec and queue "
            "leases weigh against simulation",
            sweep_store,
        ),
    )
}


def workload_sizes(specs: Sequence[ScenarioSpec]) -> Dict[str, object]:
    """Generated sizes of a spec list: points, offered requests, horizons."""
    return {
        "points": len(specs),
        "offered_requests": round(sum(s.qps * s.horizon for s in specs)),
        "horizons_s": sorted({s.horizon for s in specs}),
    }


def setup(workload: str, seed: int, workdir: str) -> List[ScenarioSpec]:
    """What a run does before its first timed call, after its imports."""
    specs = WORKLOADS[workload].build(int(seed))
    ResultStore(os.path.join(workdir, "store"))
    JobQueue(os.path.join(workdir, "queue"))
    return specs


_PROBE = (
    "import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1]]; "
    "from perfbench import bench; bench.setup(*sys.argv[2:])"
)


def probe_setup(root: Path, workload: str, seed: int, probe_dir: Path) -> float:
    """Wall time of a fresh interpreter doing imports and :func:`setup`."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(root), workload, str(seed),
         str(probe_dir)],
        check=True,
    )
    elapsed = time.perf_counter() - start
    shutil.rmtree(probe_dir, ignore_errors=True)
    return elapsed


# -- host speed ------------------------------------------------------------------

def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop that uses no program code.

    It does what the simulator's event loop does most: heap pushes and
    pops keyed by random draws, and dict updates.
    """
    rng = random.Random(1)
    heap: List[tuple] = []
    counts: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(40_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            _, key = heapq.heappop(heap)
            counts[key & 255] = counts.get(key & 255, 0) + 1
    return time.perf_counter() - start


@dataclass
class HostSpeed:
    """Reference-loop rates sampled over a run."""

    rates: List[float] = field(default_factory=list)

    def sample(self) -> None:
        self.rates.append(1.0 / reference_loop())

    def slowdown(self) -> float:
        """``REFERENCE_RATE`` over the median sampled rate (>1: host slow)."""
        return REFERENCE_RATE / statistics.median(self.rates)


# -- correctness -----------------------------------------------------------------

def digest_result(result: RunResult) -> str:
    """sha256 over every observable of a result, floats as ``float.hex``.

    Same rendering as ``tests/golden_specs.digest_result`` (a test keeps
    the two equal): two digests match only if every bit does.
    """
    parts = [
        f"completed={result.completed}",
        f"samples={result.server_latency.count}",
    ]
    if result.server_latency.count:
        for p in (50, 95, 99, 99.9):
            parts.append(f"p{p}={result.server_latency.percentile(p).hex()}")
    parts.append(f"avg_core_power={result.avg_core_power.hex()}")
    parts.append(f"package_power={result.package_power.hex()}")
    for name, value in sorted(result.residency.items()):
        parts.append(f"residency:{name}={float(value).hex()}")
    for name, value in sorted(result.transitions_per_second.items()):
        parts.append(f"transitions:{name}={float(value).hex()}")
    parts.append(f"turbo_grant_rate={float(result.turbo_grant_rate).hex()}")
    parts.append(f"snoops_served={result.snoops_served}")
    parts.append(f"hedges_issued={result.hedges_issued}")
    parts.append(json.dumps(result.node_detail, sort_keys=True))
    return hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest()


def pinned_digests(workload: str) -> List[str]:
    return json.loads(DIGESTS_PATH.read_text())[workload]


@dataclass
class Checker:
    """Compares every pass's results against one reference digest list."""

    reference: Optional[List[str]] = None
    attempted: int = 0
    failed: int = 0

    def check(self, results: Sequence[object]) -> None:
        digests = [
            digest_result(r) if isinstance(r, RunResult) else None
            for r in results
        ]
        if self.reference is None:
            self.reference = [d or "" for d in digests]
        self.attempted += len(digests)
        self.failed += sum(
            d is None or d != ref for d, ref in zip(digests, self.reference)
        )


def served_requests(result: RunResult) -> int:
    """Requests the servers completed: each leaf of a fan-out request counts.

    This is the unit of simulated work every per-request metric divides
    by; for a single node it is ``completed``.
    """
    if result.node_detail is None:
        return result.completed
    return sum(int(node["completed"]) for node in result.node_detail)


# -- passes ------------------------------------------------------------------

#: ``probe(pass_name, data_dir)`` returns a context manager around one
#: pass that yields extra :class:`SweepRunner` keyword arguments;
#: ``data_dir`` is the store (pool, replay) or queue (distributed) the
#: pass writes.
Probe = Callable[[str, str], ContextManager[Dict[str, object]]]


def _no_probe(pass_name: str, data_dir: str) -> ContextManager[Dict[str, object]]:
    return contextlib.nullcontext({})


def timed_run(runner: SweepRunner, specs: Sequence[ScenarioSpec]):
    start = time.perf_counter()
    results = runner.run_many(specs)
    return time.perf_counter() - start, results


def serial_pass(specs, probe: Probe = _no_probe):
    with probe("serial", "") as extra:
        return timed_run(
            SweepRunner(executor="serial", cache={}, policy=POLICY, **extra),
            specs,
        )


def replay_pass(specs, store_dir: str, probe: Probe = _no_probe):
    store = ResultStore(store_dir)
    with probe("replay", store_dir) as extra:
        return timed_run(
            SweepRunner(executor="serial", cache={}, store=store,
                        policy=POLICY, **extra),
            specs,
        )


@dataclass
class Round:
    """Host walls of one round's passes, in seconds."""

    requests: int
    serial_s: float
    pool_s: float
    distributed_s: float
    replay_s: List[float] = field(default_factory=list)


def run_round(
    specs: Sequence[ScenarioSpec],
    workdir: Path,
    checker: Checker,
    probe: Probe = _no_probe,
    speed: Optional[HostSpeed] = None,
) -> Round:
    """One cold serial, pool and distributed pass, then the replays.

    ``speed``, when given, samples the reference loop before each pass.
    """
    sample = speed.sample if speed is not None else (lambda: None)
    pool_dir = str(workdir / "pool-store")
    dist_store = str(workdir / "dist-store")
    pool_store = ResultStore(pool_dir)
    distributed = DistributedExecutor(
        str(workdir / "queue"), store_dir=dist_store, jobs=JOBS, policy=POLICY
    )
    try:
        sample()
        serial_s, results = serial_pass(specs, probe)
        checker.check(results)
        requests = sum(
            served_requests(r) for r in results if isinstance(r, RunResult)
        )

        sample()
        with probe("pool", pool_dir) as extra:
            pool_s, results = timed_run(
                SweepRunner(executor="process", jobs=JOBS, cache={},
                            store=pool_store, policy=POLICY, **extra),
                specs,
            )
        checker.check(results)

        sample()
        with probe("distributed", str(workdir / "queue")) as extra:
            distributed_s, results = timed_run(
                SweepRunner(executor=distributed, cache={},
                            store=ResultStore(dist_store), **extra),
                specs,
            )
        checker.check(results)

        outcome = Round(requests, serial_s, pool_s, distributed_s)
        sample()
        for _ in range(REPLAYS):
            replay_s, results = replay_pass(specs, pool_dir, probe)
            checker.check(results)
            outcome.replay_s.append(replay_s)
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any reaped child."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def rounds_within(seconds: float, run_one: Callable[[int], T]) -> List[T]:
    """Run ``run_one(index)`` while the next round should end in ``seconds``.

    At least one round runs. The next round is expected to take the
    median time of the rounds so far, so a run ends close to ``seconds``
    instead of overrunning by up to a round.
    """
    start = time.perf_counter()
    outcomes: List[T] = []
    durations: List[float] = []
    while not outcomes or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        began = time.perf_counter()
        outcomes.append(run_one(len(outcomes)))
        durations.append(time.perf_counter() - began)
    return outcomes


def make_checker(workload: str, seed: int) -> Checker:
    if seed == DEFAULT_SEED:
        return Checker(reference=pinned_digests(workload))
    return Checker()


def measure(
    workload: str, seed: int, seconds: float, root: Path, workdir: Path
) -> Dict[str, object]:
    """The untraced run: rounds until ``seconds`` pass, medians of them.

    Timings are reported at :data:`REFERENCE_RATE`; ``raw`` holds them as
    the wall clock read them.
    """
    speed = HostSpeed()
    speed.sample()
    specs = WORKLOADS[workload].build(seed)
    checker = make_checker(workload, seed)
    setup_times: List[float] = []
    start = time.perf_counter()

    def probe() -> None:
        setup_times.append(probe_setup(
            root, workload, seed, workdir / f"setup{len(setup_times)}"))

    def round_and_probe(index: int) -> Round:
        due = len(setup_times) * seconds / SETUP_PROBES
        if time.perf_counter() - start >= due:
            probe()
        return run_round(specs, workdir / f"round{index}", checker, speed=speed)

    rounds = rounds_within(seconds, round_and_probe)
    while len(setup_times) < SETUP_PROBES:
        probe()
    setup_s = statistics.median(setup_times)
    points = len(specs)
    raw = {
        "requests_per_s": statistics.median(
            r.requests / r.serial_s for r in rounds),
        "points_per_s": statistics.median(points / r.pool_s for r in rounds),
        "distributed_points_per_s": statistics.median(
            points / r.distributed_s for r in rounds),
        "replay_points_per_s": statistics.median(
            points / s for r in rounds for s in r.replay_s),
        "setup_s": setup_s,
    }
    slowdown = speed.slowdown()
    metrics = {
        name: value / slowdown if name == "setup_s" else value * slowdown
        for name, value in raw.items()
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "checker": checker,
        "rounds": len(rounds),
        "raw": raw,
        "reference_rate": REFERENCE_RATE / slowdown,
        "metrics": metrics,
    }


if __name__ == "__main__":
    # Regenerate digests.json (only for an intended behaviour change):
    #   PYTHONPATH=src python3 -m perfbench.bench > perfbench/digests.json
    print(json.dumps({
        name: [digest_result(s.execute()) for s in w.build(DEFAULT_SEED)]
        for name, w in WORKLOADS.items()
    }, indent=2))
