"""The traced run: where a workload's host time goes, layer by layer.

Each layer is measured from outside the program:

- cProfile in this process over the in-process passes (serial and
  replay), with self time folded into layers by module. The self time of
  a C builtin or of a stdlib function (heap ops, ``random()``, ``log``,
  ``json``, ``sqlite3``) is charged to the layer of the function that
  called it; stdlib ``random`` is the ``rng`` layer itself. Call counts
  of named functions come from the same profile.
- Timing wrappers around public functions: ``ScenarioSpec.execute``,
  ``ResultStore.put_many``/``get_many`` and ``result_from_dict``.
- The ``RunManifest`` JSONL files the sweep runner and the distributed
  workers write, and a progress hook on the runner.

Every traced round also repeats the in-process passes untraced, so
``trace.overhead_ratio`` reports what the profiler costs.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import pickle
import pstats
import sqlite3
import statistics
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import repro
import repro.store.result_store as result_store_module
from repro.obs.manifest import RunManifest, spec_key
from repro.server.metrics import RunResult
from repro.store import ResultStore
from repro.sweep.spec import ScenarioSpec

from perfbench import bench

#: Every module whose code runs in the profiled passes, by layer. A
#: ``repro`` module missing here is reported as unmapped and fails the
#: benchmark's own test, so a new module is placed deliberately.
LAYER_MAP: Dict[str, str] = {
    "repro.simkit.engine": "engine",
    "repro.simkit.sanitizer": "engine",
    "repro.server.node": "node",
    "repro.server.config": "node",
    "repro.server.metrics": "node",
    "repro.uarch.core": "core",
    "repro.uarch.coherence": "core",
    "repro.core.architecture": "core",
    "repro.core.ccsm": "core",
    "repro.core.cstates": "core",
    "repro.core.pma_flow": "core",
    "repro.core.ppa": "core",
    "repro.core.ufpg": "core",
    "repro.power.clock": "core",
    "repro.power.leakage": "core",
    "repro.power.pdn": "core",
    "repro.power.powergate": "core",
    "repro.power.retention": "core",
    "repro.uarch.turbo": "turbo",
    "repro.uarch.package": "turbo",
    "repro.governor.idle": "governor",
    "repro.workloads": "rng",
    "repro.workloads.base": "rng",
    "repro.workloads.memcached": "rng",
    "repro.workloads.loadgen": "rng",
    "repro.workloads.profiles": "rng",
    "repro.simkit.distributions": "rng",
    "random": "rng",
    "repro.simkit.stats": "stats",
    "repro.simkit.sketch": "stats",
    "repro.cluster.balancer": "cluster",
    "repro.cluster.cluster": "cluster",
    "repro.cluster.fanout": "cluster",
    "repro.cluster.sharding": "cluster",
    "repro.sweep.runner": "sweep",
    "repro.sweep.spec": "sweep",
    "repro.store.result_store": "store",
    "repro.store.serialize": "store",
    "repro.obs.manifest": "obs",
    "repro.obs.timeline": "obs",
    "perfbench.bench": "harness",
    "perfbench.layers": "harness",
}

#: Layers reported as ``<layer>.self_share``.
SHARE_LAYERS = (
    "engine", "node", "core", "turbo", "governor", "rng", "stats",
    "cluster", "sweep", "store",
)

#: Pseudo-layers: a ``repro`` module absent from :data:`LAYER_MAP`, and
#: profiled time no caller chain leads back to a mapped function.
UNMAPPED = "unmapped"
UNATTRIBUTED = "unattributed"

#: The traced run's metrics: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("engine.events_per_request", "1/request", "lower"),
    ("engine.peak_pending", "count", "lower"),
    ("engine.self_share", "fraction", "lower"),
    ("node.self_us_per_request", "us/request", "lower"),
    ("node.self_share", "fraction", "lower"),
    ("core.wakes_per_request", "1/request", "lower"),
    ("core.power_commits_per_request", "1/request", "lower"),
    ("core.self_share", "fraction", "lower"),
    ("turbo.self_share", "fraction", "lower"),
    ("turbo.queries_per_request", "1/request", "lower"),
    ("governor.self_share", "fraction", "lower"),
    ("governor.choices_per_request", "1/request", "lower"),
    ("rng.draws_per_request", "1/request", "lower"),
    ("rng.self_share", "fraction", "lower"),
    ("stats.self_share", "fraction", "lower"),
    ("stats.merge_s", "s", "lower"),
    ("cluster.self_share", "fraction", "lower"),
    ("cluster.picks_per_request", "1/request", "lower"),
    ("sweep.self_share", "fraction", "lower"),
    ("sweep.point_wall_p50_s", "s", "lower"),
    ("sweep.orchestration_share", "fraction", "lower"),
    ("sweep.result_pickle_bytes", "bytes", "lower"),
    ("store.self_share", "fraction", "lower"),
    ("store.put_s_per_point", "s", "lower"),
    ("store.get_s_per_point", "s", "lower"),
    ("store.decode_s_per_point", "s", "lower"),
    ("store.row_bytes", "bytes", "lower"),
    ("store.hit_ratio", "fraction", "higher"),
    ("distrib.claim_wait_p50_s", "s", "lower"),
    ("distrib.settle_lag_p50_s", "s", "lower"),
    ("distrib.worker_busy_share", "fraction", "higher"),
    ("distrib.heartbeats", "count", "lower"),
    ("distrib.retries", "count", "lower"),
    ("trace.requests", "count", "higher"),
    ("trace.points", "count", "higher"),
    ("trace.layer_coverage", "fraction", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

SRC_DIR = Path(repro.__file__).resolve().parent.parent

FuncKey = Tuple[str, int, str]


# -- profile folding ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def module_of(filename: str) -> Optional[str]:
    """Dotted module of a profiled file, or None for C builtins."""
    if filename == "~" or filename.startswith("<"):
        return None
    path = Path(filename)
    for base in (SRC_DIR, bench.PERFBENCH_DIR.parent):
        try:
            parts = list(path.resolve().relative_to(base).with_suffix("").parts)
        except ValueError:
            continue
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)
    return path.stem  # stdlib or site-packages: the bare module name


def _own_layer(key: FuncKey, unmapped: Set[str]) -> Optional[str]:
    """The layer a function's self time belongs to, None to charge callers."""
    module = module_of(key[0])
    if module is None:
        return None
    if module in LAYER_MAP:
        return LAYER_MAP[module]
    if module == "repro" or module.startswith(("repro.", "perfbench.")):
        unmapped.add(module)
        return UNMAPPED
    return None


class Folded:
    """Self time per layer and call counts of one cProfile run."""

    def __init__(self, profile: cProfile.Profile):
        self.stats: Dict[FuncKey, tuple] = pstats.Stats(profile).stats
        self.unmapped: Set[str] = set()
        self._resolved: Dict[FuncKey, Dict[str, float]] = {}
        self.layer_s: Dict[str, float] = {}
        for key, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            for layer, weight in self._resolve(key, frozenset()).items():
                self.layer_s[layer] = self.layer_s.get(layer, 0.0) + tt * weight
        self.total_s = sum(self.layer_s.values())

    def _resolve(self, key: FuncKey, path: frozenset) -> Dict[str, float]:
        """Layer weights of a function's self time (sums to 1)."""
        if key in self._resolved:
            return self._resolved[key]
        own = _own_layer(key, self.unmapped)
        if own is not None:
            weights = {own: 1.0}
        else:
            callers = self.stats[key][4] if key in self.stats else {}
            shares = {c: v[2] for c, v in callers.items() if c not in path}
            total = sum(shares.values())
            if total <= 0:  # no caller, or no self time to split
                weights = {UNATTRIBUTED: 1.0}
            else:
                weights = {}
                for caller, share in shares.items():
                    for layer, w in self._resolve(caller, path | {key}).items():
                        weights[layer] = weights.get(layer, 0.0) + w * share / total
        if not path:
            self._resolved[key] = weights
        return weights

    def share(self, layer: str) -> float:
        return self.layer_s.get(layer, 0.0) / self.total_s if self.total_s else 0.0

    def coverage(self) -> float:
        """Share of profiled self time charged to a mapped layer."""
        lost = self.layer_s.get(UNMAPPED, 0.0) + self.layer_s.get(UNATTRIBUTED, 0.0)
        return 1.0 - lost / self.total_s if self.total_s else 0.0

    def calls(self, module: str, name: Optional[str] = None) -> int:
        """Calls of the functions called ``name`` (or of all) in ``module``."""
        return sum(
            value[1] for key, value in self.stats.items()
            if (name is None or key[2] == name) and module_of(key[0]) == module
        )

    def builtin_calls(self, name: str) -> int:
        return sum(v[1] for k, v in self.stats.items() if k[0] == "~" and k[2] == name)

    def merge_s(self) -> float:
        """Time inside top-level merges of the stats and sketch modules."""
        def is_merge(key: FuncKey) -> bool:
            return "merge" in key[2] and module_of(key[0]) in (
                "repro.simkit.stats", "repro.simkit.sketch")

        return sum(
            caller_value[3]
            for key, value in self.stats.items() if is_merge(key)
            for caller, caller_value in value[4].items() if not is_merge(caller)
        )


@contextlib.contextmanager
def profiling(profile: Optional[cProfile.Profile]) -> Iterator[None]:
    if profile is None:
        yield
        return
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


def in_process_passes(
    specs: Sequence[ScenarioSpec],
    workdir: Path,
    checker: bench.Checker,
    profile: Optional[cProfile.Profile] = None,
) -> Tuple[float, List[object]]:
    """Serial pass, then the replays against a store it filled.

    Returns the wall of the serial pass plus the replays, and the serial
    pass's results.
    """
    with profiling(profile):
        serial_s, results = bench.serial_pass(specs)
    checker.check(results)
    store_dir = str(workdir / "replay-store")
    ResultStore(store_dir).put_many(
        [(s.cache_key, r, s) for s, r in zip(specs, results)
         if isinstance(r, RunResult)]
    )
    wall = serial_s
    for _ in range(bench.REPLAYS):
        with profiling(profile):
            replay_s, replayed = bench.replay_pass(specs, store_dir)
        checker.check(replayed)
        wall += replay_s
    return wall, results


# -- instrumented round ------------------------------------------------------------

@contextlib.contextmanager
def timing(owner: object, attr: str, sink: List[float]) -> Iterator[None]:
    """Append the wall time of every call of ``owner.attr`` to ``sink``."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def read_manifest(path: Path) -> List[dict]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rows.append(json.loads(line))
    return rows


class Instruments:
    """The probe of an instrumented round: wrappers, manifests, hooks."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.execute_s: List[float] = []
        self.put_s: List[float] = []
        self.get_s: List[float] = []
        self.decode_s: List[float] = []
        self.point_wall_s: List[float] = []
        self.row_bytes: List[float] = []
        self.replayed = 0
        self.store_hits = 0
        self.put_points = 0
        self.claim_wait_s: List[float] = []
        self.settle_lag_s: List[float] = []
        self.busy_s = 0.0
        self.alive_s = 0.0
        self.heartbeats = 0
        self.retries = 0
        self._manifests = 0

    def _manifest(self) -> Tuple[Path, RunManifest]:
        self._manifests += 1
        path = self.workdir / f"manifest{self._manifests}.jsonl"
        return path, RunManifest(str(path))

    @contextlib.contextmanager
    def __call__(self, pass_name: str, data_dir: str) -> Iterator[dict]:
        if pass_name == "serial":
            with timing(ScenarioSpec, "execute", self.execute_s):
                yield {}
            return
        path, manifest = self._manifest()
        settled: Dict[str, float] = {}

        def progress(done: int, total: int, spec: ScenarioSpec) -> None:
            settled[spec_key(spec)] = time.time()

        with contextlib.ExitStack() as stack:
            stack.callback(manifest.close)
            if pass_name == "pool":
                stack.enter_context(timing(ResultStore, "put_many", self.put_s))
            if pass_name == "replay":
                stack.enter_context(timing(ResultStore, "get_many", self.get_s))
                stack.enter_context(timing(
                    result_store_module, "result_from_dict", self.decode_s))
            yield {"manifest": manifest, "progress": progress}
        rows = read_manifest(path)
        if pass_name == "pool":
            self.point_wall_s += [r["wall_s"] for r in rows if r["event"] == "finished"]
            self.put_points += len(settled)
        elif pass_name == "replay":
            sweep = next(r for r in rows if r["event"] == "sweep")
            self.replayed += sweep["points"]
            self.store_hits += sweep["store_hits"]
            with contextlib.closing(sqlite3.connect(
                    str(Path(data_dir) / "results.sqlite"))) as conn:
                (mean_bytes,) = conn.execute(
                    "SELECT AVG(LENGTH(result)) FROM results").fetchone()
            self.row_bytes.append(float(mean_bytes or 0.0))
        else:
            self.retries += sum(
                r.get("requeued", 0) for r in rows if r["event"] == "recovered")
            self._read_workers(Path(data_dir) / "manifests", settled)

    def _read_workers(self, manifest_dir: Path, settled: Dict[str, float]) -> None:
        for path in sorted(manifest_dir.glob("*.jsonl")):
            rows = read_manifest(path)
            previous = None
            start = end = None
            for row in rows:
                event = row["event"]
                if event == "heartbeat":
                    self.heartbeats += 1
                    continue
                if event == "worker_start":
                    start = row["t"]
                elif event == "worker_exit":
                    end = row["t"]
                elif event == "claimed" and previous is not None:
                    self.claim_wait_s.append(row["t"] - previous)
                elif event == "finished":
                    self.busy_s += row["wall_s"]
                    if row["key"] in settled:
                        self.settle_lag_s.append(settled[row["key"]] - row["wall"])
                elif event == "retry":
                    self.retries += 1
                previous = row["t"]
            if start is not None and end is not None:
                self.alive_s += end - start


def _p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_traced(
    workload: str, seed: int, seconds: float, workdir: Path
) -> Dict[str, object]:
    """Traced rounds until ``seconds`` pass; returns the per-layer metrics.

    A traced round runs the in-process passes untraced, one instrumented
    round of all four passes, and the in-process passes under cProfile.
    """
    specs = bench.WORKLOADS[workload].build(seed)
    checker = bench.make_checker(workload, seed)
    profile = cProfile.Profile()
    instruments = Instruments(workdir)

    def traced_round(index: int):
        base = workdir / f"traced{index}"
        plain, _ = in_process_passes(specs, base / "plain", checker)
        outcome = bench.run_round(
            specs, base / "instrumented", checker, probe=instruments)
        traced, results = in_process_passes(
            specs, base / "profiled", checker, profile)
        return plain, traced, outcome.pool_s, results

    outcomes = bench.rounds_within(seconds, traced_round)
    rounds = len(outcomes)
    plain_s = sum(o[0] for o in outcomes)
    traced_s = sum(o[1] for o in outcomes)
    pool_s = [o[2] for o in outcomes]
    results = [r for r in outcomes[-1][3] if isinstance(r, RunResult)]
    requests = rounds * sum(bench.served_requests(r) for r in results)
    folded = Folded(profile)
    points = len(specs)
    executed_per_round = sum(instruments.execute_s) / rounds
    workers = min(bench.JOBS, points)

    def per_request(count: int) -> float:
        return _ratio(count, requests)

    metrics = {
        "engine.events_per_request": per_request(
            rounds * sum(r.events_processed for r in results)),
        "engine.peak_pending": max(r.peak_pending_events for r in results),
        "node.self_us_per_request": per_request(folded.layer_s.get("node", 0.0)) * 1e6,
        "core.wakes_per_request": per_request(folded.calls("repro.uarch.core", "wake")),
        "core.power_commits_per_request": per_request(
            folded.calls("repro.uarch.core", "_commit_power")),
        "turbo.queries_per_request": per_request(
            folded.calls("repro.uarch.turbo") + folded.calls("repro.uarch.package")),
        "governor.choices_per_request": per_request(
            folded.calls("repro.governor.idle", "choose")),
        "rng.draws_per_request": per_request(
            folded.builtin_calls("<method 'random' of '_random.Random' objects>")
            + folded.builtin_calls(
                "<method 'getrandbits' of '_random.Random' objects>")),
        "stats.merge_s": folded.merge_s() / rounds,
        "cluster.picks_per_request": per_request(
            folded.calls("repro.cluster.balancer", "pick")),
        "sweep.point_wall_p50_s": _p50(instruments.point_wall_s),
        "sweep.orchestration_share": 1.0 - _ratio(
            executed_per_round, workers * statistics.median(pool_s)),
        "sweep.result_pickle_bytes": statistics.mean(
            len(pickle.dumps(r)) for r in results),
        "store.put_s_per_point": _ratio(
            sum(instruments.put_s), instruments.put_points),
        "store.get_s_per_point": _ratio(
            sum(instruments.get_s), instruments.replayed),
        "store.decode_s_per_point": _ratio(
            sum(instruments.decode_s), instruments.replayed),
        "store.row_bytes": _p50(instruments.row_bytes),
        "store.hit_ratio": _ratio(instruments.store_hits, instruments.replayed),
        "distrib.claim_wait_p50_s": _p50(instruments.claim_wait_s),
        "distrib.settle_lag_p50_s": _p50(instruments.settle_lag_s),
        "distrib.worker_busy_share": _ratio(instruments.busy_s, instruments.alive_s),
        "distrib.heartbeats": instruments.heartbeats,
        "distrib.retries": instruments.retries,
        "trace.requests": requests,
        "trace.points": points * rounds,
        "trace.layer_coverage": folded.coverage(),
        "trace.overhead_ratio": _ratio(traced_s, plain_s),
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = folded.share(layer)
    return {
        "checker": checker,
        "rounds": rounds,
        "metrics": {name: metrics[name] for name, _, _ in PER_LAYER},
        "unmapped": sorted(folded.unmapped),
        "layer_s": dict(sorted(folded.layer_s.items())),
    }
