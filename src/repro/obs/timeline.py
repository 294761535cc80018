"""Simulated-time telemetry timelines.

A :class:`TimelineSampler` rides the engine's tick hook
(:meth:`~repro.simkit.engine.Simulator.set_tick_hook`): at every tick
``k / hz`` of *simulated* time it reads — and never mutates — the
instantaneous observables of one or more server nodes (per-C-state core
occupancy, package power from the O(1) fixed-point accounting, in-flight
and queued requests, the frequency point, cumulative energy) and appends
one row per node. Ticks are not heap events, so a sampled run executes
the exact same event sequence as an unsampled one; the golden-digest
tests pin this bit-identity.

The collected timeline is a plain JSON-safe dict (see
:data:`TIMELINE_VERSION` for the shape) so it can ride inside
``RunResult`` through the store codec, be merged across shards, and be
plotted by ``repro report``::

    {
      "version": 1,
      "hz": 10.0,
      "times": [0.0, 0.1, ...],
      "series": {"package_power": [...], "cstate.C0": [...], ...},
      "nodes": [ {per-node series}, ... ]     # clusters only
    }

Aggregation across nodes always folds **in node order** (node 0 first),
both for a shared-simulator cluster and for the sharded per-node path
(:func:`merge_timelines`), so the two execution strategies produce
bit-identical aggregate series.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

#: Version tag stamped into every timeline dict.
TIMELINE_VERSION = 1

#: Series that aggregate across nodes as a mean; everything else
#: (occupancy counts, powers, energies, queue depths) is additive.
MEAN_SERIES = frozenset({"frequency_ghz"})


def rows_to_series(rows: Sequence[Dict[str, float]]) -> Dict[str, List[float]]:
    """Column-orient sampled rows; missing keys zero-fill.

    Keys are sorted so series layout is a function of the observed state
    names, never of dict insertion history.
    """
    if not rows:
        return {}
    keys: set = set()
    for row in rows:
        keys.update(row.keys())
    return {key: [row.get(key, 0.0) for row in rows] for key in sorted(keys)}


def aggregate_node_series(
    length: int, node_series: Sequence[Dict[str, List[float]]]
) -> Dict[str, List[float]]:
    """Fold per-node series into cluster aggregates, in node order.

    Additive series sum across nodes; :data:`MEAN_SERIES` average. The
    accumulation order is node 0, node 1, ... — the same order
    :func:`~repro.cluster.sharding.merge_node_results` uses for scalars —
    so shared-sim and sharded execution agree bit-for-bit.
    """
    keys: set = set()
    for series in node_series:
        keys.update(series.keys())
    aggregate: Dict[str, List[float]] = {}
    for key in sorted(keys):
        total = [0.0] * length
        for series in node_series:
            column = series.get(key)
            if column is None:
                continue
            for i, value in enumerate(column):
                total[i] += value
        if key in MEAN_SERIES and node_series:
            count = float(len(node_series))
            total = [value / count for value in total]
        aggregate[key] = total
    return aggregate


class TimelineSampler:
    """Samples one or more nodes' observables on engine ticks.

    Args:
        hz: sampling rate in *simulated* Hz (ticks at ``k / hz``).
        nodes: objects exposing ``telemetry_sample(time) -> dict`` (see
            :meth:`repro.server.node.ServerNode.telemetry_sample`); for a
            cluster, pass the nodes in node order.
    """

    def __init__(self, hz: float, nodes: Sequence[Any]):
        if not (hz > 0):
            raise ValueError(f"telemetry rate must be positive, got {hz}")
        self.hz = float(hz)
        self._nodes = list(nodes)
        self.times: List[float] = []
        self._rows: List[List[Dict[str, float]]] = [[] for _ in self._nodes]

    def attach(self, sim: Any) -> None:
        """Install this sampler as ``sim``'s tick hook."""
        sim.set_tick_hook(self.hz, self.sample)

    def sample(self, time: float) -> None:
        """Record one row per node at simulated ``time`` (read-only)."""
        self.times.append(time)
        for store, node in zip(self._rows, self._nodes):
            store.append(node.telemetry_sample(time))

    def finish(self) -> Dict[str, Any]:
        """Column-orient the samples into the timeline dict."""
        length = len(self.times)
        node_series = [rows_to_series(rows) for rows in self._rows]
        timeline: Dict[str, Any] = {
            "version": TIMELINE_VERSION,
            "hz": self.hz,
            "times": list(self.times),
        }
        if len(node_series) == 1:
            timeline["series"] = node_series[0]
        else:
            timeline["series"] = aggregate_node_series(length, node_series)
            timeline["nodes"] = node_series
        return timeline


def merge_timelines(
    timelines: Sequence[Optional[Dict[str, Any]]]
) -> Optional[Dict[str, Any]]:
    """Merge per-node single-node timelines into one cluster timeline.

    ``timelines`` must be ordered by node index (the sharded executor's
    node order); the aggregate series then match a shared-simulator
    cluster sampling the same nodes bit-for-bit. Returns ``None`` when no
    node carried a timeline; raises if only some did or the tick grids
    disagree (both indicate a plumbing bug, not bad data).
    """
    present = [t for t in timelines if t is not None]
    if not present:
        return None
    if len(present) != len(timelines):
        raise ValueError("cannot merge timelines: some nodes sampled, some did not")
    first = present[0]
    hz = first["hz"]
    times = first["times"]
    for timeline in present[1:]:
        if timeline["hz"] != hz or timeline["times"] != times:
            raise ValueError("cannot merge timelines with different tick grids")
    if len(present) == 1:
        return dict(first)
    node_series = [t["series"] for t in present]
    return {
        "version": TIMELINE_VERSION,
        "hz": hz,
        "times": list(times),
        "series": aggregate_node_series(len(times), node_series),
        "nodes": [dict(series) for series in node_series],
    }
