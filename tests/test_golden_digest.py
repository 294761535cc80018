"""Bit-identity golden tests for the perf-optimised hot path.

Two layers of protection:

1. **Pinned digests** — every spec in ``tests/golden_specs.py`` must
   reproduce the exact ``RunResult`` captured *before* the fast path and
   incremental power accounting landed (``tests/golden_digests.json``,
   generated from the pre-optimisation tree). Any change to a single bit
   of any observable — latency percentiles incl. p99.9, powers,
   residencies, transition rates, node_detail — fails here.

2. **Fast/reference equivalence** — the same node replayed under the
   runtime sanitizer (the engine's checked loop, plus the SAN003 re-sum
   of core powers against the fixed-point accumulator every 64 events)
   must match the plain run bit-for-bit, engine counters included, so
   the equivalence is enforced for any config, not just the pinned grid.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from golden_specs import GOLDEN_SPECS, digest_result, spec_label  # noqa: E402

from repro.server import ServerNode, named_configuration
from repro.simkit import sanitizer
from repro.workloads import memcached_workload, mysql_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")


def _load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=spec_label)
def test_pinned_digest(spec):
    golden = _load_golden()
    label = spec_label(spec)
    assert label in golden, f"no pinned digest for {label}; regenerate golden_digests.json"
    assert digest_result(spec.execute()) == golden[label], (
        f"RunResult for {label} is no longer bit-identical to the "
        "pre-optimisation baseline"
    )


def test_golden_file_covers_grid():
    """Every pinned digest corresponds to a live spec (no stale entries)."""
    golden = _load_golden()
    labels = {spec_label(spec) for spec in GOLDEN_SPECS}
    assert set(golden) == labels


class TestFastReferenceEquivalence:
    """The fast path must equal its sanitizer-audited replay.

    Under :func:`repro.simkit.sanitizer.enabled` the same node runs through
    the engine's SAN001 checked loop (every popped event's time and
    sequence number validated) and re-sums the core powers against the
    fixed-point accumulator every ``AUDIT_INTERVAL`` events (SAN003). The
    sanitizer only observes, so the audited run must reproduce the plain
    run bit for bit — for any config, not just the pinned grid.
    """

    AUDIT_INTERVAL = 64

    def _run(self, workload_factory=memcached_workload, **kwargs):
        node = ServerNode(
            workload_factory(),
            named_configuration(kwargs.pop("config", "baseline")),
            qps=kwargs.pop("qps", 120_000),
            horizon=kwargs.pop("horizon", 0.03),
            seed=kwargs.pop("seed", 42),
            **kwargs,
        )
        result = node.run()
        return node, result

    def _plain_and_audited(self, monkeypatch, **kwargs):
        with sanitizer.enabled(False):
            plain = self._run(**kwargs)
        monkeypatch.setattr(sanitizer, "AUDIT_INTERVAL", self.AUDIT_INTERVAL)
        with sanitizer.enabled():
            audited = self._run(**kwargs)
        assert plain[0].sim.sanitizer is None
        assert audited[0].sim.sanitizer is not None
        return plain, audited

    @pytest.mark.parametrize("config", ["baseline", "AW", "T_No_C6"])
    def test_bit_identical_results(self, monkeypatch, config):
        (_, plain), (_, audited) = self._plain_and_audited(
            monkeypatch, config=config)
        assert digest_result(plain) == digest_result(audited)

    def test_mysql_heavy_tail(self, monkeypatch):
        (_, plain), (_, audited) = self._plain_and_audited(
            monkeypatch, workload_factory=mysql_workload, qps=40_000)
        assert digest_result(plain) == digest_result(audited)

    def test_engine_counters_match(self, monkeypatch):
        """Both runs execute the same event sequence, so the perf
        counters — not just the physics — must agree exactly."""
        (node, plain), (node_audited, audited) = self._plain_and_audited(
            monkeypatch)
        assert plain.events_processed == audited.events_processed
        assert plain.events_processed == node.sim.events_processed
        assert node.sim.events_processed == node_audited.sim.events_processed
        assert plain.peak_pending_events == audited.peak_pending_events

    def test_incremental_power_total_matches_resum(self):
        """The fixed-point running total equals the exact sum of core
        powers at end of run (no drift after ~10^4 transitions)."""
        node, _ = self._run()
        import math

        exact = math.fsum(core.current_power for core in node.package.cores)
        assert node.package.core_power == pytest.approx(exact, abs=1e-12)
