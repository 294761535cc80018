"""Tests of the benchmark itself: its contract, checks and sensitivity.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import cProfile
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "tests", ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import golden_specs  # noqa: E402
import repro.uarch.core as core_module  # noqa: E402
from perfbench import bench, layers, run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Busy-wait injected into every ``Core.wake``: more than the host time a whole
#: node-lowload request costs, so the slowdown dwarfs host noise.
WAKE_DELAY_S = 50e-6

#: The injected delay is compiled under ``repro/uarch/core.py`` so the
#: profile sees it as that module's code, as an edit to it would be.
_DELAY_SRC = """
def _delayed_wake(self, time, frequency=None):
    deadline = _perf_counter() + WAKE_DELAY_S
    while _perf_counter() < deadline:
        pass
    return _original_wake(self, time, frequency)
"""


def short(specs, horizon_scale):
    return [s.with_(horizon=s.horizon * horizon_scale) for s in specs]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == bench.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_the_seed_generates_the_specs(workload):
    build = bench.WORKLOADS[workload].build
    assert build(bench.DEFAULT_SEED) == build(bench.DEFAULT_SEED)
    assert build(bench.DEFAULT_SEED) != build(bench.HELD_OUT_SEED)
    assert len(bench.pinned_digests(workload)) == len(build(bench.DEFAULT_SEED))


@pytest.mark.parametrize("index", [0, 2, 8])
def test_digest_matches_the_golden_digest(index):
    result = golden_specs.GOLDEN_SPECS[index].execute()
    assert bench.digest_result(result) == golden_specs.digest_result(result)


def test_checker_counts_mismatches_and_missing_results():
    spec = golden_specs.GOLDEN_SPECS[0]
    result = spec.execute()
    checker = bench.Checker()
    checker.check([result, result])
    assert (checker.attempted, checker.failed) == (2, 0)
    other = spec.with_(seed=spec.seed + 1).execute()
    checker.check([other, None])
    assert (checker.attempted, checker.failed) == (4, 2)


@pytest.mark.parametrize("workload, scale, count", [
    ("node-lowload", 0.1, 2),
    ("fleet-busy", 0.1, 2),
    ("sweep-store", 1.0, 4),
])
def test_layer_map_covers_the_profile(workload, scale, count, tmp_path):
    specs = short(bench.WORKLOADS[workload].build(bench.DEFAULT_SEED)[:count], scale)
    profile = cProfile.Profile()
    checker = bench.Checker()
    layers.in_process_passes(specs, tmp_path, checker, profile)
    folded = layers.Folded(profile)
    assert checker.failed == 0
    assert folded.unmapped == set()
    assert folded.coverage() >= 0.95


def _serial_rate(specs, profile=None):
    """Best of three serial passes: served requests per host second."""
    best = 0.0
    for _ in range(3):
        with layers.profiling(profile):
            wall, results = bench.serial_pass(specs)
        best = max(best, sum(map(bench.served_requests, results)) / wall)
    return best


def test_a_slower_wake_shows_in_requests_per_s_and_in_the_core_layer(monkeypatch):
    specs = short(bench.WORKLOADS["node-lowload"].build(bench.DEFAULT_SEED)[:2], 0.2)
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"]
                 if m["name"] == "requests_per_s")
    plain_profile = cProfile.Profile()
    plain_rate = _serial_rate(specs)
    _serial_rate(specs, plain_profile)

    namespace = {"_perf_counter": time.perf_counter,
                 "WAKE_DELAY_S": WAKE_DELAY_S,
                 "_original_wake": core_module.Core.wake}
    exec(compile(_DELAY_SRC, core_module.__file__, "exec"), namespace)
    monkeypatch.setattr(core_module.Core, "wake", namespace["_delayed_wake"])
    slow_profile = cProfile.Profile()
    slow_rate = _serial_rate(specs)
    _serial_rate(specs, slow_profile)

    assert 1.0 - slow_rate / plain_rate > bound
    plain, slow = layers.Folded(plain_profile), layers.Folded(slow_profile)
    wakes = slow.calls("repro.uarch.core", "wake")
    assert wakes == plain.calls("repro.uarch.core", "wake") > 0
    added = slow.layer_s["core"] - plain.layer_s["core"]
    assert added >= 0.8 * wakes * WAKE_DELAY_S
    others = (slow.total_s - slow.layer_s["core"]) - (
        plain.total_s - plain.layer_s["core"])
    assert others < 0.5 * added
    for folded in (plain, slow):
        assert folded.calls("repro.cluster.balancer", "pick") == 0
        assert folded.layer_s.get("cluster", 0.0) == 0.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "node-lowload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


_SPAWN_THEN_STOP = """
import multiprocessing, sys
from multiprocessing import resource_tracker
sys.path.insert(0, sys.argv[1])
from perfbench import run
if __name__ == "__main__":
    worker = multiprocessing.get_context("spawn").Process(target=int)
    worker.start()
    worker.join()
    print(resource_tracker._resource_tracker._pid)
    run.stop_children()
"""


def test_stop_children_leaves_no_process_behind(tmp_path):
    script = tmp_path / "spawn_then_stop.py"
    script.write_text(_SPAWN_THEN_STOP)
    out = subprocess.run([sys.executable, str(script), str(ROOT)],
                         capture_output=True, text=True, timeout=60, check=True)
    tracker_pid = int(out.stdout)
    with pytest.raises(ProcessLookupError):
        os.kill(tracker_pid, 0)
