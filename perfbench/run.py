"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload node-lowload --seed 42 \\
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any
point failed or any digest differed, and 2 when the checkout holds no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("requests_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("distributed_points_per_s", "1/s"),
    ("replay_points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The passes join their own workers, but the ``spawn`` workers of the
    distributed pass start multiprocessing's resource tracker, which would
    otherwise outlive this process until it reads EOF on its pipe.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that :func:`stop_children` runs.

    Forked pool workers get the default action back: they must still die
    on the SIGTERM their pool sends them.
    """
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT} to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, layers

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench.WORKLOADS)}")
    seed = bench.DEFAULT_SEED if args.seed is None else args.seed
    exit_on_sigterm()
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.trace:
            outcome = layers.measure_traced(
                args.workload, seed, args.seconds, workdir)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            outcome = bench.measure(
                args.workload, seed, args.seconds, ROOT, workdir)
            units = dict(END_TO_END)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work_root.rmdir()

    checker = outcome["checker"]
    specs = bench.WORKLOADS[args.workload].build(seed)
    print(f"workload {args.workload} seed {seed} rounds {outcome['rounds']} "
          f"sizes {json.dumps(bench.workload_sizes(specs))}")
    print(f"host nproc={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()}")
    for name, value in outcome["metrics"].items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    if "raw" in outcome:
        print(f"reference loop {outcome['reference_rate']:.6g}/s, timings "
              f"above reported at {bench.REFERENCE_RATE:g}/s; as read: "
              + ", ".join(f"{name} {value:.6g}"
                          for name, value in outcome["raw"].items()))
    if args.trace:
        print(f"layer self seconds {json.dumps(outcome['layer_s'])}")
        if outcome["unmapped"]:
            print(f"unmapped repro modules {outcome['unmapped']}")
    ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"failed_ratio {ratio:.6g} ({checker.failed} of "
          f"{checker.attempted} point results failed or mismatched)")
    correct = checker.failed == 0 and checker.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
