"""Host-independent performance gate: Python calls per simulated request.

Wall-time gates measure the machine as much as the code. The number of
Python frames a request costs measures only the code: it is the same on
a fast laptop and a slow CI runner, and it grows when a change adds a
call to the per-request path (a property read, a helper, an unfused
random draw). One fixed low-load memcached node — where almost every
request wakes an idle core, so the wake path dominates — runs under
``sys.setprofile`` and its Python-level ``call`` events are counted.

The budget sits about 10% above the measured count (22.8 calls per
completed request with CPython 3.11). Lower it when a change cuts the
path further; raise it only with the reason in the change log.
"""

import sys

from repro.server import ServerNode, named_configuration
from repro.simkit import sanitizer
from repro.workloads import memcached_workload

#: Python-level calls allowed per completed request.
CALL_BUDGET_PER_REQUEST = 25.0


def _count_calls():
    # The sanitizer's checked loop and audits add calls of their own.
    with sanitizer.enabled(False):
        node = ServerNode(
            memcached_workload(), named_configuration("baseline"),
            qps=15_000, horizon=0.1, seed=42,
        )
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = node.run()
    finally:
        sys.setprofile(previous)
    return calls, result.completed


def test_python_calls_per_request_within_budget():
    calls, completed = _count_calls()
    assert completed > 1000
    per_request = calls / completed
    print(f"\n{calls} Python calls for {completed} requests: "
          f"{per_request:.2f} per request (budget {CALL_BUDGET_PER_REQUEST})")
    assert per_request <= CALL_BUDGET_PER_REQUEST, (
        f"{per_request:.2f} Python calls per request exceeds the budget of "
        f"{CALL_BUDGET_PER_REQUEST}: a change added calls to the "
        "per-request path"
    )
