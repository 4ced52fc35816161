"""Python calls per monitored replica call on single-host ReMon.

The host cost of one simulated replica call is what ReMon's run time is
made of, on both of the paper's monitor paths: a ptrace round trip
through GHUMVEE (``Level.NO_IPMON``) and an RB record through IP-MON
(``Level.BASE``). This check pins that cost as a count, which unlike a
timer is deterministic on one interpreter:

* run the calibration microbenchmark
  (``repro.workloads.calibrate._run_mvee(level, 2)``: 2 replicas x 400
  ``getpid``) twice back to back in one process, so the second run
  finds every import and lazy cache warm;
* take cProfile's total call count for the second run and divide it by
  the 800 replica calls.

The bounds sit 20 % under the counts before the hot paths were trimmed
(201.4 and 246.8). The count depends on the interpreter version, so the
check runs in CI's ``bench-smoke`` job on the pinned Python, not in
tier-1. Run with
``PYTHONPATH=src python -m pytest benchmarks/test_call_budget.py``.
"""

import cProfile
import pstats

import pytest

from repro.core import Level
from repro.workloads.calibrate import CAL_CALLS, _run_mvee

REPLICAS = 2

#: Upper bounds on Python calls per replica call.
BUDGETS = {
    Level.NO_IPMON: 161,
    Level.BASE: 197,
}


def calls_per_replica_call(level: Level) -> float:
    _run_mvee(level, REPLICAS)
    profile = cProfile.Profile()
    profile.enable()
    _run_mvee(level, REPLICAS)
    profile.disable()
    return pstats.Stats(profile).total_calls / (REPLICAS * CAL_CALLS)


@pytest.mark.parametrize("level", list(BUDGETS), ids=lambda level: level.name)
def test_calls_per_replica_call_within_budget(level):
    calls = calls_per_replica_call(level)
    print("%s: %.2f Python calls per replica call (budget %d)"
          % (level.name, calls, BUDGETS[level]))
    assert calls <= BUDGETS[level]
