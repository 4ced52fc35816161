"""Calibration: measure this simulator's per-call monitoring costs.

The profile derivation in :mod:`repro.workloads.profiles` needs two
quantities, measured rather than assumed:

* ``t_mon`` — the extra virtual time one *monitored* (GHUMVEE-lockstep)
  call costs the master, versus native, and
* ``t_ipmon`` — the extra time one *unmonitored* (IP-MON-replicated)
  call costs.

We measure them by running a microbenchmark (a tight getpid loop) three
ways — native, GHUMVEE-only and BASE-level IP-MON — through the full
stack, and dividing the time difference by the call count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.baselines.native import run_native
from repro.core import Level, ReMon, ReMonConfig
from repro.guest.program import Compute, Program
from repro.kernel import Kernel, KernelConfig

CAL_CALLS = 400
CAL_GAP_NS = 4_000


def _calibration_program() -> Program:
    def main(ctx):
        for _ in range(CAL_CALLS):
            yield Compute(CAL_GAP_NS)
            yield ctx.sys.getpid()
        return 0

    return Program("calibration", main)


@dataclass(frozen=True)
class Calibration:
    """Measured per-call monitoring costs (virtual ns) for 2 replicas."""

    t_native_ns: float
    t_mon_ns: float
    t_ipmon_ns: float

    def __repr__(self):
        return "Calibration(native=%.0f ns, mon=+%.0f ns, ipmon=+%.0f ns)" % (
            self.t_native_ns,
            self.t_mon_ns,
            self.t_ipmon_ns,
        )


def _run_mvee(level: Level, replicas: int) -> float:
    kernel = Kernel(config=KernelConfig())
    config = ReMonConfig(replicas=replicas, level=level)
    mvee = ReMon(kernel, _calibration_program(), config)
    result = mvee.run(max_steps=10_000_000)
    assert not result.diverged, result.divergence
    return result.wall_time_ns


@lru_cache(maxsize=8)
def calibrate(replicas: int = 2) -> Calibration:
    """Measure the per-call monitored/unmonitored costs for a replica
    count (cached; deterministic)."""
    native = run_native(_calibration_program())
    native_ns = native.wall_time_ns
    # Disable memory-pressure effects for the per-call measurement by
    # subtracting the pure-compute baseline analytically: the
    # calibration program's pressure term is the same in both MVEE runs
    # and tiny next to the syscall costs, so the division below absorbs
    # it symmetrically.
    mon_ns = _run_mvee(Level.NO_IPMON, replicas)
    ipmon_ns = _run_mvee(Level.BASE, replicas)
    t_mon = max(1.0, (mon_ns - native_ns) / CAL_CALLS)
    t_ipmon = max(1.0, (ipmon_ns - native_ns) / CAL_CALLS)
    return Calibration(
        t_native_ns=native_ns / CAL_CALLS,
        t_mon_ns=t_mon,
        t_ipmon_ns=t_ipmon,
    )
