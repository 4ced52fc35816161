"""Baselines the paper evaluates ReMon against.

* :func:`~repro.baselines.native.run_native` — a single un-monitored
  process (the denominator of every "normalized execution time");
* GHUMVEE standalone — ReMon with IP-MON disabled
  (``ReMonConfig(level=Level.NO_IPMON)``), the conservative CP MVEE of
  Figure 1(a);
* :class:`~repro.baselines.varan.Varan` — a reliability-oriented,
  in-process, loosely-synchronized MVEE in the style of VARAN
  (Figure 1(b)): fast, but the master runs ahead even for sensitive
  calls and nothing enforces lockstep.
"""

from repro.baselines.native import NativeResult, run_native
from repro.baselines.varan import Varan, VaranConfig

__all__ = [
    "NativeResult",
    "Varan",
    "VaranConfig",
    "run_native",
]
