"""Layer-sensitivity self-test: a slower layer must show in ``run_s``.

    python3 perfbench/sensitivity.py

For each of four public entry points, every call is made to busy-wait a
fixed host delay (``rep.py --delay``). :data:`PAIRS` plain and delayed
cold repetitions of seed :data:`SEED` alternate, so a slow spell on the machine
hits both sides, and the median of the per-pair ``run_s`` ratios is
compared with the ``run_s`` bound in ``BENCHMARK.json``:

* on the workload the layer is mapped to, ``run_s`` must grow by more
  than the bound;
* on a workload where the layer is idle, ``run_s`` must stay within it.

Each delay is sized so that the mapped workload's calls add roughly half
to its ``run_s``. Exits 0 when every case passes, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import ROOT, repetition

SEED = 1
PAIRS = 5

#: (probe, host delay per call in seconds, workload that must move,
#: workload that must hold).
CASES = (
    ("dist.participants", 15e-6, "dist-wide", "remon-paper"),
    # GHUMVEE imports compare_requests by name; the probe patches it there.
    ("core.compare_requests", 250e-6, "remon-paper", "dist-wide"),
    ("fleet.on_syn", 5e-3, "fleet-mirror", "dist-wide"),
    ("lifecycle.window_record", 1e-3, "dist-rejoin", "dist-wide"),
)


def run_s(workload: str, seed: int, *extra: str) -> float:
    record, error = repetition(workload, seed, *extra)
    problems = [error] if error else record["problems"]
    if problems:
        raise SystemExit("%s %s: %s" % (workload, " ".join(extra), problems[0]))
    return record["run_s"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "run_s")
    failures = 0
    for probe, delay, moves, holds in CASES:
        delay_arg = ("--delay", "%s=%r" % (probe, delay))
        for workload, must_move in ((moves, True), (holds, False)):
            ratios = []
            for _ in range(PAIRS):
                plain = run_s(workload, SEED)
                ratios.append(run_s(workload, SEED, *delay_arg) / plain)
            change = statistics.median(ratios) - 1.0
            ok = change > bound if must_move else abs(change) <= bound
            failures += not ok
            print("%-4s %-24s +%5.0f us/call  %-12s run_s %+6.1f %% (%s %.0f %%)"
                  % ("ok" if ok else "FAIL", probe, delay * 1e6, workload,
                     100 * change,
                     "must exceed" if must_move else "must stay within",
                     100 * bound), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
