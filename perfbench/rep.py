"""One repetition of one workload, in the fresh interpreter it runs in.

    python3 perfbench/rep.py <workload> <seed> [--trace] [--delay PROBE=SECONDS]

Prints one JSON line: host ``setup_s``/``run_s``/``peak_rss_mib``, the
set-up phases and run slices those two times are sums of, the work
count, operations attempted and failed, failed output checks, and every
virtual figure. ``--trace`` adds the per-layer host figures
(profiler self time per package, probe counts and timers); ``--delay``
slows one probed entry point, for the layer-sensitivity self-test.
``perfbench/run.py`` drives this; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from instrument import PROBES, Meter, Probes, fold_profile, install_delay  # noqa: E402
from workloads import PRELOAD, WORKLOADS  # noqa: E402


def layer_virtual(meter) -> dict:
    """Per-layer virtual figures, folded over every MVEE of the run."""
    stats = meter.stats()

    def p99_us(name):
        return (meter.histogram(name).percentile(99) or 0) / 1e3

    return {
        "core.monitored_calls": stats.get("monitored_calls", 0),
        "core.rendezvous_wait_p99_us": p99_us("rendezvous_wait_ns"),
        "core.unmonitored_calls": stats.get("ipmon_unmonitored_calls", 0),
        "core.rb_resets": stats.get("ipmon_rb_resets", 0),
        "core.rb_wait_p99_us": p99_us("ipmon_rb_wait_ns"),
        "dist.rendezvous_calls": stats.get("dist_rendezvous_calls", 0),
        "dist.monitor_wait_p99_us": p99_us("dist_monitor_wait_ns"),
        "dist.rendezvous_wait_p99_us": p99_us("dist_rendezvous_wait_ns"),
        "dist.wire_kib": stats.get("dist_wire_bytes", 0) / 1024,
        "dist.replicated_calls": stats.get("dist_replicated_calls", 0),
        "dist.local_calls": stats.get("dist_local_calls", 0),
        "dist.handoff_us": stats.get("dist_handoff_cost_ns", 0) / 1e3,
        "fleet.accept_wait_p99_us": p99_us("fleet_accept_wait_ns"),
        "fleet.shed": stats.get("fleet_shed", 0),
        "lifecycle.replayed": sum(
            stats.get("lifecycle_replayed_" + kind, 0)
            for kind in ("records", "verdicts", "local")
        ),
        "lifecycle.gossip_kib": stats.get("dist_bytes_lifecycle", 0) / 1024,
        "diversity.canonical_calls": stats.get("dist_canonical_calls", 0),
        "diversity.canonical_us": stats.get("dist_canonical_cost_ns", 0) / 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--delay", metavar="PROBE=SECONDS",
                        help="PROBE is one of: " + ", ".join(PROBES))
    args = parser.parse_args(argv)

    for module in PRELOAD.get(args.workload, ()):
        importlib.import_module(module)
    meter = Meter()
    if args.delay:
        prefix, _, seconds = args.delay.partition("=")
        install_delay(prefix, float(seconds))
    probes = Probes() if args.trace else None
    profile = cProfile.Profile() if args.trace else None

    if profile is not None:
        profile.enable()
    outcome = WORKLOADS[args.workload](args.seed, meter)
    if profile is not None:
        profile.disable()

    virtual = dict(outcome.virtual)
    virtual.update(layer_virtual(meter))
    record = {
        "setup_s": meter.setup_s,
        "run_s": meter.run_s,
        "setup_phases": meter.setup_phases,
        "run_slices": meter.run_slices,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work": outcome.work,
        "steps": meter.steps,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "virtual": virtual,
    }
    if args.trace:
        from repro.core.digests import interner

        layers = fold_profile(profile)
        layers.update(probes.metrics())
        lookups = interner.hits + interner.misses
        layers["core.digest.hit_ratio"] = interner.hits / lookups if lookups else 0.0
        record["layers"] = layers
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
