"""Benchmark-side instruments: host clocks, call probes and the profiler fold.

Everything here wraps public functions of ``repro`` from the outside. A
wrapper only counts, times or delays host work; it never changes an
argument or a return value, so the simulated (virtual) results of a run
are the same with or without it.
"""

from __future__ import annotations

import importlib
import os
import pstats
import time
from contextlib import contextmanager
from functools import wraps

import repro
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim import Simulator
from repro.sim.simulator import SimulationError

#: Simulation steps per timed slice of :meth:`Simulator.run`: about a
#: millisecond of host time, much shorter than the spells in which a
#: shared host runs this process slower.
SLICE_STEPS = 50

#: The packages under ``src/repro`` that host self time is folded into.
#: Anything else (stdlib, builtins, the benchmark itself) is ``other``.
PACKAGES = (
    "sim", "kernel", "ptrace", "core", "dist", "fleet", "lifecycle",
    "diversity", "guest", "workloads", "obs", "faults", "costs", "baselines",
)

#: Public entry points the traced run counts, as
#: ``metric prefix -> (owners, attribute, timed)``. An owner is a module,
#: or ``module:Class`` for a method; a function imported by name into
#: several modules is patched in each of them. Generator functions
#: (``Kernel.invoke``) are counted only: timing one would time the
#: creation of the generator, not the work.
PROBES = {
    "kernel.invoke": (("repro.kernel.kernel:Kernel",), "invoke", False),
    "core.serialize_args": (
        ("repro.core.comparator", "repro.core.ipmon", "repro.dist.node"),
        "serialize_args", True,
    ),
    "core.compare_requests": (("repro.core.ghumvee",), "compare_requests", True),
    "dist.participants": (("repro.dist.cluster:DistMvee",), "participants", False),
    "dist.shard_owners": (("repro.dist.cluster:DistMvee",), "shard_owners", False),
    "dist.transport_send": (("repro.dist.transport:Transport",), "send", True),
    "fleet.on_syn": (("repro.fleet.admission:AdmissionController",), "on_syn", False),
    "lifecycle.window_record": (
        ("repro.lifecycle.window:ReplayWindow",), "record", False,
    ),
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _patch(prefix: str, make_wrapper) -> None:
    owners, attribute, _timed = PROBES[prefix]
    for owner in owners:
        target = _resolve(owner)
        setattr(target, attribute, make_wrapper(getattr(target, attribute)))


class Meter:
    """Always-on accounting for one workload run.

    * host CPU seconds spent inside :meth:`Simulator.run`, timed in
      slices of :data:`SLICE_STEPS` steps (``run_slices``; ``run_s`` is
      their sum), and the events those calls drained (``steps``). CPU
      time of this single-threaded process, not wall time, so that time
      the machine gives to other processes does not count. The engine
      resumes a run whose step budget tripped where it stopped, so
      running in slices changes nothing in the simulation; a repetition
      of the same seed cuts the same slices, and the caller can compare
      them slice by slice;
    * host CPU seconds of set-up (``setup_phases``; ``setup_s`` is their
      sum): from each :meth:`setup` mark to the first simulation step
      after it, that is building programs, kernels and MVEEs, but not
      folding results after a run;
    * every :class:`MetricsRegistry` built while the meter is not
      paused, so the virtual histograms and stats of all MVEEs in the
      workload can be folded at the end.

    :meth:`paused` keeps simulations that belong to set-up (calibration)
    out of ``run_s``, ``steps`` and the registries; their host time
    counts as set-up.
    """

    def __init__(self):
        self.run_slices = []
        self.setup_phases = []
        self.steps = 0
        self.registries = []
        self._paused = False
        self._setup_from = None
        meter = self
        sim_run = Simulator.run
        registry_init = MetricsRegistry.__init__

        @wraps(sim_run)
        def run(sim, until=None, max_steps=None):
            if meter._paused:
                return sim_run(sim, until=until, max_steps=max_steps)
            first = sim.steps
            end = None if max_steps is None else first + max_steps
            if meter._setup_from is not None:
                meter.setup_phases.append(time.process_time() - meter._setup_from)
                meter._setup_from = None
            try:
                while True:
                    before = sim.steps
                    budget = SLICE_STEPS if end is None else min(SLICE_STEPS, end - before)
                    start = time.process_time()
                    try:
                        return sim_run(sim, until=until, max_steps=budget)
                    except SimulationError:
                        # Only this slice's budget tripping is resumed;
                        # the caller's budget and other errors propagate.
                        if sim.steps - before != budget or sim.steps == end:
                            raise
                    finally:
                        meter.run_slices.append(time.process_time() - start)
            finally:
                meter.steps += sim.steps - first

        @wraps(registry_init)
        def init(registry, *args, **kwargs):
            registry_init(registry, *args, **kwargs)
            if not meter._paused:
                meter.registries.append(registry)

        Simulator.run = run
        MetricsRegistry.__init__ = init

    @property
    def run_s(self) -> float:
        return sum(self.run_slices)

    @property
    def setup_s(self) -> float:
        return sum(self.setup_phases)

    def setup(self) -> None:
        """Start a set-up phase, or go on with the one already open: it
        ends at the next simulation step."""
        if self._setup_from is None:
            self._setup_from = time.process_time()

    @contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def stats(self) -> dict:
        """Numeric stats of every registry, summed by key."""
        total: dict = {}
        for registry in self.registries:
            for key, value in registry.stats_view().items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    total[key] = total.get(key, 0) + value
        return total

    def histogram(self, name: str) -> Histogram:
        """One histogram merged over every registry (empty if unused)."""
        merged = None
        for registry in self.registries:
            hist = registry.histograms.get(name)
            if hist is None:
                continue
            if merged is None:
                merged = Histogram(name, hist.bounds)
            merged.merge(hist)
        return merged if merged is not None else Histogram(name)


class Probes:
    """Call counters (and host timers) on the :data:`PROBES` entry points,
    plus the bytes requested from :class:`SharedRegion`."""

    def __init__(self):
        self.calls = {prefix: 0 for prefix in PROBES}
        self.seconds = {prefix: 0.0 for prefix in PROBES if PROBES[prefix][2]}
        self.region_bytes = 0
        for prefix, (_owners, _attribute, timed) in PROBES.items():
            _patch(prefix, self._timer(prefix) if timed else self._counter(prefix))

        from repro.kernel.memory import SharedRegion

        region_init = SharedRegion.__init__
        probes = self

        @wraps(region_init)
        def init(region, length, *args, **kwargs):
            probes.region_bytes += length
            region_init(region, length, *args, **kwargs)

        SharedRegion.__init__ = init

    def _counter(self, prefix: str):
        calls = self.calls

        def make(fn):
            @wraps(fn)
            def counted(*args, **kwargs):
                calls[prefix] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _timer(self, prefix: str):
        calls, seconds = self.calls, self.seconds

        def make(fn):
            @wraps(fn)
            def timed(*args, **kwargs):
                calls[prefix] += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[prefix] += time.perf_counter() - start

            return timed

        return make

    def metrics(self) -> dict:
        out = {prefix + ".calls": count for prefix, count in self.calls.items()}
        out.update({prefix + ".s": secs for prefix, secs in self.seconds.items()})
        out["kernel.region_alloc_mib"] = self.region_bytes / (1 << 20)
        return out


def install_delay(prefix: str, seconds: float) -> None:
    """Make every call of a :data:`PROBES` entry point busy-wait
    ``seconds`` of host time first: a deliberately slower layer, for the
    layer-sensitivity self-test."""

    def make(fn):
        @wraps(fn)
        def delayed(*args, **kwargs):
            until = time.perf_counter() + seconds
            while time.perf_counter() < until:
                pass
            return fn(*args, **kwargs)

        return delayed

    _patch(prefix, make)


def fold_profile(profile) -> dict:
    """cProfile self time (``tottime``) summed per ``repro`` package."""
    src = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    folded = {package: 0.0 for package in PACKAGES + ("other",)}
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        package = "other"
        if filename.startswith(src):
            head = filename[len(src):].split(os.sep, 1)[0]
            if head in folded:
                package = head
        folded[package] += row[2]
    return {"host.%s.self_s" % package: secs for package, secs in folded.items()}
