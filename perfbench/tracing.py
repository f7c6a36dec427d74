"""In-memory span tracing around the library calls the benchmark makes.

Each traced boundary is a public function or method, wrapped at the name
its caller looks it up by (``repro.fleet.planner.evaluate_slo``, not
``repro.serve.slo.evaluate_slo``, because the planner imported it by
name).  A span records its layer name, start, end, parent span and op
id; spans stay in memory until the run ends.  A layer's self time is
its span's duration minus its direct children's, and every op opens a
root span whose self time is the op's ``other`` bucket, so the self
times of an op's spans add up to its wall time.

The wrappers are installed only for traced cycles (``install`` returns
the handle that removes them), so untraced cycles run the library
unmodified apart from the result checker of :func:`install_checker`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_s")

    def __init__(self, name: str, parent: Optional["Span"], op: Any):
        self.name = name
        self.start = _now()
        self.end = self.start
        self.parent = parent
        self.op = op
        self.attrs: Dict[str, Any] = {}
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Span recorder plus per-op counters; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.op: Any = None
        self.counts: Dict[Tuple[Any, str], float] = {}

    def open(self, name: str) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        popped = self.stack.pop()
        assert popped is span, "spans must nest"
        if span.parent is not None:
            span.parent.child_s += span.duration

    def begin_op(self, op: Any) -> Span:
        self.op = op
        return self.open("op")

    def end_op(self, root: Span) -> None:
        self.close(root)
        self.op = None

    def count(self, key: str, amount: float = 1) -> None:
        slot = (self.op, key)
        self.counts[slot] = self.counts.get(slot, 0) + amount

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None
                    else index[id(span.parent)],
                    "op": span.op,
                    "attrs": span.attrs,
                }
                handle.write(json.dumps(record, default=str) + "\n")


# ------------------------------------------------------------------ patches
def _resolve(path: str) -> Tuple[Any, str]:
    """``pkg.mod.attr`` or ``pkg.mod.Class.method`` -> (owner, attr)."""
    module_path, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(module_path), attr
    except ModuleNotFoundError:
        module_path, _, cls = module_path.rpartition(".")
        return getattr(importlib.import_module(module_path), cls), attr


class Patches:
    """A set of attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, path: str, make: Callable[[Any], Any]) -> None:
        owner, attr = _resolve(path)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(tracer: Tracer, name: str, after=None):
    """Wrap a callable in a span; ``after(span, args, result)`` adds attrs."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    return make


def _counted(tracer: Tracer, key: str, amount: Callable[[Any], float]):
    """Wrap a callable so its result adds ``amount(result)`` to a counter."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(key, amount(result))
            return result

        return wrapper

    return make


def _offered_load(replicas, tenants) -> float:
    capacity = sum(1.0 / replica.epoch for replica in replicas)
    offered = sum(spec.process.mean_rate for spec in tenants)
    return offered / capacity


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer boundary; returns the undo handle."""
    import repro.scenario.faults as faults

    patches = Patches()
    t = tracer

    def memory_after(span, args, result):
        span.attrs["feasible"] = result is not None

    def materialize_after(span, args, result):
        span.attrs["arrivals"] = int(result.size)

    def fast_after(span, args, result):
        span.attrs["load"] = _offered_load(args[0], args[1])

    def engine_run(fn):
        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            before = sim.events_processed
            span = t.open("sim.engine")
            try:
                return fn(sim, *args, **kwargs)
            finally:
                t.close(span)
                span.attrs["events"] = sim.events_processed - before

        return wrapper

    def cluster_after(span, args, result):
        span.attrs["arrivals"] = sum(x.arrivals for x in result.tenants)

    # Optimizer (as repro.opt.driver looks it up) and DSE.
    patches.replace("repro.opt.compute.SegmentSearch.__init__",
                    _spanned(t, "opt.segment_search"))
    patches.replace("repro.opt.compute.SegmentSearch.candidates",
                    _spanned(t, "opt.segment_search.candidates"))
    patches.replace("repro.opt.driver.optimize_memory",
                    _spanned(t, "opt.memory", memory_after))
    patches.replace("repro.dse.runner.evaluate_point_payload",
                    _spanned(t, "dse.worker"))
    patches.replace("repro.dse.store.ResultStore.put",
                    _spanned(t, "dse.store"))
    patches.replace("repro.dse.store.ResultStore.get",
                    _spanned(t, "dse.store"))
    # Engines: ClusterSimulator.run imports both at call time.
    patches.replace("repro.sim.fastpath.materialize_arrivals",
                    _spanned(t, "sim.fastpath.materialize", materialize_after))
    patches.replace("repro.sim.fastpath.run_fleet_fast",
                    _spanned(t, "sim.fastpath.solve", fast_after))
    patches.replace("repro.sim.engine.Simulator.run", engine_run)
    patches.replace("repro.fleet.cluster.ClusterSimulator.run",
                    _spanned(t, "fleet.cluster", cluster_after))
    for cls in vars(faults).values():
        if isinstance(cls, type) and issubclass(cls, faults.FaultSpec):
            for method in ("materialize", "materialize_gray"):
                if method in cls.__dict__:
                    patches.replace(
                        f"repro.scenario.faults.{cls.__name__}.{method}",
                        _spanned(t, "scenario.faults"),
                    )
    # Detector ejections are counted, not spanned: probes fire per
    # replica per interval and a span each would dwarf the work.
    patches.replace(
        "repro.fleet.detector.FailureDetector.record_probe",
        _counted(t, "ejections", lambda r: 1 if r == "ejected" else 0),
    )
    patches.replace(
        "repro.fleet.detector.FailureDetector.evaluate_outliers",
        _counted(t, "ejections", len),
    )
    # Planner, SLO scoring, serialization and reporting.
    patches.replace("repro.fleet.planner.plan_capacity",
                    _spanned(t, "fleet.planner.plan"))
    patches.replace("repro.fleet.planner.autoscale",
                    _spanned(t, "fleet.planner.autoscale"))
    patches.replace("repro.fleet.planner.evaluate_slo",
                    _spanned(t, "serve.slo"))
    patches.replace("repro.core.serialize.dump_fleet_result",
                    _spanned(t, "core.serialize"))
    patches.replace("repro.fleet.metrics.FleetResult.format",
                    _spanned(t, "analysis.report"))
    patches.replace("repro.analysis.report.render_run_report",
                    _spanned(t, "analysis.report"))
    return patches


#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "opt.segment_search.candidates": "opt.segment_search",
    "fleet.planner.plan": "fleet.planner",
    "fleet.planner.autoscale": "fleet.planner",
    "op": "other",
}


def layer_of(span: Span) -> str:
    return LAYER_OF.get(span.name, span.name)


class RunChecker:
    """Checks every ``ClusterSimulator.run`` result, traced or not.

    Request conservation must hold per tenant on every simulation the
    workload triggers, including capacity-plan probes whose results the
    planner never returns.  The checker also sums simulated arrivals so
    throughput counts every probe.
    """

    def __init__(self) -> None:
        self.arrivals = 0
        self.violations: List[str] = []

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(cluster, *args, **kwargs):
            result = fn(cluster, *args, **kwargs)
            for stats in result.tenants:
                self.arrivals += stats.arrivals
                accounted = (
                    stats.completions + stats.drops + stats.lost
                    + stats.rejected + stats.expired + stats.timed_out
                    + stats.in_flight
                )
                if accounted != stats.arrivals:
                    self.violations.append(
                        f"{stats.name}: arrivals {stats.arrivals} != "
                        f"accounted {accounted}"
                    )
            return result

        return wrapper


def install_checker(checker: RunChecker) -> Patches:
    patches = Patches()
    patches.replace("repro.fleet.cluster.ClusterSimulator.run", checker)
    return patches
